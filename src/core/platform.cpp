#include "core/platform.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "core/health_manager.hpp"

namespace storm::core {

namespace {

/// Built-in no-op service: parses and forwards (used for MB-FWD-style
/// baselines with interception but no processing).
class NoopService : public StorageService {
 public:
  std::string name() const override { return "noop"; }
  ServiceVerdict on_pdu(ServiceContext&, Direction, iscsi::Pdu&) override {
    return {};
  }
};

// Drain poll cadence (detach and flow migration): fine-grained enough that
// a drain adds at most ~100us to a teardown, coarse enough not to
// dominate the event queue.
constexpr sim::Duration kDrainPollInterval = sim::microseconds(100);

}  // namespace

// -------------------------------------------------------- DeploymentHandle

Deployment* DeploymentHandle::resolve() const {
  if (platform_ == nullptr || cookie_ == 0) return nullptr;
  return platform_->deployment_by_cookie(cookie_);
}

MiddleboxInstance* DeploymentHandle::resolve_box(std::size_t position) const {
  Deployment* dep = resolve();
  if (dep == nullptr || position >= dep->boxes.size()) return nullptr;
  return dep->boxes[position].get();
}

bool DeploymentHandle::valid() const { return resolve() != nullptr; }

const std::string& DeploymentHandle::vm() const {
  static const std::string empty;
  Deployment* dep = resolve();
  return dep != nullptr ? dep->vm : empty;
}

const std::string& DeploymentHandle::volume() const {
  static const std::string empty;
  Deployment* dep = resolve();
  return dep != nullptr ? dep->volume : empty;
}

std::size_t DeploymentHandle::chain_length() const {
  Deployment* dep = resolve();
  return dep != nullptr ? dep->boxes.size() : 0;
}

const SpliceContext* DeploymentHandle::splice() const {
  Deployment* dep = resolve();
  return dep != nullptr ? &dep->splice : nullptr;
}

const cloud::Attachment* DeploymentHandle::attachment() const {
  Deployment* dep = resolve();
  return dep != nullptr ? &dep->attachment : nullptr;
}

ActiveRelay* DeploymentHandle::active_relay(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->active_relay.get() : nullptr;
}

PassiveRelay* DeploymentHandle::passive_relay(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->passive_relay.get() : nullptr;
}

StorageService* DeploymentHandle::service(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->service.get() : nullptr;
}

cloud::Vm* DeploymentHandle::mb_vm(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->vm : nullptr;
}

const ServiceSpec* DeploymentHandle::spec(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? &box->spec : nullptr;
}

ActiveRelay* DeploymentHandle::standby_relay(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr && box->standby != nullptr
             ? box->standby->active_relay.get()
             : nullptr;
}

bool DeploymentHandle::draining() const {
  Deployment* dep = resolve();
  return dep != nullptr && dep->state == DeploymentState::kDraining;
}

bool DeploymentHandle::fenced() const {
  Deployment* dep = resolve();
  return dep != nullptr && dep->state == DeploymentState::kFenced;
}

Status DeploymentHandle::add_middlebox(const ServiceSpec& spec,
                                       std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->add_middlebox(*dep, spec, position);
}

Status DeploymentHandle::remove_middlebox(std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->remove_middlebox(*dep, position);
}

Status DeploymentHandle::crash_middlebox(std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->crash_middlebox(*dep, position);
}

Status DeploymentHandle::restart_middlebox(std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->restart_middlebox(*dep, position);
}

Status DeploymentHandle::detach() {
  if (platform_ == nullptr) {
    return error(ErrorCode::kInvalidArgument, "null deployment handle");
  }
  return platform_->detach_deployment(cookie_);
}

// ---------------------------------------------------------- StormPlatform

StormPlatform::StormPlatform(cloud::Cloud& cloud)
    : cloud_(cloud), attribution_(cloud), splicer_(cloud), sdn_(cloud),
      health_(std::make_unique<ChainHealthManager>(*this)) {
  register_service("noop", [](ServiceEnv&) {
    return Result<std::unique_ptr<StorageService>>(
        std::make_unique<NoopService>());
  });
}

StormPlatform::~StormPlatform() { health_->stop(); }

obs::Registry& StormPlatform::telemetry() {
  return cloud_.simulator().telemetry();
}

void StormPlatform::register_service(const std::string& type,
                                     ServiceFactory factory) {
  factories_[type] = std::move(factory);
}

unsigned StormPlatform::place_middlebox(const ServiceSpec& spec,
                                        unsigned vm_host) {
  if (spec.host_index >= 0) {
    return static_cast<unsigned>(spec.host_index);
  }
  // Default placement: round-robin over hosts other than the tenant VM's
  // (the paper's worst-case measurement spreads everything out; the
  // placement ablation co-locates explicitly via host_index).
  unsigned host = next_mb_host_++ % cloud_.compute_count();
  if (host == vm_host) host = next_mb_host_++ % cloud_.compute_count();
  return host;
}

Result<std::unique_ptr<MiddleboxInstance>> StormPlatform::build_box(
    const ServiceSpec& spec, const std::string& label,
    const std::string& tenant, unsigned vm_host, block::Volume* volume) {
  auto box = std::make_unique<MiddleboxInstance>();
  box->spec = spec;
  unsigned host = place_middlebox(spec, vm_host);
  box->vm = &cloud_.create_middlebox_vm(label, tenant, host, spec.vcpus);

  if (spec.relay != RelayMode::kForward) {
    auto it = factories_.find(spec.type);
    if (it == factories_.end()) {
      return error(ErrorCode::kNotFound,
                   "no service registered for type '" + spec.type + "'");
    }
    ServiceEnv env;
    env.cloud = &cloud_;
    env.platform = this;
    env.mb_vm = box->vm;
    env.volume = volume;
    env.spec = &box->spec;
    auto service = it->second(env);
    if (!service.is_ok()) return service.status();
    box->service = std::move(service).take();
    if (box->service->requires_active_relay() &&
        spec.relay != RelayMode::kActive) {
      return error(ErrorCode::kInvalidArgument,
                   "service '" + spec.type + "' requires relay=active");
    }
    // Recovery-policy legality is a deploy-time property: bypass on a
    // confidentiality-critical service would fail open the day the box
    // dies, so it is refused before the chain ever carries traffic.
    if (spec.recovery == RecoveryPolicyKind::kBypass &&
        box->service->confidentiality_critical()) {
      return error(ErrorCode::kPermissionDenied,
                   "service '" + spec.type +
                       "' is confidentiality-critical: recovery=bypass "
                       "would fail open");
    }
    if (spec.recovery == RecoveryPolicyKind::kStandby &&
        spec.relay != RelayMode::kActive) {
      return error(ErrorCode::kInvalidArgument,
                   "service '" + spec.type +
                       "': recovery=standby requires relay=active");
    }
  }
  return box;
}

namespace {

// Tenant-tunable relay flow control: the NVRAM watermarks come from the
// service stanza (`journal_hwm_kb=... journal_lwm_kb=...`); 0 disables
// backpressure for that box. Unspecified keys keep the defaults.
RelayFlowControl relay_flow_control(const ServiceSpec& spec) {
  RelayFlowControl flow;
  const std::string hwm = spec.param("journal_hwm_kb");
  if (!hwm.empty()) {
    flow.high_watermark = std::stoul(hwm) * 1024;
  }
  const std::string lwm = spec.param("journal_lwm_kb");
  if (!lwm.empty()) {
    flow.low_watermark = std::stoul(lwm) * 1024;
  }
  return flow;
}

// Tenant-tunable journal segment size, also from the service stanza
// (`journal_segment_kb`); the other engine knobs keep their defaults.
journal::Config relay_journal_config(const ServiceSpec& spec) {
  journal::Config config;
  const std::string seg = spec.param("journal_segment_kb");
  if (!seg.empty()) {
    config.segment_bytes = std::stoul(seg) * 1024;
  }
  return config;
}

}  // namespace

void StormPlatform::start_passive_relay(MiddleboxInstance& box,
                                        const Deployment& deployment) {
  box.passive_relay = std::make_unique<PassiveRelay>(
      *box.vm, std::vector<StorageService*>{box.service.get()},
      deployment.volume, deployment.iqn);
  box.passive_relay->start();
}

void StormPlatform::wire_relays(Deployment& deployment) {
  net::SocketAddr upstream{deployment.splice.gateways.egress_instance_ip(),
                           iscsi::kIscsiPort};
  for (auto& box : deployment.boxes) {
    if (box->pooled) continue;  // pooled relays start when the pool builds
    switch (box->spec.relay) {
      case RelayMode::kForward:
        break;  // plain IP forwarding, nothing to run
      case RelayMode::kPassive:
        start_passive_relay(*box, deployment);
        break;
      case RelayMode::kActive:
        box->active_relay = std::make_unique<ActiveRelay>(
            *box->vm, upstream,
            std::vector<StorageService*>{box->service.get()},
            deployment.volume, ActiveRelayCosts{},
            relay_flow_control(box->spec), relay_journal_config(box->spec));
        box->active_relay->start();
        break;
    }
    if (box->standby != nullptr) {
      // The warm spare listens from day one but receives nothing until a
      // failover swaps the capture + steering rules to its MAC.
      box->standby->active_relay = std::make_unique<ActiveRelay>(
          *box->standby->vm, upstream,
          std::vector<StorageService*>{box->standby->service.get()},
          deployment.volume, ActiveRelayCosts{},
          relay_flow_control(box->standby->spec),
          relay_journal_config(box->standby->spec));
      box->standby->active_relay->start();
    }
  }
}

// ---------------------------------------------------------- replica sets

ReplicaSet* StormPlatform::find_replica_set(const std::string& tenant,
                                            const std::string& type) {
  auto it = replica_sets_.find(tenant + "|" + type);
  return it == replica_sets_.end() ? nullptr : it->second.get();
}

const ReplicaSet* StormPlatform::replica_set(
    const std::string& tenant, const std::string& service_type) const {
  auto it = replica_sets_.find(tenant + "|" + service_type);
  return it == replica_sets_.end() ? nullptr : it->second.get();
}

net::TokenBucket* StormPlatform::tenant_qos_mutable(
    const std::string& tenant) {
  auto it = qos_buckets_.find(tenant);
  return it == qos_buckets_.end() ? nullptr : it->second.get();
}

Result<std::shared_ptr<MiddleboxInstance>> StormPlatform::build_replica(
    ReplicaSet& set, unsigned avoid_host,
    std::vector<StorageService*>* fresh_services) {
  if (!set.parked.empty()) {
    // Revive the most recently parked replica: its VM and initialized
    // service are intact, so scale-up skips both boot and setup time.
    std::shared_ptr<MiddleboxInstance> box = set.parked.back();
    set.parked.pop_back();
    box->vm->node().set_down(false);
    box->active_relay->restart();
    set.ring.add_node(box->replica_label);
    set.replicas.push_back(box);
    telemetry().record_event("scaleout: revived replica " +
                             box->replica_label + " on " + box->vm->name());
    return box;
  }

  const std::string label =
      set.tenant + "/" + set.spec.type + "#" + std::to_string(set.next_ordinal);
  // Spread replicas over distinct hosts (and off the tenant VM's host):
  // a co-located pair fails together, which defeats the pool.
  ServiceSpec spec = set.spec;
  if (spec.host_index < 0) {
    unsigned host = next_mb_host_++ % cloud_.compute_count();
    for (unsigned attempt = 0; attempt < cloud_.compute_count(); ++attempt) {
      bool taken = host == avoid_host;
      for (const auto& sibling : set.replicas) {
        taken = taken || sibling->vm->host_index() == host;
      }
      if (!taken) break;
      host = next_mb_host_++ % cloud_.compute_count();
    }
    spec.host_index = static_cast<int>(host);
  }
  auto built = build_box(spec, "mb-" + std::to_string(next_mb_id_++) + "-" +
                                   set.spec.type,
                         set.tenant, avoid_host, nullptr);
  if (!built.is_ok()) return built.status();
  std::shared_ptr<MiddleboxInstance> box = std::move(built).take();
  if (box->service != nullptr && !box->service->replica_safe()) {
    return error(ErrorCode::kInvalidArgument,
                 "service '" + set.spec.type +
                     "' keeps per-volume state and cannot be pooled "
                     "(replicas stanza)");
  }
  box->pooled = true;
  box->replica_label = label;
  ++set.next_ordinal;

  // The pooled relay dials the tenant's egress gateway like any private
  // relay would; per-flow volumes are registered as flows pin to it.
  GatewayPair& gateways = splicer_.tenant_gateways(set.tenant);
  net::SocketAddr upstream{gateways.egress_instance_ip(), iscsi::kIscsiPort};
  box->active_relay = std::make_unique<ActiveRelay>(
      *box->vm, upstream, std::vector<StorageService*>{box->service.get()},
      /*volume=*/"", ActiveRelayCosts{}, relay_flow_control(box->spec),
      relay_journal_config(box->spec));
  box->active_relay->start();
  if (fresh_services != nullptr && box->service != nullptr) {
    fresh_services->push_back(box->service.get());
  }
  set.ring.add_node(label);
  set.replicas.push_back(box);
  telemetry().record_event("scaleout: built replica " + label + " on " +
                           box->vm->name());
  return box;
}

Result<std::shared_ptr<MiddleboxInstance>> StormPlatform::acquire_replica(
    Deployment& dep, const ServiceSpec& spec, const std::string& tenant,
    unsigned vm_host, std::vector<StorageService*>* fresh_services) {
  if (spec.relay != RelayMode::kActive) {
    return error(ErrorCode::kInvalidArgument,
                 "replicas stanza requires relay=active");
  }
  const std::string key = tenant + "|" + spec.type;
  auto it = replica_sets_.find(key);
  if (it == replica_sets_.end()) {
    auto set = std::make_unique<ReplicaSet>();
    set->tenant = tenant;
    set->spec = spec;
    it = replica_sets_.emplace(key, std::move(set)).first;
  }
  ReplicaSet& set = *it->second;
  // First acquisition sizes the pool from the policy; later attaches
  // join the pool at whatever size elasticity has taken it to.
  if (set.replicas.empty()) {
    for (unsigned i = 0; i < std::max(1u, spec.replicas.count); ++i) {
      auto built = build_replica(set, vm_host, fresh_services);
      if (!built.is_ok()) return built.status();
    }
  }

  const std::uint64_t flow_hash = FlowHashRing::flow_key(
      dep.splice.host_storage_ip, dep.splice.vm_port, dep.splice.target_ip,
      iscsi::kIscsiPort);
  const std::string& label = set.ring.assign(flow_hash);
  for (const auto& replica : set.replicas) {
    if (replica->replica_label != label) continue;
    replica->active_relay->register_volume(dep.splice.vm_port, dep.volume);
    set.assignments[dep.splice.cookie] = label;
    telemetry().record_event("scaleout: flow port " +
                             std::to_string(dep.splice.vm_port) +
                             " pinned to " + label);
    return replica;
  }
  return error(ErrorCode::kNotFound, "hash ring assigned unknown replica");
}

void StormPlatform::release_replica_flows(Deployment& dep) {
  for (auto& [key, set] : replica_sets_) {
    auto it = set->assignments.find(dep.splice.cookie);
    if (it == set->assignments.end()) continue;
    MiddleboxInstance* box = set->find(it->second);
    if (box != nullptr && box->active_relay != nullptr) {
      box->active_relay->drop_session(dep.splice.vm_port);
    }
    set->assignments.erase(it);
  }
}

sim::Task<Status> StormPlatform::migrate_flow(
    Deployment* dep, std::size_t position,
    std::shared_ptr<MiddleboxInstance> target) {
  std::shared_ptr<MiddleboxInstance> source = dep->boxes[position];
  if (source == target) co_return Status::ok();
  iscsi::Initiator* initiator = dep->attachment.initiator;
  if (initiator == nullptr || source->active_relay == nullptr ||
      target->active_relay == nullptr) {
    co_return error(ErrorCode::kFailedPrecondition,
                    "flow migration needs a live initiator and active relays");
  }
  // The handoff tears the initiator's downstream TCP leg; session
  // recovery re-dials from the pinned source port and re-issues whatever
  // the reopened gate admits. Without it, parked commands would fail.
  if (!initiator->recovery_policy().enabled) {
    iscsi::RecoveryPolicy recovery;
    recovery.enabled = true;
    recovery.reconnect_delay = sim::milliseconds(1);
    initiator->set_recovery(recovery);
  }
  // Park new commands instead of failing them: the chain drains to empty
  // under a live workload, and nothing issued during the move is lost.
  initiator->set_admission_mode(iscsi::AdmissionMode::kDeferred);
  telemetry().add_event(dep->attach_span, "migrate_begin", position);

  const std::uint64_t cookie = dep->splice.cookie;
  const std::uint16_t vm_port = dep->splice.vm_port;
  const sim::Time deadline = cloud_.simulator().now() + drain_timeout_;
  for (;;) {
    co_await sim::barrier(cloud_.simulator());
    dep = deployment_by_cookie(cookie);
    if (dep == nullptr) {
      co_return error(ErrorCode::kNotFound,
                      "deployment detached mid-migration");
    }
    if (dep->attachment.initiator->outstanding() == 0 &&
        source->active_relay->session_quiescent(vm_port)) {
      break;
    }
    if (cloud_.simulator().now() >= deadline) {
      dep->attachment.initiator->set_admission_mode(
          iscsi::AdmissionMode::kOpen);
      co_return error(ErrorCode::kDeadlineExceeded, "migration drain timeout");
    }
    co_await sim::sleep(cloud_.control_executor(), kDrainPollInterval);
  }
  // Quiescent: hand the flow off atomically at the barrier.
  // 1. Snapshot the drained session (login + empty unacked tail) and
  //    tear it out of the source relay.
  RelayJournalSnapshot snapshot =
      source->active_relay->extract_session(vm_port);
  // 2. The departing replica's capture DNAT is cookie-tagged but
  //    refresh_capture_rules only touches the *new* chain's VMs —
  //    flush it explicitly or the old VM keeps capturing the flow.
  source->vm->node().nat().remove_rules_by_cookie(
      cookie, /*flush_conntrack=*/true);
  // 3. Re-point chain + steering at the target replica (one atomic
  //    swap per switch; the exact-match cache revalidates in-place).
  dep->splice.chain[position] = Hop{target->vm, RelayMode::kActive};
  dep->boxes[position] = target;
  splicer_.refresh_capture_rules(dep->splice);
  sdn_.reprogram_chain(dep->splice);
  // 4. Adopt on the target: recreate the session, re-dial upstream,
  //    replay login (the tail is empty — the flow drained).
  target->active_relay->register_volume(vm_port, dep->volume);
  target->active_relay->adopt_sessions(std::move(snapshot));
  // 5. Re-dial now and reopen the gate: parked commands queue behind
  //    session recovery and issue after the re-login lands.
  initiator = dep->attachment.initiator;
  initiator->kick();
  initiator->set_admission_mode(iscsi::AdmissionMode::kOpen);
  telemetry().add_event(dep->attach_span, "migrated", position);
  telemetry().counter("scaleout.migrations").add();
  telemetry().record_event(
      "scaleout: flow port " + std::to_string(vm_port) + " moved " +
      source->replica_label + " -> " + target->replica_label);
  co_return Status::ok();
}

sim::Task<Status> StormPlatform::rebalance_flows(std::string set_key) {
  auto found = replica_sets_.find(set_key);
  if (found == replica_sets_.end()) co_return Status::ok();
  struct FlowMove {
    std::uint64_t cookie;
    std::string from;
    std::string to;
  };
  std::vector<FlowMove> moves;
  for (const auto& [cookie, label] : found->second->assignments) {
    Deployment* dep = deployment_by_cookie(cookie);
    if (dep == nullptr) continue;
    const std::string& target = found->second->ring.assign(
        FlowHashRing::flow_key(dep->splice.host_storage_ip,
                               dep->splice.vm_port, dep->splice.target_ip,
                               iscsi::kIscsiPort));
    if (!target.empty() && target != label) {
      moves.push_back(FlowMove{cookie, label, target});
    }
  }
  Status first_error;
  for (const FlowMove& move : moves) {
    auto it = replica_sets_.find(set_key);
    ReplicaSet* set = it != replica_sets_.end() ? it->second.get() : nullptr;
    Deployment* dep =
        set != nullptr ? deployment_by_cookie(move.cookie) : nullptr;
    if (dep == nullptr) continue;
    std::shared_ptr<MiddleboxInstance> target;
    for (const auto& replica : set->replicas) {
      if (replica->replica_label == move.to) target = replica;
    }
    std::size_t position = dep->boxes.size();
    for (std::size_t p = 0; p < dep->boxes.size(); ++p) {
      if (dep->boxes[p]->pooled &&
          dep->boxes[p]->replica_label == move.from) {
        position = p;
      }
    }
    if (target == nullptr || position == dep->boxes.size()) continue;
    Status status = co_await migrate_flow(dep, position, target);
    if (status.is_ok()) {
      if (auto again = replica_sets_.find(set_key);
          again != replica_sets_.end()) {
        again->second->assignments[move.cookie] = move.to;
      }
    } else if (first_error.is_ok()) {
      first_error = status;
    }
  }
  co_return first_error;
}

void StormPlatform::park_replica(ReplicaSet& set,
                                 std::shared_ptr<MiddleboxInstance> box) {
  for (auto it = set.replicas.begin(); it != set.replicas.end(); ++it) {
    if (*it == box) {
      set.replicas.erase(it);
      break;
    }
  }
  // Silence before power-off (journal intact, sessions already migrated
  // away) so a later revive can restart() it; unhook the stall callback
  // so the dark VM cannot ring the health manager's doorbell.
  if (box->active_relay != nullptr && !box->active_relay->crashed()) {
    box->active_relay->crash();
  }
  health_->unhook_node(&box->vm->node().tcp());
  box->vm->node().set_down(true);
  set.parked.push_back(box);
  telemetry().record_event("scaleout: parked replica " + box->replica_label);
}

void StormPlatform::scale_service_replicas(const std::string& tenant,
                                           const std::string& service_type,
                                           unsigned target,
                                           std::function<void(Status)> done) {
  if (!done) done = [](Status) {};
  sim::spawn(sim::then(scale_replicas(tenant, service_type, target),
                       std::move(done)));
}

sim::Task<Status> StormPlatform::scale_replicas(std::string tenant,
                                                std::string type,
                                                unsigned target) {
  co_await sim::barrier(cloud_.simulator());
  ReplicaSet* set = find_replica_set(tenant, type);
  if (set == nullptr) {
    co_return error(ErrorCode::kNotFound,
                    "no replica set for " + tenant + "/" + type);
  }
  const unsigned lo = std::max(1u, set->spec.replicas.min_count);
  const unsigned hi = std::max(lo, set->spec.replicas.max_count);
  target = std::min(std::max(target, lo), hi);
  const unsigned current = static_cast<unsigned>(set->replicas.size());
  if (target == current) co_return Status::ok();
  const std::string set_key = set->key();
  telemetry().record_event("scaleout: " + tenant + "/" + type + " " +
                           std::to_string(current) + " -> " +
                           std::to_string(target) + " replicas");

  if (target > current) {
    std::vector<StorageService*> fresh_services;
    for (unsigned i = current; i < target; ++i) {
      auto built = build_replica(*set, /*avoid_host=*/~0u, &fresh_services);
      if (!built.is_ok()) co_return built.status();
    }
    telemetry().counter("scaleout.scale_ups").add();
    // Initialize fresh services (pool services are replica-safe and
    // initialize synchronously today, but honor the async contract), then
    // move only the flows whose arc the new replicas took over.
    Status ready = co_await initialize_services(std::move(fresh_services));
    if (!ready.is_ok()) co_return ready;
    co_return co_await rebalance_flows(set_key);
  }

  // Scale-down: retire the newest replicas first (consistent hashing
  // moves only their arcs), drain their flows onto the survivors, then
  // park them.
  const std::vector<std::shared_ptr<MiddleboxInstance>> victims(
      set->replicas.begin() + target, set->replicas.end());
  for (const auto& victim : victims) {
    set->ring.remove_node(victim->replica_label);
  }
  telemetry().counter("scaleout.scale_downs").add();
  Status status = co_await rebalance_flows(set_key);
  set = find_replica_set(tenant, type);
  if (set == nullptr) co_return status;
  for (const auto& victim : victims) {
    bool busy = false;
    for (const auto& [cookie, label] : set->assignments) {
      busy = busy || label == victim->replica_label;
    }
    if (busy) {
      // A migration failed and left a flow behind: the victim must keep
      // serving it. Put its arcs back so new flows can land too.
      set->ring.add_node(victim->replica_label);
      if (status.is_ok()) {
        status = error(ErrorCode::kFailedPrecondition,
                       "replica " + victim->replica_label +
                           " still owns flows; not parked");
      }
      continue;
    }
    park_replica(*set, victim);
  }
  co_return status;
}

void StormPlatform::attach_with_chain(
    const std::string& vm_name, const std::string& volume_name,
    std::vector<ServiceSpec> chain,
    std::function<void(Result<DeploymentHandle>)> done) {
  sim::spawn(deploy(vm_name, volume_name, std::move(chain), std::move(done)));
}

sim::Task<> StormPlatform::deploy(
    std::string vm_name, std::string volume_name,
    std::vector<ServiceSpec> chain,
    std::function<void(Result<DeploymentHandle>)> done) {
  // Deployment provisions VMs and installs rules across many partitions;
  // run the whole control-plane sequence at window barriers (inline on a
  // single-partition simulator).
  sim::Simulator& simulator = cloud_.simulator();
  co_await sim::barrier(simulator);
  cloud::Vm* vm = cloud_.find_vm(vm_name);
  if (vm == nullptr) {
    done(error(ErrorCode::kNotFound, "no VM " + vm_name));
    co_return;
  }
  auto located = cloud_.locate_volume(volume_name);
  if (!located.is_ok()) {
    done(located.status());
    co_return;
  }
  block::Volume* volume = located.value().first;

  auto deployment = std::make_unique<Deployment>();
  Deployment* dep = deployment.get();
  dep->vm = vm_name;
  dep->volume = volume_name;
  dep->iqn = volume->iqn();
  dep->splice.cookie = next_cookie_++;
  dep->splice.vm_port = allocate_flow_port();
  dep->splice.host_storage_ip = cloud_.compute(vm->host_index()).storage_ip();
  dep->splice.target_ip = cloud_.storage(located.value().second).storage_ip();
  dep->splice.gateways = splicer_.tenant_gateways(vm->tenant());
  // The deployment's trace span covers provision -> splice -> login; it
  // stays open until detach so a dump shows which chains are live.
  dep->attach_span =
      telemetry().begin_span("deploy." + vm_name + ":" + volume_name);

  std::vector<StorageService*> fresh_services;
  Status provisioned =
      provision_chain(*dep, *vm, *volume, chain, fresh_services);
  if (!provisioned.is_ok()) {
    rollback_deployment(dep);  // not registered yet: no rules to tear out
    done(provisioned);
    co_return;
  }
  telemetry().add_event(dep->attach_span, "boxes_provisioned",
                        dep->boxes.size());
  deployments_.push_back(std::move(deployment));

  // The one failure exit from here on: leave nothing half-spliced.
  auto fail = [&](const Status& status) {
    telemetry().record_event("deploy " + dep->vm + ":" + dep->volume +
                             " failed: " + status.to_string());
    rollback_deployment(dep);
    done(status);
  };
  // Let services finish async setup (replication attaches its replicas),
  // then program the network and attach the volume.
  Status ready = co_await initialize_services(std::move(fresh_services));
  if (!ready.is_ok()) {
    fail(ready);
    co_return;
  }
  wire_relays(*dep);
  splicer_.install_gateway_rules(dep->splice);
  splicer_.install_capture_rules(dep->splice);
  sdn_.install_chain_rules(dep->splice);
  telemetry().add_event(dep->attach_span, "rules_installed");

  // Atomic attachment (§III-A): under the host's attach lock, the NAT
  // redirect exists only while this login connects. The lock goes with
  // this frame, after `done` has run.
  co_await sim::barrier(simulator);
  cloud::ComputeHost& host = cloud_.compute(vm->host_index());
  sim::Mutex::Guard host_lock = co_await host.attach_lock().lock();
  auto plan = cloud_.prepare_attach(*vm, volume_name);
  if (!plan.is_ok()) {
    fail(plan.status());
    co_return;
  }
  splicer_.install_host_redirect(host, dep->splice);
  Status login = co_await cloud_.login(plan.value(), dep->splice.vm_port);
  // Host-local by design: the login completes on the host's partition,
  // which is exactly where the NAT rules live.
  splicer_.remove_host_redirect(host, dep->splice);
  co_await sim::barrier(simulator);
  if (!login.is_ok()) {
    fail(login);
    co_return;
  }
  dep->attachment = cloud_.register_attachment(plan.value());
  const std::uint64_t cookie = dep->splice.cookie;
  telemetry().add_event(dep->attach_span, "attached");
  telemetry().record_event("deploy " + dep->vm + ":" + dep->volume +
                           " attached (cookie " + std::to_string(cookie) +
                           ")");
  done(Result<DeploymentHandle>(DeploymentHandle(this, cookie)));
}

Status StormPlatform::provision_chain(
    Deployment& dep, cloud::Vm& vm, block::Volume& volume,
    const std::vector<ServiceSpec>& chain,
    std::vector<StorageService*>& fresh_services) {
  // Hops carrying a `replicas` stanza draw a pooled box from the tenant's
  // replica set instead of building a private one; only freshly built
  // service instances go through initialize() (a pooled instance serving
  // its second flow was initialized when the pool was built).
  for (const ServiceSpec& spec : chain) {
    if (spec.replicas.enabled) {
      auto pooled = acquire_replica(dep, spec, vm.tenant(), vm.host_index(),
                                    &fresh_services);
      if (!pooled.is_ok()) return pooled.status();
      dep.splice.chain.push_back(
          Hop{pooled.value()->vm, pooled.value()->spec.relay});
      dep.boxes.push_back(std::move(pooled).take());
      continue;
    }
    std::string label =
        "mb-" + std::to_string(next_mb_id_++) + "-" + spec.type;
    auto box = build_box(spec, label, vm.tenant(), vm.host_index(), &volume);
    if (!box.is_ok()) return box.status();
    if (spec.recovery == RecoveryPolicyKind::kStandby) {
      // Provision the warm spare now: a standby built after the failure
      // would add VM boot time to MTTR, which defeats the policy.
      auto standby = build_box(spec, label + "-sb", vm.tenant(),
                               vm.host_index(), &volume);
      if (!standby.is_ok()) return standby.status();
      box.value()->standby = std::move(standby).take();
    }
    if (box.value()->service) {
      fresh_services.push_back(box.value()->service.get());
    }
    if (box.value()->standby && box.value()->standby->service) {
      fresh_services.push_back(box.value()->standby->service.get());
    }
    dep.splice.chain.push_back(Hop{box.value()->vm, box.value()->spec.relay});
    dep.boxes.push_back(std::move(box).take());
  }
  return Status::ok();
}

sim::Task<Status> StormPlatform::initialize_services(
    std::vector<StorageService*> services) {
  sim::Join join;
  for (StorageService* service : services) service->initialize(join.add());
  co_return co_await join;
}

void StormPlatform::apply_policy(
    const TenantPolicy& policy,
    std::function<void(Result<std::vector<DeploymentHandle>>)> done) {
  Status valid = validate_policy(policy);
  if (!valid.is_ok()) {
    done(valid);
    return;
  }
  if (policy.qos.enabled) set_tenant_qos(policy.tenant, policy.qos);
  sim::spawn(sim::then(attach_volumes(policy.volumes), std::move(done)));
}

sim::Task<Result<std::vector<DeploymentHandle>>>
StormPlatform::attach_volumes(std::vector<VolumePolicy> volumes) {
  std::vector<DeploymentHandle> handles;
  for (const VolumePolicy& vp : volumes) {
    auto result = co_await sim::until<Result<DeploymentHandle>>(
        [&](auto done) {
          attach_with_chain(vp.vm, vp.volume, vp.chain, std::move(done));
        });
    if (!result.is_ok()) co_return result.status();
    handles.push_back(result.value());
  }
  co_return handles;
}

void StormPlatform::set_tenant_qos(const std::string& tenant,
                                   const QosSpec& qos) {
  GatewayPair& gateways = splicer_.tenant_gateways(tenant);
  if (!qos.enabled || qos.rate_bytes_per_sec == 0) {
    gateways.ingress->set_rate_limiter(nullptr);
    qos_buckets_.erase(tenant);
    return;
  }
  // The bucket runs where it paces: the ingress gateway's partition.
  // Its counters live in that partition's registry for the same reason
  // (hot-path updates stay thread-confined; the merged dump sums them).
  sim::Executor gw_exec = gateways.ingress->executor();
  auto bucket = std::make_unique<net::TokenBucket>(
      gw_exec, qos.rate_bytes_per_sec, qos.burst_bytes);
  obs::Registry& reg = gw_exec.telemetry();
  bucket->bind_telemetry(&reg.counter("qos." + tenant + ".throttled_bytes"),
                         &reg.gauge("qos." + tenant + ".queue_bytes"));
  // The bucket paces the ingress gateway's FORWARD path: every spliced
  // flow of the tenant funnels through it, locally-terminated traffic
  // (relay pseudo-endpoints) is exempt.
  gateways.ingress->set_rate_limiter(bucket.get());
  telemetry().record_event("qos: tenant " + tenant + " limited to " +
                           std::to_string(qos.rate_bytes_per_sec) +
                           " B/s (burst " + std::to_string(qos.burst_bytes) +
                           ")");
  qos_buckets_[tenant] = std::move(bucket);
}

const net::TokenBucket* StormPlatform::tenant_qos(
    const std::string& tenant) const {
  auto it = qos_buckets_.find(tenant);
  return it == qos_buckets_.end() ? nullptr : it->second.get();
}

void StormPlatform::teardown_rules(Deployment* dep) {
  splicer_.remove_all_rules(dep->splice);
  sdn_.remove_chain_rules(dep->splice.cookie);
  // The host redirect is cookie-tagged too; the attach removes it right
  // after login, but a failure before that point must not leak it.
  cloud::Vm* vm = cloud_.find_vm(dep->vm);
  if (vm != nullptr) {
    cloud_.compute(vm->host_index())
        .node()
        .nat()
        .remove_rules_by_cookie(dep->splice.cookie,
                                /*flush_conntrack=*/true);
  }
}

void StormPlatform::rollback_deployment(Deployment* dep) {
  auto registered =
      std::find_if(deployments_.begin(), deployments_.end(),
                   [dep](const auto& owned) { return owned.get() == dep; });
  // Rules go in only once the deployment is registered.
  if (registered != deployments_.end()) teardown_rules(dep);
  release_replica_flows(*dep);
  // Drop the chain's health record with it: a stale entry would keep
  // probing box pointers the erase below is about to destroy.
  health_->forget_deployment(dep->splice.cookie);
  telemetry().end_span(dep->attach_span);
  if (registered != deployments_.end()) {
    deployments_.erase(registered);  // destroys relays (ActiveRelay::shutdown)
  }
}

bool StormPlatform::deployment_quiescent(const Deployment& dep) const {
  if (dep.attachment.initiator != nullptr &&
      dep.attachment.initiator->outstanding() != 0) {
    return false;
  }
  for (const auto& box : dep.boxes) {
    if (box->active_relay != nullptr) {
      // A pooled relay carries other tenants' flows concurrently; only
      // *this* flow's session must be empty for this deployment to count
      // as drained.
      if (box->pooled
              ? !box->active_relay->session_quiescent(dep.splice.vm_port)
              : !box->active_relay->quiescent()) {
        return false;
      }
    }
    if (box->passive_relay != nullptr && !box->passive_relay->quiescent()) {
      return false;
    }
  }
  return true;
}

Status StormPlatform::detach_deployment(std::uint64_t cookie) {
  Deployment* dep = deployment_by_cookie(cookie);
  if (dep == nullptr) {
    return error(ErrorCode::kNotFound, "no deployment for handle");
  }
  if (dep->state == DeploymentState::kDraining) {
    return error(ErrorCode::kFailedPrecondition, "detach already draining");
  }
  sim::spawn(drain_and_detach(dep));
  return Status::ok();
}

sim::Task<> StormPlatform::drain_and_detach(Deployment* dep) {
  dep->state = DeploymentState::kDraining;
  if (dep->attachment.initiator != nullptr) {
    dep->attachment.initiator->set_admission(false);
  }
  telemetry().add_event(dep->attach_span, "drain_begin");
  const std::uint64_t cookie = dep->splice.cookie;
  const sim::Time deadline = cloud_.simulator().now() + drain_timeout_;
  Status drained;
  for (;;) {
    // The quiescence probe reads initiator and relay state across
    // partitions; hop from the control partition's timer to the barrier
    // before looking (inline on a single-partition simulator).
    co_await sim::barrier(cloud_.simulator());
    dep = deployment_by_cookie(cookie);
    if (dep == nullptr) co_return;  // torn down while the poll was pending
    if (deployment_quiescent(*dep)) {
      telemetry().add_event(dep->attach_span, "drained");
      break;
    }
    if (cloud_.simulator().now() >= deadline) {
      drained = error(ErrorCode::kDeadlineExceeded, "drain timeout");
      break;
    }
    co_await sim::sleep(cloud_.control_executor(), kDrainPollInterval);
  }
  if (!drained.is_ok()) {
    telemetry().record_event("drain " + dep->vm + ":" + dep->volume +
                             " incomplete (" + drained.to_string() +
                             "); forcing detach");
  }
  telemetry().record_event("detach " + dep->vm + ":" + dep->volume +
                           " (cookie " + std::to_string(cookie) + ")");
  rollback_deployment(dep);  // rules out, relays destroyed
}

void StormPlatform::rebuild_chain(Deployment& deployment) {
  deployment.splice.chain.clear();
  for (auto& box : deployment.boxes) {
    deployment.splice.chain.push_back(Hop{box->vm, box->spec.relay});
  }
}

Status StormPlatform::promote_standby(Deployment& dep, std::size_t position) {
  if (position >= dep.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance* failed = dep.boxes[position].get();
  if (failed->active_relay == nullptr) {
    return error(ErrorCode::kFailedPrecondition,
                 "standby promotion needs an active relay");
  }
  if (failed->standby == nullptr ||
      failed->standby->active_relay == nullptr) {
    return error(ErrorCode::kFailedPrecondition,
                 "no warm standby for " + failed->vm->name());
  }
  std::unique_ptr<MiddleboxInstance> standby = std::move(failed->standby);

  // 1. NVRAM handoff: snapshot the dead relay's journal — it survives the
  //    VM's power loss — then silence whatever is left of the relay.
  RelayJournalSnapshot snapshot = failed->active_relay->export_journal();
  if (!failed->active_relay->crashed()) failed->active_relay->crash();

  // 2. Re-point the chain at the spare: capture NAT on the standby VM,
  //    then one atomic steering-rule swap per switch.
  dep.splice.chain[position] = Hop{standby->vm, standby->spec.relay};
  splicer_.refresh_capture_rules(dep.splice);
  sdn_.reprogram_chain(dep.splice);

  // 3. Replay the journal into the standby: recreates the sessions,
  //    re-dials their upstream legs, replays login + unacknowledged tail.
  standby->active_relay->adopt_sessions(std::move(snapshot));

  // 4. Nudge the initiator to re-dial now rather than at watchdog expiry
  //    (its reconnection is adopted by the standby's pseudo-server).
  if (dep.attachment.initiator != nullptr) dep.attachment.initiator->kick();

  telemetry().add_event(dep.attach_span, "standby_promoted", position);
  telemetry().record_event("failover " + dep.vm + ":" + dep.volume +
                           ": promoted " + standby->vm->name() +
                           " in place of " + failed->vm->name());
  dep.boxes[position] = std::move(standby);  // destroys the failed box
  return Status::ok();
}

Status StormPlatform::bypass_middlebox(Deployment& dep,
                                       std::size_t position) {
  if (position >= dep.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance* box = dep.boxes[position].get();
  if (box->pooled) {
    return error(ErrorCode::kFailedPrecondition,
                 "replica " + box->replica_label +
                     " is shared by other flows: bypass would sever them");
  }
  if (box->service != nullptr && box->service->confidentiality_critical()) {
    return error(ErrorCode::kPermissionDenied,
                 "service '" + box->spec.type +
                     "' is confidentiality-critical: bypass would fail "
                     "open");
  }
  // Silence the box (it may be half-dead rather than fully gone), then
  // route around it and let the initiator re-dial the shortened chain.
  if (box->active_relay != nullptr) {
    if (!box->active_relay->crashed()) box->active_relay->crash();
  } else {
    box->vm->node().set_down(true);
  }
  telemetry().add_event(dep.attach_span, "bypassed", position);
  telemetry().record_event("failover " + dep.vm + ":" + dep.volume +
                           ": bypassing " + box->vm->name());
  dep.boxes.erase(dep.boxes.begin() +
                  static_cast<std::ptrdiff_t>(position));
  rebuild_chain(dep);
  splicer_.refresh_capture_rules(dep.splice);
  sdn_.reprogram_chain(dep.splice);
  if (dep.attachment.initiator != nullptr) dep.attachment.initiator->kick();
  return Status::ok();
}

Status StormPlatform::fence_deployment(Deployment& dep,
                                       const std::string& reason) {
  if (dep.state == DeploymentState::kFenced) return Status::ok();
  dep.state = DeploymentState::kFenced;
  telemetry().add_event(dep.attach_span, "fenced");
  telemetry().record_event("fence " + dep.vm + ":" + dep.volume + ": " +
                           reason);
  if (dep.attachment.initiator != nullptr) {
    // Fail closed: no new commands enter, in-flight ones error back to
    // the caller for retry at a higher layer.
    dep.attachment.initiator->set_admission(false);
    dep.attachment.initiator->fail_outstanding(
        error(ErrorCode::kUnavailable, "deployment fenced: " + reason));
  }
  // Quiesce the data path and pull the rules. Nothing may keep flowing
  // around the dead box — that would be a silent bypass. A pooled relay
  // serves other tenants' healthy flows, so only this flow's session is
  // dropped; a private relay is shut down whole.
  for (auto& box : dep.boxes) {
    if (box->active_relay != nullptr) {
      if (box->pooled) {
        box->active_relay->drop_session(dep.splice.vm_port);
      } else {
        box->active_relay->shutdown();
      }
    }
    if (box->standby != nullptr && box->standby->active_relay != nullptr) {
      box->standby->active_relay->shutdown();
    }
  }
  teardown_rules(&dep);
  return Status::ok();
}

Status StormPlatform::crash_middlebox(Deployment& deployment,
                                      std::size_t position) {
  // Chaos injection often fires from a scheduled event on some
  // partition; the crash touches the box's partition, so defer to the
  // barrier there and report accepted (the health manager observes the
  // crash on its next probe either way).
  if (cloud_.simulator().partition_count() > 1 &&
      sim::Simulator::in_partition_context()) {
    const std::uint64_t cookie = deployment.splice.cookie;
    cloud_.simulator().at_barrier([this, cookie, position] {
      Deployment* dep = deployment_by_cookie(cookie);
      if (dep != nullptr) crash_middlebox(*dep, position);
    });
    return Status::ok();
  }
  if (position >= deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance* box = deployment.boxes[position].get();
  if (box->active_relay) {
    box->active_relay->crash();
  } else {
    telemetry().record_event("mb " + box->vm->name() + ": node down");
    box->vm->node().set_down(true);
  }
  return Status::ok();
}

Status StormPlatform::restart_middlebox(Deployment& deployment,
                                        std::size_t position) {
  if (cloud_.simulator().partition_count() > 1 &&
      sim::Simulator::in_partition_context()) {
    const std::uint64_t cookie = deployment.splice.cookie;
    cloud_.simulator().at_barrier([this, cookie, position] {
      Deployment* dep = deployment_by_cookie(cookie);
      if (dep != nullptr) restart_middlebox(*dep, position);
    });
    return Status::ok();
  }
  if (position >= deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance* box = deployment.boxes[position].get();
  if (box->active_relay) {
    box->active_relay->restart();
  } else {
    telemetry().record_event("mb " + box->vm->name() + ": node up");
    box->vm->node().set_down(false);
  }
  return Status::ok();
}

Deployment* StormPlatform::deployment_by_cookie(std::uint64_t cookie) {
  for (auto& deployment : deployments_) {
    if (deployment->splice.cookie == cookie) return deployment.get();
  }
  return nullptr;
}

DeploymentHandle StormPlatform::find_deployment(const std::string& vm,
                                                const std::string& volume) {
  for (auto& deployment : deployments_) {
    if (deployment->vm == vm && deployment->volume == volume) {
      return DeploymentHandle(this, deployment->splice.cookie);
    }
  }
  return DeploymentHandle();
}

Status StormPlatform::add_middlebox(Deployment& deployment,
                                    const ServiceSpec& spec,
                                    std::size_t position) {
  if (spec.relay == RelayMode::kActive) {
    return error(ErrorCode::kInvalidArgument,
                 "cannot insert an active relay into a live flow "
                 "(it would cut the TCP stream)");
  }
  if (position > deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  cloud::Vm* vm = cloud_.find_vm(deployment.vm);
  auto box = build_box(spec,
                       "mb-" + std::to_string(next_mb_id_++) + "-" + spec.type,
                       vm->tenant(), vm->host_index(), nullptr);
  if (!box.is_ok()) return box.status();
  if (box.value()->spec.relay == RelayMode::kPassive) {
    start_passive_relay(*box.value(), deployment);
  }
  deployment.boxes.insert(
      deployment.boxes.begin() + static_cast<std::ptrdiff_t>(position),
      std::move(box).take());
  rebuild_chain(deployment);
  sdn_.reprogram_chain(deployment.splice);
  telemetry().add_event(deployment.attach_span, "box_added",
                        deployment.boxes.size());
  return Status::ok();
}

Status StormPlatform::remove_middlebox(Deployment& deployment,
                                       std::size_t position) {
  if (position >= deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance& box = *deployment.boxes[position];
  if (box.spec.relay == RelayMode::kActive) {
    return error(ErrorCode::kInvalidArgument,
                 "cannot remove an active relay from a live flow");
  }
  deployment.boxes.erase(deployment.boxes.begin() +
                         static_cast<std::ptrdiff_t>(position));
  rebuild_chain(deployment);
  sdn_.reprogram_chain(deployment.splice);
  telemetry().add_event(deployment.attach_span, "box_removed",
                        deployment.boxes.size());
  return Status::ok();
}

}  // namespace storm::core
