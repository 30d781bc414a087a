// Chain health manager suite: heartbeat detection, the three recovery
// policies (standby promotion with NVRAM journal handoff, fail-open
// bypass, fail-closed fencing), TCP-stall fast-path detection, and the
// deterministic failover chaos run whose telemetry JSON — MTTR included
// — must be byte-identical across identically seeded runs.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/active_relay.hpp"
#include "core/health_manager.hpp"
#include "core/platform.hpp"
#include "services/registry.hpp"
#include "sim/fault.hpp"
#include "testutil.hpp"

namespace storm {
namespace {

using core::DeploymentHandle;
using core::RecoveryPolicyKind;
using core::RelayHealth;
using core::RelayMode;
using core::ServiceSpec;

class HealthTest : public ::testing::Test {
 protected:
  HealthTest() : cloud_(sim_, cloud::CloudConfig{}), platform_(cloud_) {
    services::register_builtin_services(platform_);
  }

  DeploymentHandle deploy(const std::string& vm, const std::string& vol,
                          std::vector<ServiceSpec> chain) {
    Status status = error(ErrorCode::kIoError, "unset");
    DeploymentHandle deployment;
    platform_.attach_with_chain(vm, vol, std::move(chain),
                                [&](Result<DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) deployment = r.value();
                                });
    sim_.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return deployment;
  }

  static ServiceSpec noop_spec(RelayMode relay, RecoveryPolicyKind recovery) {
    ServiceSpec spec;
    spec.type = "noop";
    spec.relay = relay;
    spec.recovery = recovery;
    return spec;
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
};

// ------------------------------------------------------------- detection

TEST_F(HealthTest, HealthyChainStaysAliveAndSuspectRecovers) {
  cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  DeploymentHandle dep =
      deploy("vm", "vol", {noop_spec(RelayMode::kActive,
                                     RecoveryPolicyKind::kFence)});

  platform_.health().start();
  sim_.run_for(sim::milliseconds(50));
  EXPECT_EQ(platform_.health().status(dep.cookie(), 0), RelayHealth::kAlive);
  EXPECT_EQ(platform_.health().failures_detected(), 0u);

  // One missed heartbeat makes the relay suspect, not failed; answering
  // the next probe clears it. Flip the VM down across exactly one probe.
  dep.mb_vm(0)->node().set_down(true);
  sim_.run_for(platform_.health().config().heartbeat_interval);
  EXPECT_EQ(platform_.health().status(dep.cookie(), 0),
            RelayHealth::kSuspect);
  dep.mb_vm(0)->node().set_down(false);
  sim_.run_for(2 * platform_.health().config().heartbeat_interval);
  EXPECT_EQ(platform_.health().status(dep.cookie(), 0), RelayHealth::kAlive);
  EXPECT_EQ(platform_.health().failures_detected(), 0u);
  platform_.health().stop();
}

// ------------------------------------------------------ fencing (kFence)

TEST_F(HealthTest, FenceFailsClosedAndErrorsInFlightCommands) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  DeploymentHandle dep =
      deploy("vm", "vol", {noop_spec(RelayMode::kActive,
                                     RecoveryPolicyKind::kFence)});
  dep.attachment()->initiator->set_recovery({.enabled = true});
  platform_.health().start();

  // A write in flight when the relay dies: fencing must error it back
  // rather than hang it forever.
  int state = 0;
  vm.disk()->write(0, Bytes(64 * block::kSectorSize, 0xAB),
                   [&](Status s) { state = s.is_ok() ? 1 : -1; });
  sim_.run_for(sim::microseconds(200));
  ASSERT_TRUE(dep.crash_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(50));

  EXPECT_EQ(state, -1) << "in-flight write must error, not hang";
  EXPECT_TRUE(dep.fenced());
  EXPECT_EQ(platform_.health().failures_detected(), 1u);
  EXPECT_EQ(platform_.health().last_outcome(dep.cookie()),
            RelayHealth::kFenced);
  EXPECT_EQ(platform_.health().status(dep.cookie(), 0),
            RelayHealth::kFenced);

  // Fail closed: nothing is admitted afterwards either.
  state = 0;
  vm.disk()->write(64, Bytes(block::kSectorSize, 0xCD),
                   [&](Status s) { state = s.is_ok() ? 1 : -1; });
  sim_.run_for(sim::milliseconds(5));
  EXPECT_EQ(state, -1);

  // The failure dumped the flight recorder and counted itself.
  EXPECT_EQ(sim_.telemetry().counter("health.fences").value(), 1u);
  EXPECT_EQ(sim_.telemetry().counter("health.failures").value(), 1u);
  platform_.health().stop();
}

// ------------------------------------------------------- bypass (kBypass)

TEST_F(HealthTest, BypassRoutesAroundDeadMonitorBox) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  // Two boxes: an active noop (fenced on failure) fronted by a passive
  // monitor-class box that is allowed to fail open.
  DeploymentHandle dep = deploy(
      "vm", "vol",
      {noop_spec(RelayMode::kPassive, RecoveryPolicyKind::kBypass),
       noop_spec(RelayMode::kActive, RecoveryPolicyKind::kFence)});
  ASSERT_EQ(dep.chain_length(), 2u);
  dep.attachment()->initiator->set_recovery({.enabled = true});
  platform_.health().start();

  Bytes data = testutil::pattern_bytes(32 * block::kSectorSize);
  bool ok = false;
  vm.disk()->write(0, data, [&](Status s) { ok = s.is_ok(); });
  sim_.run_for(sim::milliseconds(20));
  ASSERT_TRUE(ok);

  // Kill the monitor box: the chain must shrink around it.
  ASSERT_TRUE(dep.crash_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(100));
  EXPECT_EQ(dep.chain_length(), 1u);
  EXPECT_FALSE(dep.fenced());
  EXPECT_EQ(platform_.health().last_outcome(dep.cookie()),
            RelayHealth::kBypassed);

  // The shortened chain still carries reads and writes.
  Bytes data2 = testutil::pattern_bytes(32 * block::kSectorSize, 7);
  ok = false;
  vm.disk()->write(32, data2, [&](Status s) { ok = s.is_ok(); });
  sim_.run_for(sim::milliseconds(100));
  EXPECT_TRUE(ok) << "writes must flow through the bypassed chain";
  Bytes got;
  vm.disk()->read(0, 32, [&](Status s, Bytes d) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    got = std::move(d);
  });
  sim_.run_for(sim::milliseconds(50));
  EXPECT_EQ(got, data);
  EXPECT_EQ(sim_.telemetry().counter("health.bypasses").value(), 1u);
  platform_.health().stop();
}

TEST_F(HealthTest, BypassIsRejectedAtDeployTimeForConfidentialityServices) {
  cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  for (const std::string& type :
       {std::string("encryption"), std::string("stream_cipher")}) {
    ServiceSpec spec;
    spec.type = type;
    spec.relay = type == "stream_cipher" ? RelayMode::kPassive
                                         : RelayMode::kActive;
    spec.recovery = RecoveryPolicyKind::kBypass;
    Status status = Status::ok();
    platform_.attach_with_chain(
        "vm", "vol", {spec},
        [&](Result<DeploymentHandle> r) { status = r.status(); });
    sim_.run();
    EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied)
        << type << ": " << status.to_string();
  }
  // Policy-file parsing refuses it too, before any VM is provisioned.
  auto parsed = core::parse_policy(
      "tenant t\nvolume vm vol\n"
      "  service encryption relay=active recovery=bypass\n");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(HealthTest, BackpressureStallIsNotAFailure) {
  // A chain throttled by flow control looks idle, not dead: the relay
  // answers heartbeats and the initiator sits in zero-window persist
  // (which never burns retransmission retries), so the health manager
  // must not fence a healthy-but-paused deployment.
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  ServiceSpec spec = noop_spec(RelayMode::kActive, RecoveryPolicyKind::kFence);
  spec.params["journal_hwm_kb"] = "32";
  spec.params["journal_lwm_kb"] = "8";
  DeploymentHandle dep = deploy("vm", "vol", {spec});
  ASSERT_TRUE(dep.valid());
  platform_.health().start();

  // Backend dark for 300 ms of sim time with four 64 KiB writes kept in
  // flight: the relay hits its watermark and pauses ingress.
  cloud_.storage(0).node().set_down(true);
  sim_.schedule_in(sim::milliseconds(300),
             [&] { cloud_.storage(0).node().set_down(false); });
  constexpr int kWrites = 12;
  constexpr std::uint32_t kSectors = 128;
  int completed = 0, failed = 0, next = 0;
  std::function<void()> issue = [&] {
    const int i = next++;
    vm.disk()->write(
        static_cast<std::uint64_t>(i) * kSectors,
        Bytes(kSectors * block::kSectorSize,
              static_cast<std::uint8_t>(i + 1)),
        [&](Status s) {
          ++completed;
          if (!s.is_ok()) ++failed;
          if (next < kWrites) issue();
        });
  };
  for (int i = 0; i < 4; ++i) issue();

  sim_.run_until(sim::milliseconds(200));
  ASSERT_GE(dep.active_relay(0)->paused_directions(), 1u)
      << "test must actually exercise the paused state";
  EXPECT_EQ(platform_.health().status(dep.cookie(), 0), RelayHealth::kAlive);
  EXPECT_EQ(platform_.health().failures_detected(), 0u);

  sim_.run_for(sim::seconds(3));  // heartbeats re-arm forever; bound the run
  EXPECT_EQ(completed, kWrites);
  EXPECT_EQ(failed, 0);
  EXPECT_FALSE(dep.fenced()) << "backpressure misread as a failure";
  EXPECT_EQ(platform_.health().failures_detected(), 0u);
  EXPECT_EQ(platform_.health().status(dep.cookie(), 0), RelayHealth::kAlive);
  platform_.health().stop();
}

// ------------------------------------------- standby promotion (kStandby)

struct FailoverOutcome {
  std::string trace;        // FaultPlan event trace
  std::string telemetry;    // full registry JSON (spans included)
  Bytes image;              // the final volume image
  int failed_writes = 0;
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t mttr_count = 0;
  std::int64_t mttr_ns = 0;
  std::int64_t detect_ns = 0;
  RelayHealth outcome = RelayHealth::kAlive;
  std::string first_error;
  // Journal-engine parity: the handoff must read the dead box's NVRAM
  // segments (a replay on its journal device) and seed the standby's own
  // journal device with the adopted records.
  std::uint64_t failed_journal_replays = 0;
  std::uint64_t standby_journal_seq = 0;
};

/// One full failover chaos run: active-relay chain with a warm standby,
/// sustained writes, middle-box power failure at a seeded instant. The
/// health manager must detect the death, promote the spare (journal
/// handoff + atomic rule swap) and restore the data path with zero
/// acknowledged-write loss.
FailoverOutcome run_failover(std::uint64_t seed) {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);
  sim::FaultPlan plan(sim, seed);

  cloud::Vm& vm = cloud.create_vm("vm", "t", 0);
  if (!cloud.create_volume("vol", 40'000).is_ok()) return {};
  ServiceSpec spec;
  spec.type = "noop";
  spec.relay = RelayMode::kActive;
  spec.recovery = RecoveryPolicyKind::kStandby;
  Status status = error(ErrorCode::kIoError, "unset");
  DeploymentHandle dep;
  platform.attach_with_chain("vm", "vol", {spec},
                             [&](Result<DeploymentHandle> r) {
                               status = r.status();
                               if (r.is_ok()) dep = r.value();
                             });
  sim.run();
  if (!status.is_ok() || !dep.valid()) return {};
  if (dep.standby_relay(0) == nullptr) return {};
  // Promotion destroys the failed box; remember its VM name now so we can
  // read its journal-engine telemetry after the run.
  const std::string failed_vm = dep.mb_vm(0)->name();
  dep.attachment()->initiator->set_recovery({.enabled = true});
  platform.health().start();

  constexpr int kWrites = 20;
  constexpr std::uint32_t kSectors = 16;  // 8 KB each, distinct LBAs
  FailoverOutcome out;
  int completed = 0;
  // Sustained writes, one every 2 ms; the relay dies at t=7ms — between
  // writes 3 and 4 — so acknowledged bursts sit in its journal and
  // in-flight ones span the failover window.
  for (int i = 0; i < kWrites; ++i) {
    sim.schedule_in(sim::milliseconds(2) * i, [&, i] {
      Bytes data = testutil::pattern_bytes(
          kSectors * block::kSectorSize, static_cast<std::uint8_t>(i + 1));
      vm.disk()->write(static_cast<std::uint64_t>(i) * kSectors,
                       std::move(data), [&](Status s) {
                         ++completed;
                         if (!s.is_ok()) {
                           ++out.failed_writes;
                           if (out.first_error.empty()) {
                             out.first_error = s.to_string();
                           }
                         }
                       });
    });
  }
  plan.schedule(sim.now() + sim::milliseconds(7), "kill mb0",
                [&] { (void)dep.crash_middlebox(0); });

  sim.run_for(sim::seconds(1));
  platform.health().stop();
  sim.run();

  if (completed != kWrites) out.failed_writes += kWrites - completed;
  out.trace = plan.trace_string();
  out.failures = platform.health().failures_detected();
  out.recoveries = platform.health().recoveries_completed();
  out.outcome = platform.health().last_outcome(dep.cookie());
  out.mttr_count = sim.telemetry().histogram("health.mttr_ns").count();
  out.mttr_ns = sim.telemetry().histogram("health.mttr_ns").max();
  out.detect_ns = sim.telemetry().histogram("health.detect_ns").max();
  out.failed_journal_replays =
      sim.telemetry()
          .counter("relay." + failed_vm + ".journal.replays")
          .value();
  // After promotion the standby occupies the primary slot.
  if (core::ActiveRelay* promoted = dep.active_relay(0)) {
    out.standby_journal_seq = promoted->journal_device().appended_seq();
  }
  out.telemetry = sim.telemetry().to_json(/*include_spans=*/true);

  auto volume = cloud.storage(0).volumes().find_by_name("vol");
  out.image =
      volume.value()->disk().store().read_sync(0, kWrites * kSectors);
  return out;
}

TEST_F(HealthTest, StandbyPromotionPreservesEveryAcknowledgedWrite) {
  FailoverOutcome out = run_failover(0xF5);
  ASSERT_FALSE(out.image.empty());

  // The failure was detected and recovered exactly once, via promotion.
  EXPECT_EQ(out.failures, 1u);
  EXPECT_EQ(out.recoveries, 1u);
  EXPECT_EQ(out.outcome, RelayHealth::kStandbyPromoted);

  // Engine parity: export_journal on the dead box replayed its NVRAM
  // segments (its volatile index died with it), and the standby's own
  // journal device carries the adopted session's records.
  EXPECT_GE(out.failed_journal_replays, 1u)
      << "handoff must scan the dead box's segments, not trust RAM";
  EXPECT_GT(out.standby_journal_seq, 0u)
      << "standby promotion journaled nothing";

  // Detection within the heartbeat deadline (miss_threshold intervals,
  // plus one probe of phase slack).
  core::HealthConfig defaults;
  const std::int64_t deadline =
      static_cast<std::int64_t>(defaults.heartbeat_interval) *
      (defaults.miss_threshold + 1);
  EXPECT_GT(out.detect_ns, 0);
  EXPECT_LE(out.detect_ns, deadline);
  EXPECT_EQ(out.mttr_count, 1u);
  EXPECT_GT(out.mttr_ns, out.detect_ns) << "MTTR includes detection";

  // Zero acknowledged-write loss: every write completed OK and the final
  // image is byte-identical to what the tenant wrote.
  EXPECT_EQ(out.failed_writes, 0) << out.first_error;
  Bytes expected;
  for (int i = 0; i < 20; ++i) {
    Bytes chunk = testutil::pattern_bytes(16 * block::kSectorSize,
                                          static_cast<std::uint8_t>(i + 1));
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(out.image == expected);
}

TEST_F(HealthTest, FailoverIsDeterministicIncludingMttr) {
  FailoverOutcome first = run_failover(0xF5);
  FailoverOutcome second = run_failover(0xF5);

  // Same seed -> same fault trace, same final image, and byte-identical
  // telemetry JSON — counters, histograms (MTTR included), spans and the
  // flight-recorder tail all agree to the nanosecond.
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_TRUE(first.image == second.image);
  EXPECT_EQ(first.telemetry, second.telemetry);
  EXPECT_EQ(first.mttr_ns, second.mttr_ns);
  ASSERT_FALSE(first.telemetry.empty());
  EXPECT_NE(first.telemetry.find("health.mttr_ns"), std::string::npos);
}

// ------------------------------------------- scale-down monitor unhook

// Regression: parking a replica on scale-down must unregister its stall
// hook and drop it from liveness probing — chaos against the parked VM
// afterwards must neither fire callbacks into the retired relay nor
// count as a chain failure.
TEST_F(HealthTest, ScaleDownThenChaosNeverCallsIntoTheParkedReplica) {
  ServiceSpec spec = noop_spec(RelayMode::kActive,
                               RecoveryPolicyKind::kFence);
  spec.replicas.enabled = true;
  spec.replicas.count = 2;
  spec.replicas.min_count = 1;
  spec.replicas.max_count = 2;
  std::vector<cloud::Vm*> vms;
  std::vector<DeploymentHandle> deps;
  for (unsigned t = 0; t < 6; ++t) {
    vms.push_back(&cloud_.create_vm("vm" + std::to_string(t), "t", t % 4));
    ASSERT_TRUE(
        cloud_.create_volume("vol" + std::to_string(t), 20'000).is_ok());
    deps.push_back(deploy("vm" + std::to_string(t),
                          "vol" + std::to_string(t), {spec}));
  }
  cloud::Vm& vm = *vms[0];
  DeploymentHandle dep = deps[0];
  // Precondition for the regression: both replicas carry flows, so the
  // scale-down victim is a box some chain was monitoring.
  const core::ReplicaSet* pool = platform_.replica_set("t", "noop");
  ASSERT_NE(pool, nullptr);
  std::set<std::string> pinned;
  for (const auto& [cookie, label] : pool->assignments) pinned.insert(label);
  ASSERT_EQ(pinned.size(), 2u) << "flows must spread over both replicas";

  platform_.health().start();
  sim_.run_for(sim::milliseconds(20));
  EXPECT_EQ(platform_.health().monitored_chains(), 6u);
  const std::size_t hooked_before = platform_.health().hooked_stacks();
  ASSERT_GT(hooked_before, 0u);

  Status scale = error(ErrorCode::kIoError, "unset");
  platform_.scale_service_replicas("t", "noop", 1,
                                   [&](Status s) { scale = s; });
  sim_.run_for(sim::milliseconds(50));
  ASSERT_TRUE(scale.is_ok()) << scale.to_string();
  const core::ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->parked.size(), 1u);
  EXPECT_LT(platform_.health().hooked_stacks(), hooked_before)
      << "the victim's stall hook must be unregistered when it parks";

  // Chaos on the parked box: power-cycle its VM across several probe
  // windows. A monitor that still referenced it would declare a failure
  // (or worse, call a stall hook into the dead relay).
  cloud::Vm* parked_vm = set->parked[0]->vm;
  parked_vm->node().set_down(false);
  sim_.run_for(2 * platform_.health().config().heartbeat_interval);
  parked_vm->node().set_down(true);
  sim_.run_for(5 * platform_.health().config().heartbeat_interval);
  EXPECT_EQ(platform_.health().failures_detected(), 0u);
  EXPECT_FALSE(dep.fenced());

  // The surviving replica still carries the flow.
  int state = 0;
  vm.disk()->write(0, Bytes(8 * block::kSectorSize, 0xEE),
                   [&](Status s) { state = s.is_ok() ? 1 : -1; });
  sim_.run_for(sim::milliseconds(20));
  EXPECT_EQ(state, 1);

  // Detach forgets the chain: it leaves the monitored set immediately.
  EXPECT_TRUE(dep.detach().is_ok());
  sim_.run_for(sim::milliseconds(20));
  EXPECT_EQ(platform_.health().monitored_chains(), 5u);
  EXPECT_EQ(platform_.health().failures_detected(), 0u);
  platform_.health().stop();
}

}  // namespace
}  // namespace storm
