#include "core/passive_relay.hpp"

#include <cstring>

#include "common/log.hpp"
#include "net/node.hpp"

namespace storm::core {

PassiveRelay::PassiveRelay(cloud::Vm& mb_vm,
                           std::vector<StorageService*> services,
                           std::string volume, std::string_view iqn,
                           PassiveRelayCosts costs)
    : vm_(mb_vm), services_(std::move(services)),
      volume_(std::move(volume)), costs_(costs),
      scope_(mb_vm.node().executor().telemetry().scope("relay." +
                                                        mb_vm.name() + ".")),
      hop_(mb_vm.name()), trace_session_(obs::session_id(iqn)),
      ctx_(std::make_unique<HookContext>(*this)) {
  for (StorageService* service : services_) {
    if (service->requires_active_relay()) {
      throw std::invalid_argument(
          "service '" + service->name() + "' requires an active relay");
    }
    // No NVRAM on a packet-level relay: services get the executor and
    // scope but must keep recovery state elsewhere.
    service->bind_host(ServiceHost{vm_.node().executor(), scope_, nullptr});
  }
}

sim::Simulator& PassiveRelay::HookContext::simulator() {
  return relay_.vm_.node().simulator();
}

PassiveRelay::~PassiveRelay() {
  // Pending pump callbacks capture `this`; clear the hook so no new
  // packets are captured after teardown (chain rollback destroys boxes).
  vm_.node().set_forward_hook(nullptr);
}

void PassiveRelay::start() {
  vm_.node().set_forward_hook(
      [this](net::Packet& pkt) { return on_packet(pkt); });
}

bool PassiveRelay::on_packet(net::Packet& pkt) {
  ++packets_;
  packets_hooked_counter_.in(scope_).add();
  copied_bytes_.in(scope_).add(2 * pkt.payload.size());
  // Pure ACKs / control segments: pay the hook cost, then continue on
  // their way. Reordering a bare ACK ahead of held data is harmless.
  if (pkt.payload.empty()) {
    net::Packet copy = pkt;
    vm_.cpu().run(costs_.hook_per_packet, [this, copy]() mutable {
      vm_.node().emit_forward(std::move(copy));
    });
    return true;
  }

  const net::FourTuple key = pkt.four_tuple();
  StreamState& state = streams_[key];
  state.held.push_back(pkt);
  account_inbox(static_cast<std::ptrdiff_t>(pkt.payload.size()));
  state.inbox.push_back(pkt.payload);
  pump(key);
  return true;
}

void PassiveRelay::account_inbox(std::ptrdiff_t delta) {
  inbox_bytes_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(inbox_bytes_) + delta);
  if (inbox_bytes_ > peak_inbox_bytes_) {
    peak_inbox_bytes_ = inbox_bytes_;
    queue_peak_gauge_.in(scope_).set(static_cast<std::int64_t>(inbox_bytes_));
  }
  queue_bytes_gauge_.in(scope_).set(static_cast<std::int64_t>(inbox_bytes_));
}

void PassiveRelay::pump(const net::FourTuple& key) {
  auto it = streams_.find(key);
  if (it == streams_.end()) return;
  StreamState& state = it->second;
  if (state.busy || state.inbox.empty()) return;
  state.busy = true;
  Buf payload = std::move(state.inbox.front());
  state.inbox.pop_front();
  account_inbox(-static_cast<std::ptrdiff_t>(payload.size()));

  Direction dir = key.dst.port == iscsi::kIscsiPort
                      ? Direction::kToTarget
                      : Direction::kToInitiator;
  // Hook + two per-byte copies, then reassembly + services. Serialized
  // per stream so parser feeds keep arrival order even with >1 vCPU.
  sim::Duration cost =
      costs_.hook_per_packet +
      static_cast<sim::Duration>(costs_.copy_ns_per_byte *
                                 static_cast<double>(payload.size()));
  vm_.cpu().run(cost, [this, key, dir, payload = std::move(payload)]() mutable {
    auto sit = streams_.find(key);
    if (sit == streams_.end()) return;
    StreamState& st = sit->second;
    std::vector<iscsi::Pdu> pdus;
    Status status = st.parser.feed(std::move(payload), pdus);
    if (!status.is_ok()) {
      log_warn("passive-relay") << vm_.name() << ": parse error: "
                                << status.to_string() << "; flushing raw";
      // Fail open: forward the held packets untransformed.
      for (auto& held : st.held) vm_.node().emit_forward(std::move(held));
      st.held.clear();
      st.busy = false;
      pump(key);
      return;
    }
    sim::Duration service_cost = 0;
    for (auto& pdu : pdus) {
      ++pdus_;
      pdus_processed_counter_.in(scope_).add();
      trace_relay_pdu(vm_.node().executor().telemetry(), trace_session_,
                      hop_, dir, pdu, streams_.size());
      std::size_t before = iscsi::serialized_size(pdu);
      if (dir == Direction::kToTarget) {
        for (StorageService* service : services_) {
          service_cost += service->on_pdu(*ctx_, dir, pdu).cpu_cost;
        }
      } else {
        for (auto rit = services_.rbegin(); rit != services_.rend(); ++rit) {
          service_cost += (*rit)->on_pdu(*ctx_, dir, pdu).cpu_cost;
        }
      }
      Bytes wire = iscsi::serialize(pdu);
      if (wire.size() != before) {
        throw std::logic_error("passive relay service changed PDU size");
      }
      st.transformed.insert(st.transformed.end(), wire.begin(), wire.end());
    }
    auto finish = [this, key] {
      auto fit = streams_.find(key);
      if (fit == streams_.end()) return;
      drain(fit->second);
      fit->second.busy = false;
      pump(key);
    };
    if (service_cost > 0) {
      vm_.cpu().run(service_cost, finish);
    } else {
      finish();
    }
  });
}

void PassiveRelay::drain(StreamState& state) {
  // Emit held packets whose payload is fully covered by transformed
  // stream bytes, preserving the original packet boundaries (sizes are
  // unchanged, so TCP sequence bookkeeping stays intact end-to-end).
  while (!state.held.empty() &&
         state.transformed.size() >= state.held.front().payload.size()) {
    net::Packet pkt = std::move(state.held.front());
    state.held.pop_front();
    // COW: the inbox and any queued duplicates still reference the
    // original payload bytes; rewriting gets this packet its own copy.
    std::span<std::uint8_t> dst = pkt.payload.mutable_span();
    std::memcpy(dst.data(), state.transformed.data(), dst.size());
    state.transformed.erase(
        state.transformed.begin(),
        state.transformed.begin() +
            static_cast<std::ptrdiff_t>(pkt.payload.size()));
    // The payload just changed under the TCP checksum: recompute it, or
    // every transformed segment would be discarded as corrupt downstream.
    pkt.tcp.checksum = net::tcp_checksum(pkt);
    vm_.node().emit_forward(std::move(pkt));
  }
}

}  // namespace storm::core
