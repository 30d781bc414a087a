// Passive relay (paper §III-B): intercept forwarded packets with a
// kernel-hook + per-packet user/kernel copies (a netfilter-queue
// stand-in). Every data packet pays the hook cost and waits for service
// processing before moving to the next hop — the *source's* TCP ACKs also
// wait, which is exactly why the paper builds the active relay.
//
// Services under a passive relay must be pure in-place transforms that
// preserve PDU sizes (ciphers, monitors); consuming/injecting services
// need the active relay.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/service.hpp"
#include "iscsi/pdu.hpp"
#include "net/packet.hpp"
#include "obs/registry.hpp"

namespace storm::core {

struct PassiveRelayCosts {
  /// Kernel hook + syscall + context switch, per packet.
  sim::Duration hook_per_packet = sim::microseconds(2);
  /// Two user/kernel copies per payload byte (in and out).
  double copy_ns_per_byte = 0.6;
};

class PassiveRelay {
 public:
  /// `iqn` is the protected volume's: it names the flow's commands on
  /// their traces.
  PassiveRelay(cloud::Vm& mb_vm, std::vector<StorageService*> services,
               std::string volume, std::string_view iqn,
               PassiveRelayCosts costs = {});

  PassiveRelay(const PassiveRelay&) = delete;
  PassiveRelay& operator=(const PassiveRelay&) = delete;

  ~PassiveRelay();

  /// Install the FORWARD-chain hook on the middle-box VM.
  void start();

  std::uint64_t packets_hooked() const { return packets_; }
  std::uint64_t pdus_processed() const { return pdus_; }

  /// Payload bytes awaiting service processing across all streams. The
  /// passive relay needs no watermarks: held data packets stall the
  /// source's ACK clock, so this is inherently bounded by the flow's TCP
  /// window — but the gauge makes that bound observable alongside the
  /// active relay's.
  std::size_t queue_bytes() const { return inbox_bytes_; }
  std::size_t peak_queue_bytes() const { return peak_inbox_bytes_; }

  /// No packet or payload buffered in the hook and nothing mid-service —
  /// the drain protocol polls this before tearing rules.
  bool quiescent() const {
    for (const auto& [key, state] : streams_) {
      if (state.busy || !state.held.empty() || !state.inbox.empty()) {
        return false;
      }
    }
    return true;
  }

  const obs::Scope& scope() const { return scope_; }
  const std::string& volume() const { return volume_; }

 private:
  /// Per flow-direction reassembly/transform state.
  struct StreamState {
    iscsi::StreamParser parser;
    std::deque<net::Packet> held;  // packets awaiting transformed bytes
    std::deque<Buf> inbox;         // payloads awaiting processing, in order
    Bytes transformed;             // service-processed stream bytes
    bool busy = false;             // one payload in processing at a time
  };

  // Injection needs a terminated TCP stream; the passive relay only
  // rewrites packets in flight, so services that inject were already
  // rejected at construction — reaching these throws is a logic error.
  class HookContext : public ServiceContext {
   public:
    explicit HookContext(PassiveRelay& relay) : relay_(relay) {}
    void inject_to_target(iscsi::Pdu) override {
      throw std::logic_error("passive relay cannot inject PDUs");
    }
    void inject_to_initiator(iscsi::Pdu) override {
      throw std::logic_error("passive relay cannot inject PDUs");
    }
    sim::Simulator& simulator() override;
    const obs::Scope& scope() override { return relay_.scope_; }
    const std::string& volume() const override { return relay_.volume_; }

   private:
    PassiveRelay& relay_;
  };

  bool on_packet(net::Packet& pkt);
  void pump(const net::FourTuple& key);
  void drain(StreamState& state);
  void account_inbox(std::ptrdiff_t delta);

  cloud::Vm& vm_;
  std::vector<StorageService*> services_;
  std::string volume_;
  PassiveRelayCosts costs_;
  obs::Scope scope_;  // "relay.<mb-vm>."
  obs::Hop hop_;      // this box's labels on command traces
  std::uint64_t trace_session_;  // obs::session_id(iqn)
  std::map<net::FourTuple, StreamState> streams_;
  std::unique_ptr<HookContext> ctx_;
  std::uint64_t packets_ = 0;
  std::uint64_t pdus_ = 0;
  std::size_t inbox_bytes_ = 0;
  std::size_t peak_inbox_bytes_ = 0;
  // Hot-path metrics in scope_, resolved on first use.
  obs::CounterHandle packets_hooked_counter_{"packets_hooked"};
  obs::CounterHandle copied_bytes_{"copied_bytes"};
  obs::CounterHandle pdus_processed_counter_{"pdus_processed"};
  obs::GaugeHandle queue_bytes_gauge_{"queue_bytes"};
  obs::GaugeHandle queue_peak_gauge_{"queue_bytes_peak"};
};

}  // namespace storm::core
