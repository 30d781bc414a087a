// Active relay (paper §III-B): the middle-box terminates the spliced TCP
// connection with a local pseudo-server, acknowledges received data
// immediately, and re-originates the stream toward the next hop with a
// pseudo-client — so the data source never stalls on middle-box
// processing or downstream forwarding. Received-but-unforwarded PDUs are
// journaled to (simulated) NVRAM until the next hop acknowledges them,
// preserving consistency across the split connections.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/service.hpp"
#include "iscsi/pdu.hpp"
#include "journal/log.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"

namespace storm::core {

struct ActiveRelayCosts {
  /// Parse/dispatch cost per PDU (the TCP handler batches several packets
  /// per user/kernel crossing, so cost scales with PDUs, not packets).
  sim::Duration per_pdu = sim::microseconds(2);
  /// Copy cost per byte through the batched TCP path.
  double ns_per_byte = 0.15;
};

/// Ingress flow control: real NVRAM is finite, so the early-ACK relay
/// must eventually push back. When a direction's journal + processing
/// queue reach the high watermark the relay stops crediting its ingress
/// TCP receive window — the advertised window closes back toward the
/// data source — and once the load drains below the low watermark all
/// withheld credit is released at once. Early-ACK semantics are
/// untouched below the watermark; journal replay is unaffected (the
/// journal only ever holds bounded state). Only *complete* bursts count
/// toward the watermarks — the trailing incomplete burst is always
/// allowed to finish arriving (see update_backpressure), so the per-
/// direction bound is high_watermark + largest burst + the ingress TCP
/// window rather than high_watermark alone. high_watermark == 0 disables
/// the mechanism (legacy unbounded behaviour).
struct RelayFlowControl {
  std::size_t high_watermark = 256 * 1024;
  std::size_t low_watermark = 64 * 1024;
};

/// One failed relay's NVRAM contents, exportable across VM instances:
/// standby promotion replays this into the warm spare so every journaled
/// (acknowledged-but-unforwarded) PDU survives the failover, extending
/// the paper's §III-B consistency argument from restart to replacement.
struct RelayJournalSnapshot {
  struct SessionImage {
    std::uint16_t bind_port = 0;
    std::optional<iscsi::Pdu> login_pdu;
    std::vector<BufChain> to_target_wires;  // unacknowledged, oldest first
  };
  std::vector<SessionImage> sessions;

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const SessionImage& s : sessions) {
      for (const BufChain& w : s.to_target_wires) total += chain_size(w);
    }
    return total;
  }
};

class ActiveRelay {
 public:
  /// `upstream` is the next hop's address (the egress gateway; capture
  /// rules on later active boxes may redirect it). Services are applied
  /// in order for PDUs toward the target and in reverse order for PDUs
  /// toward the initiator (the chain unwinds on the way back). `volume`
  /// names the protected volume this relay splices; it is surfaced to
  /// services through their ServiceContext.
  ActiveRelay(cloud::Vm& mb_vm, net::SocketAddr upstream,
              std::vector<StorageService*> services, std::string volume = {},
              ActiveRelayCosts costs = {}, RelayFlowControl flow = {},
              journal::Config journal_config = {});

  ActiveRelay(const ActiveRelay&) = delete;
  ActiveRelay& operator=(const ActiveRelay&) = delete;

  ~ActiveRelay() { shutdown(); }

  /// Start the pseudo-server (listens on the iSCSI port).
  void start();

  // --- failure injection / recovery (tests + §III-B consistency) ---
  /// Abort every session's upstream connection, keeping journals.
  void fail_upstream();
  /// Re-dial upstream for every session and replay unacknowledged PDUs
  /// (the stored login PDU is replayed first to re-establish the session).
  void recover_upstream();

  /// Power-fail the middle-box VM: node down, TCP state wiped with no
  /// goodbyes, in-flight parser/queue state lost. Only the NVRAM journals
  /// and the stored login PDUs survive (paper §III-B). Dumps the flight
  /// recorder so post-mortems see the lead-up.
  void crash();
  /// Power the VM back on: re-listen, re-dial upstream for every crashed
  /// session and replay the journal. The initiator's reconnection (same
  /// pinned source port) is adopted back into its session by on_accept.
  void restart();
  bool crashed() const { return crashed_; }

  /// Orderly teardown for chain rollback: stop listening and abort every
  /// session's connections.
  void shutdown();

  // --- standby failover (chain health manager) ---
  /// Snapshot every session's NVRAM journal and stored login PDU — the
  /// state that survives the VM's death and gets replayed into a standby.
  /// On a crashed relay this first replays the (simulated) NVRAM segments
  /// to rebuild the index — the standby reads the dead box's NVRAM, not
  /// its volatile memory.
  RelayJournalSnapshot export_journal();
  /// Standby promotion: recreate each session from a failed relay's
  /// snapshot, re-dial the upstream leg, and replay login + journal. The
  /// initiator's reconnection (same pinned source port) is adopted into
  /// the recreated session by on_accept, exactly like the restart path.
  void adopt_sessions(RelayJournalSnapshot snapshot);

  // --- per-flow scale-out (replica sets share one relay) ---
  /// Quiescence of one flow's session only: its queues, journals and
  /// backlog are empty (true for an unknown port — nothing to drain).
  /// The flow-migration drain polls this instead of quiescent(), which
  /// would couple the migrating flow to every other tenant flow pinned
  /// to this replica.
  bool session_quiescent(std::uint16_t bind_port) const;
  /// Hand one drained flow off to another replica: snapshot the
  /// session's journal + login PDU (same shape adopt_sessions consumes),
  /// abort its TCP legs, drop its journal streams and erase it — the
  /// rest of the relay's sessions are untouched. Empty snapshot for an
  /// unknown port.
  RelayJournalSnapshot extract_session(std::uint16_t bind_port);
  /// Tear one flow's session down with no handoff (per-flow fence /
  /// release on a shared replica).
  void drop_session(std::uint16_t bind_port);
  /// Per-flow volume identity: a pooled replica splices flows of many
  /// volumes, so services resolve the volume by the session's pinned
  /// source port; unregistered ports fall back to the relay-wide volume.
  void register_volume(std::uint16_t bind_port, std::string volume);

  // --- drain / failover-completion predicates ---
  /// Nothing buffered anywhere: parser queues empty, journals trimmed to
  /// empty, no upstream backlog. The drain protocol polls this before
  /// tearing rules.
  bool quiescent() const;
  /// Every session has both TCP legs up (downstream bound, upstream
  /// established) — the health manager's failover-complete predicate.
  bool sessions_established() const;

  std::size_t session_count() const { return sessions_.size(); }
  std::size_t journal_bytes() const;
  /// Bytes parsed into PDUs and awaiting service processing.
  std::size_t queue_bytes() const;
  /// journal_bytes() + queue_bytes(): everything this relay holds.
  std::size_t buffered_bytes() const {
    return journal_bytes() + queue_bytes();
  }
  /// High-watermark of buffered_bytes() over the relay's lifetime — the
  /// quantity the flow-control watermarks exist to bound.
  std::size_t peak_buffered_bytes() const { return peak_buffered_; }
  /// Directions currently refusing ingress credit (window closed).
  std::size_t paused_directions() const;
  const RelayFlowControl& flow_control() const { return flow_; }
  std::uint64_t pdus_relayed() const { return pdus_relayed_; }
  std::uint64_t journal_replays() const { return journal_replays_; }

  const obs::Scope& scope() const { return scope_; }
  const std::string& volume() const { return volume_; }

  /// The relay's log-structured NVRAM engine. All sessions multiplex
  /// their per-direction streams into this one device (tests and the
  /// crash harness drive it directly).
  journal::Device& journal_device() { return journal_dev_; }
  const journal::Device& journal_device() const { return journal_dev_; }

 private:
  struct Session;

  class SessionContext : public ServiceContext {
   public:
    SessionContext(ActiveRelay& relay, Session& session)
        : relay_(relay), session_(session) {}
    void inject_to_target(iscsi::Pdu pdu) override;
    void inject_to_initiator(iscsi::Pdu pdu) override;
    sim::Simulator& simulator() override;
    const obs::Scope& scope() override { return relay_.scope_; }
    const std::string& volume() const override {
      return relay_.flow_volume(session_.bind_port);
    }

   private:
    ActiveRelay& relay_;
    Session& session_;
  };

  struct QueuedPdu {
    sim::Time enqueued;  // arrival into the processing queue
    std::size_t bytes;   // wire-size estimate, for queue accounting
    iscsi::Pdu pdu;
  };

  struct DirectionState {
    iscsi::StreamParser parser;
    std::deque<QueuedPdu> queue;  // PDUs awaiting processing, in order
    std::size_t queue_bytes = 0;  // bytes held in `queue`
    bool processing = false;
    journal::Stream journal;
    std::uint64_t enqueued_bytes = 0;  // cumulative payload sent downstream
    // Backpressure: ingress bytes delivered by TCP but not yet credited
    // back (consume()d), and whether crediting is currently withheld
    // because journal + queue sit above the high watermark.
    std::size_t uncredited = 0;
    bool paused = false;
  };

  struct Session {
    net::TcpConnection* downstream = nullptr;  // toward the initiator
    net::TcpConnection* upstream = nullptr;    // toward the target
    bool upstream_ready = false;
    BufChain upstream_backlog;  // chunks to send once upstream establishes
    DirectionState to_target;
    DirectionState to_initiator;
    std::unique_ptr<SessionContext> ctx;
    std::optional<iscsi::Pdu> login_pdu;  // kept for session re-establishment
    std::uint64_t trace_session = 0;      // obs::session_id of its IQN
    std::uint16_t bind_port = 0;
    bool failed = false;
    // Bumped on every crash/resume. CPU-scheduled PDU callbacks from
    // before the reset compare epochs and drop themselves, so stale work
    // cannot pollute the resumed session's journal or backlog.
    std::uint64_t epoch = 0;

    void set_login(iscsi::Pdu login) {
      trace_session = obs::session_id(iscsi::login_iqn(login));
      login_pdu = std::move(login);
    }
  };

  const std::string& flow_volume(std::uint16_t bind_port) const {
    auto it = flow_volumes_.find(bind_port);
    return it == flow_volumes_.end() ? volume_ : it->second;
  }
  Session* find_session(std::uint16_t bind_port);
  void teardown_session(Session& session);
  void on_accept(net::TcpConnection& conn);
  /// Wipe a direction back to its initial state while keeping it bound to
  /// the relay's journal device on a fresh stream id (the old stream's
  /// records are dropped from the device index).
  void reset_direction(DirectionState& st);
  void bind_downstream(Session& session, net::TcpConnection& conn);
  void dial_upstream(Session& session);
  void resume_session(Session& session);
  void on_stream_data(Session& session, Direction dir, Buf bytes);
  void pump_queue(Session& session, Direction dir);
  void forward(Session& session, Direction dir, const iscsi::Pdu& pdu);
  void send_downstream(Session& session, const BufChain& wire);
  void send_upstream(Session& session, const BufChain& wire);
  void update_journal_gauge();
  void update_backpressure(Session& session, Direction dir);
  obs::Registry& telemetry();
  DirectionState& state(Session& session, Direction dir) {
    return dir == Direction::kToTarget ? session.to_target
                                       : session.to_initiator;
  }

  cloud::Vm& vm_;
  net::SocketAddr upstream_;
  std::vector<StorageService*> services_;
  std::string volume_;
  std::map<std::uint16_t, std::string> flow_volumes_;  // by pinned port
  ActiveRelayCosts costs_;
  RelayFlowControl flow_;
  std::size_t peak_buffered_ = 0;
  obs::Scope scope_;  // "relay.<mb-vm>."
  obs::Hop hop_;      // this box's labels on command traces
  // Per-PDU metrics of scope_, resolved on first use.
  obs::GaugeHandle journal_bytes_gauge_{"journal_bytes"};
  obs::GaugeHandle queue_bytes_gauge_{"queue_bytes"};
  obs::GaugeHandle buffered_peak_gauge_{"buffered_bytes_peak"};
  obs::CounterHandle bp_pauses_{"bp_pauses"};
  obs::CounterHandle bp_resumes_{"bp_resumes"};
  obs::CounterHandle copied_bytes_{"copied_bytes"};
  obs::CounterHandle pdus_relayed_counter_{"pdus_relayed"};
  obs::CounterHandle pdus_consumed_{"pdus_consumed"};
  obs::HistogramHandle pdu_ns_{"pdu_ns"};
  journal::Device journal_dev_;  // shared log, one per relay VM
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t pdus_relayed_ = 0;
  std::uint64_t journal_replays_ = 0;
  bool crashed_ = false;
  bool shut_down_ = false;
};

}  // namespace storm::core
