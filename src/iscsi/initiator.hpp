// iSCSI initiator: runs on the *compute host* (as in OpenStack — not in
// the tenant VM), one connection per attached volume. Exposes the login
// source port, reproducing the paper's patched "Login Session" code that
// StorM's connection attribution reads (§III-A).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "iscsi/pdu.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace storm::iscsi {

/// Opt-in session recovery (open-iscsi's replacement_timeout behaviour):
/// when the TCP session drops, re-dial from the *same* source port,
/// re-login, and re-issue every outstanding command instead of failing
/// them. Reads and sector writes are idempotent, so at-least-once
/// re-execution is safe.
struct RecoveryPolicy {
  bool enabled = false;
  /// Consecutive failed reconnect attempts before giving up for good.
  unsigned max_attempts = 8;
  /// Wait between a drop and the next dial.
  sim::Duration reconnect_delay = sim::milliseconds(10);
  /// Command watchdog (open-iscsi's NOP/replacement timeout): if commands
  /// are outstanding and no PDU arrives for this long, the session is
  /// declared dead and torn down so recovery can re-dial. Without it, a
  /// peer that crashed with nothing in flight at the TCP level is
  /// undetectable — TCP only notices loss when it has unacked data.
  sim::Duration response_timeout = sim::milliseconds(500);
};

/// Admission-gate behaviour for new commands (see set_admission_mode).
enum class AdmissionMode {
  kOpen,      // commands enter the chain normally
  kClosed,    // new commands fail fast with kUnavailable (drain/fence)
  kDeferred,  // new commands park in a side queue, invisible to
              // outstanding(), and issue when the gate reopens — the
              // flow-migration gate: the chain drains to empty while the
              // workload keeps issuing, and nothing ever fails
};

class Initiator {
 public:
  using LoginCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, Bytes)>;
  using WriteCallback = std::function<void(Status)>;
  using FailureCallback = std::function<void(Status)>;

  /// `target` is the address the initiator dials. StorM's splicing NAT
  /// may transparently redirect the flow; the initiator neither knows nor
  /// cares — exactly the transparency property the paper claims.
  /// A nonzero `local_port` pins the TCP source port (StorM pins it so
  /// per-flow rules can be installed before the first SYN).
  Initiator(net::NetNode& node, net::SocketAddr target, std::string iqn,
            std::uint16_t local_port = 0);

  Initiator(const Initiator&) = delete;
  Initiator& operator=(const Initiator&) = delete;

  /// Open the TCP connection and perform login.
  void login(LoginCallback done);

  /// Read `sectors` * 512 bytes from sector `lba`.
  void read(std::uint64_t lba, std::uint32_t sectors, ReadCallback done);

  /// Write sector-aligned `data` at sector `lba`.
  void write(std::uint64_t lba, Bytes data, WriteCallback done);

  void logout();

  /// Enable/configure session recovery. With recovery on, commands issued
  /// while disconnected are queued and sent after the next re-login.
  void set_recovery(RecoveryPolicy policy) { recovery_ = policy; }

  /// Fired when the session drops with commands outstanding (all pending
  /// callbacks also fire with errors). With recovery enabled, only fires
  /// once reconnection attempts are exhausted.
  void set_on_failure(FailureCallback cb) { on_failure_ = std::move(cb); }

  /// Admission gate (StorM drain protocol): while closed, new read/write
  /// calls fail fast with kUnavailable instead of entering the chain.
  /// Commands already in flight are unaffected — that is the point: the
  /// chain drains to empty instead of being torn down mid-command.
  void set_admission(bool open) {
    set_admission_mode(open ? AdmissionMode::kOpen : AdmissionMode::kClosed);
  }
  bool admission_open() const { return admission_ == AdmissionMode::kOpen; }

  /// Three-state admission gate. kDeferred (open-iscsi's
  /// queue-during-replacement behaviour) parks new commands without
  /// issuing them — they don't count as outstanding(), so the chain can
  /// drain to empty under a live workload; reopening issues the parked
  /// commands in arrival order. Closing the gate fails the parked
  /// commands (a fence outranks a migration in progress).
  void set_admission_mode(AdmissionMode mode);
  AdmissionMode admission_mode() const { return admission_; }
  /// Commands parked behind a kDeferred gate.
  std::size_t deferred() const { return deferred_.size(); }

  /// Commands issued but not yet responded to.
  std::size_t outstanding() const {
    return pending_reads_.size() + pending_writes_.size();
  }

  /// Abort the transport immediately so session recovery re-dials now
  /// rather than at watchdog expiry. Used after a failover rewires the
  /// chain: the old connection's peer is gone, and every millisecond
  /// spent retransmitting into the void inflates MTTR.
  void kick();

  /// Error every outstanding command back to its caller with `reason`
  /// (fail-closed fencing). The session object itself stays usable; a
  /// later login() may re-establish it.
  void fail_outstanding(Status reason);

  /// TCP source port of this session — the attribution hook.
  std::uint16_t source_port() const { return source_port_; }
  const std::string& iqn() const { return iqn_; }
  bool logged_in() const { return logged_in_; }
  bool recovering() const { return recovering_; }

  std::uint64_t reads_issued() const { return reads_; }
  std::uint64_t writes_issued() const { return writes_; }
  /// Successful session re-establishments.
  std::uint64_t recoveries() const { return recoveries_; }
  const RecoveryPolicy& recovery_policy() const { return recovery_; }

 private:
  struct DeferredOp {
    bool is_write = false;
    std::uint64_t lba = 0;
    std::uint32_t sectors = 0;  // reads
    Bytes data;                 // writes
    ReadCallback read_done;
    WriteCallback write_done;
  };
  struct PendingRead {
    std::uint64_t lba;
    Bytes data;
    std::uint32_t expected;
    ReadCallback done;
    obs::SpanId span = 0;  // root trace span for this command
  };
  struct PendingWrite {
    std::uint64_t lba;
    Buf data;  // retained (by reference) for re-issue after recovery
    WriteCallback done;
    obs::SpanId span = 0;
  };

  obs::SpanId begin_command_span(const char* kind, std::uint32_t tag,
                                 std::uint64_t bytes);
  void end_command_span(obs::SpanId span, std::uint32_t tag,
                        const char* outcome);
  void update_outstanding();

  void dial();
  void reconnect();
  void arm_watchdog();
  void on_watchdog();
  void issue_write(std::uint32_t tag, const PendingWrite& pending);
  void reissue_pending();
  void on_data(Buf bytes);
  void handle_pdu(Pdu pdu);
  void on_closed(Status status);
  void send_pdu(const Pdu& pdu);

  net::NetNode& node_;
  net::SocketAddr target_;
  std::string iqn_;
  std::uint64_t trace_session_;  // obs::session_id(iqn_)
  std::uint16_t local_port_ = 0;
  net::TcpConnection* conn_ = nullptr;
  StreamParser parser_;
  bool logged_in_ = false;
  bool failed_ = false;
  bool logging_out_ = false;
  bool recovering_ = false;
  AdmissionMode admission_ = AdmissionMode::kOpen;
  std::deque<DeferredOp> deferred_;
  std::uint16_t source_port_ = 0;
  std::uint32_t next_tag_ = 1;
  RecoveryPolicy recovery_;
  unsigned attempts_ = 0;  // consecutive failed recovery attempts
  sim::CancelToken watchdog_;

  LoginCallback login_cb_;
  FailureCallback on_failure_;
  std::map<std::uint32_t, PendingRead> pending_reads_;
  std::map<std::uint32_t, PendingWrite> pending_writes_;

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t recoveries_ = 0;
  obs::Gauge* tel_outstanding_ = nullptr;  // per-session, lazily resolved
  obs::CounterHandle tel_reads_{"iscsi.initiator.reads"};
  obs::CounterHandle tel_writes_{"iscsi.initiator.writes"};
};

}  // namespace storm::iscsi
