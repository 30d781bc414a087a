#include "iscsi/initiator.hpp"

#include <algorithm>

#include "block/block_device.hpp"
#include "common/log.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"

namespace storm::iscsi {

Initiator::Initiator(net::NetNode& node, net::SocketAddr target,
                     std::string iqn, std::uint16_t local_port)
    : node_(node), target_(target), iqn_(std::move(iqn)),
      trace_session_(obs::session_id(iqn_)), local_port_(local_port) {}

void Initiator::login(LoginCallback done) {
  login_cb_ = std::move(done);
  dial();
}

// The command's root span, keyed so every PDU-aware hop downstream
// (relays, target) can stamp events onto it.
obs::SpanId Initiator::begin_command_span(const char* kind, std::uint32_t tag,
                                          std::uint64_t bytes) {
  obs::Registry& reg = node_.executor().telemetry();
  return reg.tracer().begin_command({trace_session_, tag}, kind, bytes,
                                    reg.now());
}

void Initiator::end_command_span(obs::SpanId span, std::uint32_t tag,
                                 const char* outcome) {
  if (span == 0) return;
  obs::Registry& reg = node_.executor().telemetry();
  reg.tracer().end_command({trace_session_, tag}, span, outcome, reg.now());
}

void Initiator::update_outstanding() {
  if (tel_outstanding_ == nullptr) {
    tel_outstanding_ = &node_.executor().telemetry().gauge(
        "iscsi.initiator." + iqn_ + ".outstanding");
  }
  tel_outstanding_->set(static_cast<std::int64_t>(pending_reads_.size() +
                                                  pending_writes_.size()));
}

void Initiator::dial() {
  conn_ = &node_.tcp().connect(target_, [this] {
    send_pdu(make_login_request(iqn_));
  }, local_port_);
  source_port_ = conn_->local().port;
  // Pin the ephemeral port we got: a recovery dial must reuse the exact
  // four-tuple or conntrack-steered NAT paths stop matching the flow.
  local_port_ = source_port_;
  conn_->set_on_data([this](Buf bytes) { on_data(std::move(bytes)); });
  conn_->set_on_closed([this](Status status) { on_closed(status); });
  // Watch the login round-trip too: a recovery dial that connects but
  // never gets a login response (peer restarted again, response lost on a
  // dead path) must not hang the queued commands forever.
  arm_watchdog();
}

void Initiator::reconnect() {
  if (failed_ || logging_out_ || logged_in_) return;
  dial();
}

void Initiator::read(std::uint64_t lba, std::uint32_t sectors,
                     ReadCallback done) {
  if (admission_ == AdmissionMode::kClosed) {
    done(error(ErrorCode::kUnavailable, "session draining"), {});
    return;
  }
  if (admission_ == AdmissionMode::kDeferred) {
    DeferredOp op;
    op.lba = lba;
    op.sectors = sectors;
    op.read_done = std::move(done);
    deferred_.push_back(std::move(op));
    return;
  }
  if (failed_ || logging_out_ || (!logged_in_ && !recovery_.enabled)) {
    done(error(ErrorCode::kFailedPrecondition, "session not established"), {});
    return;
  }
  std::uint32_t tag = next_tag_++;
  std::uint32_t bytes = sectors * block::kSectorSize;
  obs::SpanId span = begin_command_span("cmd.read", tag, bytes);
  pending_reads_[tag] = PendingRead{lba, {}, bytes, std::move(done), span};
  ++reads_;
  tel_reads_.in(node_.executor().telemetry()).add();
  update_outstanding();
  // While disconnected (recovery pending) the command just queues; the
  // re-login path re-issues everything outstanding.
  if (logged_in_) {
    send_pdu(make_read_command(tag, lba, bytes));
    arm_watchdog();
  }
}

void Initiator::write(std::uint64_t lba, Bytes data, WriteCallback done) {
  if (admission_ == AdmissionMode::kClosed) {
    done(error(ErrorCode::kUnavailable, "session draining"));
    return;
  }
  if (admission_ == AdmissionMode::kDeferred) {
    DeferredOp op;
    op.is_write = true;
    op.lba = lba;
    op.data = std::move(data);
    op.write_done = std::move(done);
    deferred_.push_back(std::move(op));
    return;
  }
  if (failed_ || logging_out_ || (!logged_in_ && !recovery_.enabled)) {
    done(error(ErrorCode::kFailedPrecondition, "session not established"));
    return;
  }
  if (data.empty() || data.size() % block::kSectorSize != 0) {
    done(error(ErrorCode::kInvalidArgument, "unaligned write"));
    return;
  }
  std::uint32_t tag = next_tag_++;
  obs::SpanId span = begin_command_span("cmd.write", tag, data.size());
  // Wrap once; every segment below is a refcounted slice of this Buf.
  auto [it, inserted] = pending_writes_.emplace(
      tag, PendingWrite{lba, Buf(std::move(data)), std::move(done), span});
  ++writes_;
  tel_writes_.in(node_.executor().telemetry()).add();
  update_outstanding();
  if (logged_in_) {
    issue_write(tag, it->second);
    arm_watchdog();
  }
}

void Initiator::issue_write(std::uint32_t tag, const PendingWrite& pending) {
  const Buf& data = pending.data;
  const std::uint32_t total = static_cast<std::uint32_t>(data.size());
  // Command PDU carries the first segment as immediate data; the rest
  // streams as Data-Out PDUs. Every segment is a zero-copy slice of the
  // pending write's buffer (re-issue after recovery re-slices it).
  std::uint32_t first = std::min(kMaxDataSegment, total);
  Pdu cmd = make_write_command(tag, pending.lba, total);
  cmd.data = data.slice(0, first);
  if (first == total) cmd.flags |= kFlagFinal;
  send_pdu(cmd);
  std::uint32_t offset = first;
  while (offset < total) {
    std::uint32_t n = std::min(kMaxDataSegment, total - offset);
    send_pdu(make_data_out(tag, offset, data.slice(offset, n),
                           offset + n == total));
    offset += n;
  }
}

void Initiator::reissue_pending() {
  // Re-issue in original tag order so the replayed command stream matches
  // what the journal-replaying relay and the target expect.
  std::vector<std::uint32_t> tags;
  tags.reserve(pending_reads_.size() + pending_writes_.size());
  for (const auto& [tag, pending] : pending_reads_) tags.push_back(tag);
  for (const auto& [tag, pending] : pending_writes_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  for (std::uint32_t tag : tags) {
    if (auto it = pending_reads_.find(tag); it != pending_reads_.end()) {
      it->second.data.clear();  // partial Data-In from before the drop
      send_pdu(make_read_command(tag, it->second.lba, it->second.expected));
    } else if (auto wit = pending_writes_.find(tag);
               wit != pending_writes_.end()) {
      issue_write(tag, wit->second);
    }
  }
}

void Initiator::logout() {
  logging_out_ = true;  // a deliberate teardown must not trigger recovery
  if (conn_ == nullptr || failed_) return;
  Pdu pdu;
  pdu.opcode = Opcode::kLogoutRequest;
  send_pdu(pdu);
}

void Initiator::arm_watchdog() {
  watchdog_.cancel();
  if (!recovery_.enabled || logging_out_ || failed_) return;
  watchdog_ = node_.executor().schedule_in(
      recovery_.response_timeout, [this] { on_watchdog(); });
}

void Initiator::on_watchdog() {
  if (pending_reads_.empty() && pending_writes_.empty()) return;
  if (conn_ == nullptr) return;
  log_info("iscsi-init") << iqn_ << ": command timeout after "
                         << recovery_.response_timeout
                         << "ns; dropping session for recovery";
  conn_->abort();  // enter on_closed -> recovery reconnect path
}

void Initiator::on_data(Buf bytes) {
  std::vector<Pdu> pdus;
  Status status = parser_.feed(std::move(bytes), pdus);
  if (!status.is_ok()) {
    log_warn("iscsi-init") << "protocol error: " << status.to_string();
    conn_->abort();
    return;
  }
  for (auto& pdu : pdus) handle_pdu(std::move(pdu));
  // Any inbound PDU is progress: push the command watchdog out, or stop
  // it entirely once nothing is outstanding.
  if (pending_reads_.empty() && pending_writes_.empty()) {
    watchdog_.cancel();
  } else {
    arm_watchdog();
  }
}

void Initiator::handle_pdu(Pdu pdu) {
  switch (pdu.opcode) {
    case Opcode::kLoginResponse: {
      logged_in_ = pdu.status == kStatusGood;
      if (logged_in_) {
        attempts_ = 0;
        if (recovering_) {
          recovering_ = false;
          ++recoveries_;
          node_.executor().telemetry().counter("iscsi.initiator.recoveries")
              .add();
          node_.executor().telemetry().record_event(
              "iscsi " + iqn_ + ": session recovered");
          log_info("iscsi-init") << iqn_ << ": session recovered (port="
                                 << source_port_ << ")";
        }
        reissue_pending();
      }
      if (login_cb_) {
        auto cb = std::move(login_cb_);
        login_cb_ = nullptr;
        cb(logged_in_ ? Status::ok()
                      : error(ErrorCode::kPermissionDenied, "login rejected"));
      }
      return;
    }
    case Opcode::kDataIn: {
      auto it = pending_reads_.find(pdu.task_tag);
      if (it == pending_reads_.end()) return;
      PendingRead& pending = it->second;
      if (pdu.data_offset != pending.data.size()) {
        log_warn("iscsi-init") << "out-of-order Data-In";
        return;
      }
      pdu.data.append_to(pending.data);
      return;
    }
    case Opcode::kScsiResponse: {
      if (auto it = pending_reads_.find(pdu.task_tag);
          it != pending_reads_.end()) {
        PendingRead pending = std::move(it->second);
        pending_reads_.erase(it);
        update_outstanding();
        const bool ok = pdu.status == kStatusGood &&
                        pending.data.size() == pending.expected;
        end_command_span(pending.span, pdu.task_tag,
                         ok ? "complete" : "failed");
        if (ok) {
          pending.done(Status::ok(), std::move(pending.data));
        } else {
          pending.done(error(ErrorCode::kIoError, "read failed"), {});
        }
        return;
      }
      if (auto it = pending_writes_.find(pdu.task_tag);
          it != pending_writes_.end()) {
        PendingWrite pending = std::move(it->second);
        pending_writes_.erase(it);
        update_outstanding();
        const bool ok = pdu.status == kStatusGood;
        end_command_span(pending.span, pdu.task_tag,
                         ok ? "complete" : "failed");
        pending.done(ok ? Status::ok()
                        : error(ErrorCode::kIoError, "write failed"));
        return;
      }
      return;
    }
    case Opcode::kLogoutResponse:
      conn_->close();
      return;
    default:
      return;
  }
}

void Initiator::on_closed(Status status) {
  if (failed_) return;
  logged_in_ = false;
  conn_ = nullptr;
  watchdog_.cancel();
  if (recovery_.enabled && !logging_out_ &&
      attempts_ < recovery_.max_attempts) {
    ++attempts_;
    recovering_ = true;
    parser_ = StreamParser{};  // mid-PDU bytes from the old stream are gone
    node_.executor().telemetry().record_event(
        "iscsi " + iqn_ + ": session dropped (" + status.to_string() + ")");
    log_info("iscsi-init") << iqn_ << ": session dropped ("
                           << status.to_string() << "); reconnect attempt "
                           << attempts_ << "/" << recovery_.max_attempts;
    node_.executor().schedule_in(recovery_.reconnect_delay,
                            [this] { reconnect(); });
    return;
  }
  failed_ = true;
  Status failure = status.is_ok()
                       ? error(ErrorCode::kConnectionFailed, "session closed")
                       : status;
  if (login_cb_) {
    auto cb = std::move(login_cb_);
    login_cb_ = nullptr;
    cb(failure);
  }
  // Fail all outstanding commands.
  auto reads = std::move(pending_reads_);
  pending_reads_.clear();
  auto writes = std::move(pending_writes_);
  pending_writes_.clear();
  update_outstanding();
  for (auto& [tag, pending] : reads) {
    end_command_span(pending.span, tag, "failed");
    pending.done(failure, {});
  }
  for (auto& [tag, pending] : writes) {
    end_command_span(pending.span, tag, "failed");
    pending.done(failure);
  }
  if (on_failure_) on_failure_(failure);
}

void Initiator::set_admission_mode(AdmissionMode mode) {
  if (admission_ == mode) return;
  admission_ = mode;
  if (deferred_.empty()) return;
  std::deque<DeferredOp> parked = std::move(deferred_);
  deferred_.clear();
  if (mode == AdmissionMode::kClosed) {
    // A fence outranks an in-flight migration: the parked commands were
    // never issued, so failing them here is exact (nothing half-sent).
    for (DeferredOp& op : parked) {
      Status reason = error(ErrorCode::kUnavailable, "session draining");
      if (op.is_write) {
        op.write_done(reason);
      } else {
        op.read_done(reason, {});
      }
    }
    return;
  }
  // Reopened: issue in arrival order. read()/write() re-check the gate,
  // so a callback that flips the mode again just re-parks the rest.
  for (DeferredOp& op : parked) {
    if (admission_ != AdmissionMode::kOpen) {
      deferred_.push_back(std::move(op));
      continue;
    }
    if (op.is_write) {
      write(op.lba, std::move(op.data), std::move(op.write_done));
    } else {
      read(op.lba, op.sectors, std::move(op.read_done));
    }
  }
}

void Initiator::kick() {
  if (conn_ == nullptr || failed_ || logging_out_) return;
  log_info("iscsi-init") << iqn_ << ": kicked; dropping session for "
                            "immediate re-dial";
  conn_->abort();  // enter on_closed -> recovery reconnect path
}

void Initiator::fail_outstanding(Status reason) {
  watchdog_.cancel();
  auto reads = std::move(pending_reads_);
  pending_reads_.clear();
  auto writes = std::move(pending_writes_);
  pending_writes_.clear();
  update_outstanding();
  for (auto& [tag, pending] : reads) {
    end_command_span(pending.span, tag, "fenced");
    pending.done(reason, {});
  }
  for (auto& [tag, pending] : writes) {
    end_command_span(pending.span, tag, "fenced");
    pending.done(reason);
  }
}

void Initiator::send_pdu(const Pdu& pdu) {
  if (conn_ == nullptr) return;
  // Chunked: the data segment goes to TCP as a reference, not a copy.
  conn_->send(serialize_chunks(pdu));
}

}  // namespace storm::iscsi
