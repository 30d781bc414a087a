#include "iscsi/target.hpp"

#include "common/log.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"

namespace storm::iscsi {

Target::Target(net::NetNode& node, block::VolumeManager& volumes,
               std::uint16_t port)
    : node_(node), volumes_(volumes), port_(port) {}

void Target::start() {
  node_.tcp().listen(port_,
                     [this](net::TcpConnection& conn) { on_accept(conn); });
}

void Target::trace_event(const Session& session, std::uint32_t tag,
                         const char* label, std::uint64_t value) {
  obs::Registry& reg = node_.executor().telemetry();
  reg.tracer().command_event({session.trace_session, tag}, label, reg.now(),
                             value);
}

void Target::command_started(const Session& session, const Pdu& pdu) {
  obs::Registry& reg = node_.executor().telemetry();
  commands_counter_.in(reg).add();
  ++inflight_;
  outstanding_.in(reg).set(static_cast<std::int64_t>(inflight_));
  trace_event(session, pdu.task_tag, "target.cmd", pdu.transfer_length);
}

void Target::command_finished(const Session& session, std::uint32_t tag) {
  if (inflight_ > 0) --inflight_;
  outstanding_.in(node_.executor().telemetry())
      .set(static_cast<std::int64_t>(inflight_));
  trace_event(session, tag, "target.rsp", 0);
}

void Target::on_accept(net::TcpConnection& conn) {
  auto session = std::make_unique<Session>();
  session->conn = &conn;
  Session* raw = session.get();
  sessions_.push_back(std::move(session));
  conn.set_on_data([this, raw](Buf bytes) { on_data(*raw, std::move(bytes)); });
  conn.set_on_closed([raw](Status) { raw->closed = true; });
}

void Target::on_data(Session& session, Buf bytes) {
  std::vector<Pdu> pdus;
  Status status = session.parser.feed(std::move(bytes), pdus);
  if (!status.is_ok()) {
    log_warn("iscsi-tgt") << node_.name()
                          << ": protocol error: " << status.to_string();
    session.conn->abort();
    session.closed = true;
    return;
  }
  for (auto& pdu : pdus) handle_pdu(session, std::move(pdu));
}

void Target::handle_pdu(Session& session, Pdu pdu) {
  switch (pdu.opcode) {
    case Opcode::kLoginRequest: {
      const std::string iqn(login_iqn(pdu));
      auto volume = volumes_.find_by_iqn(iqn);
      if (!volume.is_ok()) {
        log_warn("iscsi-tgt") << "login failed for " << iqn;
        send_pdu(session, make_login_response(kStatusLoginFailed));
        return;
      }
      session.iqn = iqn;
      session.trace_session = obs::session_id(iqn);
      session.volume = volume.value();
      send_pdu(session, make_login_response(kStatusGood));
      return;
    }
    case Opcode::kScsiCommand:
      handle_command(session, pdu);
      return;
    case Opcode::kDataOut: {
      auto it = session.writes.find(pdu.task_tag);
      if (it == session.writes.end()) {
        send_pdu(session, make_scsi_response(pdu.task_tag,
                                             kStatusCheckCondition));
        return;
      }
      Session::WriteBurst& burst = it->second;
      if (pdu.data_offset != burst.bytes) {
        log_warn("iscsi-tgt") << "out-of-order Data-Out";
        command_finished(session, pdu.task_tag);
        send_pdu(session, make_scsi_response(pdu.task_tag,
                                             kStatusCheckCondition));
        session.writes.erase(it);
        return;
      }
      burst.bytes += pdu.data.size();
      if (!pdu.data.empty()) burst.chunks.push_back(std::move(pdu.data));
      if (pdu.is_final() || burst.bytes >= burst.expected) {
        complete_write(session, pdu.task_tag);
      }
      return;
    }
    case Opcode::kLogoutRequest: {
      Pdu resp;
      resp.opcode = Opcode::kLogoutResponse;
      resp.task_tag = pdu.task_tag;
      send_pdu(session, resp);
      session.conn->close();
      return;
    }
    case Opcode::kNopOut: {
      Pdu resp;
      resp.opcode = Opcode::kNopIn;
      resp.task_tag = pdu.task_tag;
      send_pdu(session, resp);
      return;
    }
    default: {
      Pdu reject;
      reject.opcode = Opcode::kReject;
      reject.task_tag = pdu.task_tag;
      send_pdu(session, reject);
      return;
    }
  }
}

void Target::handle_command(Session& session, const Pdu& pdu) {
  if (session.volume == nullptr) {
    send_pdu(session, make_scsi_response(pdu.task_tag, kStatusCheckCondition));
    return;
  }
  ++commands_;
  command_started(session, pdu);
  if (pdu.is_read()) {
    const std::uint32_t sectors = pdu.transfer_length / block::kSectorSize;
    session.volume->disk().read(
        pdu.lba, sectors,
        [this, &session, tag = pdu.task_tag](Status status, Bytes data) {
          command_finished(session, tag);
          if (session.closed) return;
          if (!status.is_ok()) {
            send_pdu(session, make_scsi_response(tag, kStatusCheckCondition));
            return;
          }
          // Stream the data in bounded Data-In segments — each a view into
          // the single buffer returned by the disk.
          Buf whole(std::move(data));
          std::uint32_t offset = 0;
          while (offset < whole.size()) {
            std::uint32_t n = std::min<std::uint32_t>(
                kMaxDataSegment,
                static_cast<std::uint32_t>(whole.size()) - offset);
            bool final = offset + n == whole.size();
            send_pdu(session,
                     make_data_in(tag, offset, whole.slice(offset, n), final));
            offset += n;
          }
          send_pdu(session, make_scsi_response(tag, kStatusGood));
        });
    return;
  }
  // Write command: data arrives in Data-Out PDUs (plus any immediate data).
  Session::WriteBurst burst;
  burst.lba = pdu.lba;
  burst.expected = pdu.transfer_length;
  if (!pdu.data.empty()) {  // immediate data, if any (held by reference)
    burst.bytes = pdu.data.size();
    burst.chunks.push_back(pdu.data);
  }
  session.writes[pdu.task_tag] = std::move(burst);
  if (pdu.is_final() ||
      session.writes[pdu.task_tag].bytes >= pdu.transfer_length) {
    complete_write(session, pdu.task_tag);
  }
}

void Target::complete_write(Session& session, std::uint32_t task_tag) {
  auto it = session.writes.find(task_tag);
  Session::WriteBurst burst = std::move(it->second);
  session.writes.erase(it);
  if (burst.bytes != burst.expected) {
    command_finished(session, task_tag);
    send_pdu(session, make_scsi_response(task_tag, kStatusCheckCondition));
    return;
  }
  session.volume->disk().write_gather(
      burst.lba, std::move(burst.chunks),
      [this, &session, task_tag](Status status) {
        command_finished(session, task_tag);
        if (session.closed) return;
        send_pdu(session,
                 make_scsi_response(task_tag, status.is_ok()
                                                  ? kStatusGood
                                                  : kStatusCheckCondition));
      });
}

void Target::send_pdu(Session& session, const Pdu& pdu) {
  if (session.closed) return;
  session.conn->send(serialize_chunks(pdu));
}

std::size_t Target::close_sessions_for(const std::string& iqn) {
  std::size_t closed = 0;
  for (auto& session : sessions_) {
    if (!session->closed && session->iqn == iqn) {
      session->conn->abort();
      session->closed = true;
      ++closed;
    }
  }
  return closed;
}

std::vector<Target::SessionInfo> Target::sessions() const {
  std::vector<SessionInfo> out;
  for (const auto& session : sessions_) {
    if (session->closed || session->iqn.empty()) continue;
    out.push_back(SessionInfo{session->iqn, session->conn->four_tuple()});
  }
  return out;
}

}  // namespace storm::iscsi
