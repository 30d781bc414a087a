// iSCSI target: serves the volumes of one storage host over TCP port 3260.
// Each inbound connection becomes a Session; a session is bound to one
// volume at login (by IQN), mirroring OpenStack's one-connection-per-
// attached-volume layout that StorM's connection attribution relies on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/volume.hpp"
#include "iscsi/pdu.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"

namespace storm::iscsi {

class Target {
 public:
  Target(net::NetNode& node, block::VolumeManager& volumes,
         std::uint16_t port = kIscsiPort);

  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  /// Begin accepting sessions.
  void start();

  /// Abort all sessions logged into `iqn` (failure injection: the paper
  /// injects replica failure "by closing the iSCSI connection").
  std::size_t close_sessions_for(const std::string& iqn);

  struct SessionInfo {
    std::string iqn;
    net::FourTuple tuple;  // as seen by the target
  };
  std::vector<SessionInfo> sessions() const;

  std::uint64_t commands_served() const { return commands_; }

 private:
  struct Session {
    net::TcpConnection* conn = nullptr;
    StreamParser parser;
    std::string iqn;
    std::uint64_t trace_session = 0;  // obs::session_id(iqn), at login
    block::Volume* volume = nullptr;
    // In-progress write burst per task tag. Data-Out segments are held by
    // reference (no coalesce) and handed to the disk as a gather write.
    struct WriteBurst {
      std::uint64_t lba = 0;
      std::uint32_t expected = 0;
      BufChain chunks;
      std::size_t bytes = 0;  // == chain_size(chunks)
    };
    std::map<std::uint32_t, WriteBurst> writes;
    bool closed = false;
  };

  void on_accept(net::TcpConnection& conn);
  void on_data(Session& session, Buf bytes);
  void handle_pdu(Session& session, Pdu pdu);
  void handle_command(Session& session, const Pdu& pdu);
  void complete_write(Session& session, std::uint32_t task_tag);
  void send_pdu(Session& session, const Pdu& pdu);

  void trace_event(const Session& session, std::uint32_t tag,
                   const char* label, std::uint64_t value);
  void command_started(const Session& session, const Pdu& pdu);
  void command_finished(const Session& session, std::uint32_t tag);

  net::NetNode& node_;
  block::VolumeManager& volumes_;
  std::uint16_t port_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t commands_ = 0;
  std::uint64_t inflight_ = 0;  // commands received, response not yet sent
  // Per-command metrics of the node's registry, resolved on first use.
  obs::CounterHandle commands_counter_{"iscsi.target.commands"};
  obs::GaugeHandle outstanding_{"iscsi.target.outstanding"};
};

}  // namespace storm::iscsi
