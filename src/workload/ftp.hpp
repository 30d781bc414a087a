// FTP-like file transfer (the paper's Figure 10 workload): a server VM
// stores uploads on / serves downloads from its attached volume through a
// SimExt filesystem; a client VM streams data over the instance network.
//
// Wire protocol (one TCP connection per transfer):
//   client -> "PUT <name> <bytes>\n" + payload     server: "OK\n"
//   client -> "GET <name>\n"                       server: "<bytes>\n" + payload
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cloud/cloud.hpp"
#include "fs/simext.hpp"
#include "sim/task.hpp"

namespace storm::workload {

class FtpServer {
 public:
  FtpServer(cloud::Vm& vm, fs::SimExt& filesystem,
            std::uint16_t port = 2121);

  void start();

  std::uint64_t bytes_stored() const { return bytes_stored_; }
  std::uint64_t bytes_served() const { return bytes_served_; }

 private:
  struct Session {
    net::TcpConnection* conn = nullptr;
    Bytes buffer;
    bool header_done = false;
    // upload state
    std::string name;
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
    std::uint64_t write_offset = 0;
    Bytes pending;       // bytes not yet written to the filesystem
    bool writing = false;
    bool finished = false;
  };

  void on_accept(net::TcpConnection& conn);
  void on_data(std::shared_ptr<Session> session, Buf data);
  void pump_upload(std::shared_ptr<Session> session);
  sim::Task<void> serve_download(std::shared_ptr<Session> session,
                                 std::string name);

  cloud::Vm& vm_;
  fs::SimExt& fs_;
  std::uint16_t port_;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t bytes_served_ = 0;
};

struct FtpTransferResult {
  Status status = Status::ok();
  std::uint64_t bytes = 0;
  double seconds = 0;
  double mb_per_s = 0;
};

class FtpClient {
 public:
  FtpClient(cloud::Vm& vm, net::SocketAddr server) : vm_(vm), server_(server) {}

  void upload(const std::string& name, std::uint64_t bytes,
              std::function<void(FtpTransferResult)> done);
  void download(const std::string& name,
                std::function<void(FtpTransferResult)> done);

 private:
  cloud::Vm& vm_;
  net::SocketAddr server_;
};

}  // namespace storm::workload
