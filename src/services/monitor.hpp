// Storage access monitor (paper §V-B1): logs every access to the volume
// at file granularity, raising alerts on watched paths.
//
// Three steps per intercepted access, as in the paper:
//   Classification — file content vs. metadata, via the filesystem view,
//   Update         — metadata writes refresh the view,
//   Analysis       — log the access; alert if it touches a watched path.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/reconstruction.hpp"
#include "core/service.hpp"
#include "services/write_tracker.hpp"
#include "sim/time.hpp"

namespace storm::services {

struct MonitorConfig {
  /// Per-access analysis cost (hash lookups + log append).
  sim::Duration cost_per_access = sim::nanoseconds(400);
  std::size_t max_log_entries = 100'000;
};

class MonitorService : public core::StorageService {
 public:
  struct LogEntry {
    std::uint64_t sequence = 0;
    core::FileOp op;
  };
  using AlertCallback = std::function<void(const LogEntry&)>;

  MonitorService(std::unique_ptr<core::SemanticsReconstructor> reconstructor,
                 MonitorConfig config = {});

  std::string name() const override { return "monitor"; }
  // The reconstructor mirrors one volume's filesystem; interleaving a
  // second volume's writes would corrupt the semantic view.
  bool replica_safe() const override { return false; }
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) override;
  // A new host means a new scope: drop the cached counter.
  void bind_host(const core::ServiceHost& /*host*/) override {
    accesses_counter_.reset();
  }

  /// Watch a path (or a directory prefix ending in '/'): any access
  /// raises an alert (paper: "set an alert on sensitive files").
  void watch(const std::string& path_prefix);
  void set_alert_callback(AlertCallback cb) { on_alert_ = std::move(cb); }

  const std::deque<LogEntry>& log() const { return log_; }
  const std::vector<LogEntry>& alerts() const { return alerts_; }
  core::SemanticsReconstructor& reconstructor() { return *recon_; }

 private:
  void record(std::vector<core::FileOp> ops);

  std::unique_ptr<core::SemanticsReconstructor> recon_;
  MonitorConfig config_;
  IoTracker tracker_;
  std::deque<LogEntry> log_;
  std::vector<LogEntry> alerts_;
  std::vector<std::string> watches_;
  AlertCallback on_alert_;
  std::uint64_t next_sequence_ = 1;
  // "monitor.accesses" in the hosting relay's scope.
  obs::CounterHandle accesses_counter_{"monitor.accesses"};
};

}  // namespace storm::services
