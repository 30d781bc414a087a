#include "services/monitor.hpp"

namespace storm::services {

MonitorService::MonitorService(
    std::unique_ptr<core::SemanticsReconstructor> reconstructor,
    MonitorConfig config)
    : recon_(std::move(reconstructor)), config_(config) {}

void MonitorService::watch(const std::string& path_prefix) {
  watches_.push_back(path_prefix);
}

core::ServiceVerdict MonitorService::on_pdu(core::ServiceContext& ctx,
                                            core::Direction dir,
                                            iscsi::Pdu& pdu) {
  core::ServiceVerdict verdict;
  if (dir == core::Direction::kToTarget) {
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && pdu.is_read()) {
      // Classification of reads happens at command time: the geometry is
      // enough, the view is not changed by a read.
      record(recon_->on_read(pdu.lba, pdu.transfer_length));
      accesses_counter_.in(ctx.scope()).add();
      verdict.cpu_cost += config_.cost_per_access;
      tracker_.on_to_target(pdu);
      return verdict;
    }
    if (auto burst = tracker_.on_to_target(pdu)) {
      // Update + Analysis: the completed write carries the content that
      // keeps the filesystem view current.
      record(recon_->on_write(burst->lba, burst->data));
      accesses_counter_.in(ctx.scope()).add();
      verdict.cpu_cost += config_.cost_per_access;
    }
    return verdict;
  }
  if (pdu.opcode == iscsi::Opcode::kScsiResponse) {
    tracker_.on_response(pdu.task_tag);
  }
  return verdict;
}

void MonitorService::record(std::vector<core::FileOp> ops) {
  for (auto& op : ops) {
    LogEntry entry{next_sequence_++, std::move(op)};
    for (const std::string& watch : watches_) {
      bool hit = watch.ends_with("/")
                     ? entry.op.path.starts_with(watch)
                     : entry.op.path == watch;
      if (hit) {
        alerts_.push_back(entry);
        if (on_alert_) on_alert_(entry);
        break;
      }
    }
    log_.push_back(std::move(entry));
    if (log_.size() > config_.max_log_entries) log_.pop_front();
  }
}

}  // namespace storm::services
