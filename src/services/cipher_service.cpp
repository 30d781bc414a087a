#include "services/cipher_service.hpp"

#include "block/block_device.hpp"

namespace storm::services {

core::ServiceVerdict CipherService::transform(core::ServiceContext& ctx,
                                              core::Direction dir,
                                              std::uint64_t byte_position,
                                              iscsi::Pdu& pdu) {
  // mutable_span() clones the payload iff another holder (journal,
  // retransmit queue) still references the bytes.
  crypt(ctx, dir, byte_position, pdu.data.mutable_span());
  return core::ServiceVerdict{false, cost(pdu.opcode, pdu.data.size())};
}

core::ServiceVerdict CipherService::on_pdu(core::ServiceContext& ctx,
                                           core::Direction dir,
                                           iscsi::Pdu& pdu) {
  if (dir == core::Direction::kToTarget) {
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && !pdu.is_read() &&
        !pdu.data.empty()) {
      // Immediate data starts at the command's LBA; remember it for the
      // burst's Data-Out tail.
      if (!pdu.is_final()) write_lbas_[pdu.task_tag] = pdu.lba;
      return transform(ctx, dir, pdu.lba * block::kSectorSize, pdu);
    }
    if (pdu.opcode == iscsi::Opcode::kDataOut && !pdu.data.empty()) {
      auto lba = write_lbas_.find(pdu.task_tag);
      if (lba == write_lbas_.end()) return {};
      std::uint64_t position = lba->second * block::kSectorSize;
      if (pdu.is_final()) write_lbas_.erase(lba);
      return transform(ctx, dir, position + pdu.data_offset, pdu);
    }
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && pdu.is_read()) {
      tracker_.on_to_target(pdu);
    }
    return {};
  }
  if (pdu.opcode == iscsi::Opcode::kDataIn && !pdu.data.empty()) {
    if (auto info = tracker_.read_info(pdu.task_tag)) {
      return transform(ctx, dir,
                       info->lba * block::kSectorSize + pdu.data_offset, pdu);
    }
  } else if (pdu.opcode == iscsi::Opcode::kScsiResponse) {
    tracker_.on_response(pdu.task_tag);
  }
  return {};
}

}  // namespace storm::services
