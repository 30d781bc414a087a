#include "services/encryption.hpp"

#include <stdexcept>

#include "block/block_device.hpp"

namespace storm::services {

EncryptionService::EncryptionService(Bytes key, EncryptionConfig config)
    : config_(config) {
  if (key.size() != 32 && key.size() != 64) {
    throw std::invalid_argument(
        "EncryptionService: key must be 32 or 64 bytes (XTS key pair)");
  }
  std::size_t half = key.size() / 2;
  xts_ = std::make_unique<crypto::AesXts>(
      std::span<const std::uint8_t>(key.data(), half),
      std::span<const std::uint8_t>(key.data() + half, half));
}

void EncryptionService::crypt(bool encrypt, std::uint64_t first_sector,
                              std::span<std::uint8_t> data) {
  for (std::size_t off = 0; off + block::kSectorSize <= data.size();
       off += block::kSectorSize) {
    std::span<std::uint8_t> sector = data.subspan(off, block::kSectorSize);
    if (encrypt) {
      xts_->encrypt_sector(first_sector + off / block::kSectorSize, sector,
                           sector);
    } else {
      xts_->decrypt_sector(first_sector + off / block::kSectorSize, sector,
                           sector);
    }
  }
}

core::ServiceVerdict EncryptionService::on_pdu(core::ServiceContext& ctx,
                                               core::Direction dir,
                                               iscsi::Pdu& pdu) {
  core::ServiceVerdict verdict;
  if (dir == core::Direction::kToTarget) {
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && !pdu.is_read() &&
        !pdu.data.empty()) {
      // Immediate data starts at the command's LBA. mutable_span() clones
      // the payload iff another holder (journal, retransmit queue) still
      // references the plaintext bytes.
      crypt(true, pdu.lba, pdu.data.mutable_span());
      encrypted_ += pdu.data.size();
      encrypted_counter_.in(ctx.scope()).add(pdu.data.size());
      verdict.cpu_cost = config_.per_io + static_cast<sim::Duration>(
          config_.ns_per_byte * static_cast<double>(pdu.data.size()));
      // Remember the burst's starting LBA for its Data-Out tail.
      if (!pdu.is_final()) write_lbas_[pdu.task_tag] = pdu.lba;
      return verdict;
    }
    if (pdu.opcode == iscsi::Opcode::kDataOut && !pdu.data.empty()) {
      auto lba = write_lbas_.find(pdu.task_tag);
      if (lba != write_lbas_.end()) {
        crypt(true, lba->second + pdu.data_offset / block::kSectorSize,
              pdu.data.mutable_span());
        encrypted_ += pdu.data.size();
        encrypted_counter_.in(ctx.scope()).add(pdu.data.size());
        verdict.cpu_cost = static_cast<sim::Duration>(
            config_.ns_per_byte * static_cast<double>(pdu.data.size()));
        if (pdu.is_final()) write_lbas_.erase(lba);
      }
      return verdict;
    }
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && pdu.is_read()) {
      tracker_.on_to_target(pdu);
    }
    return verdict;
  }
  // To initiator: decrypt Data-In against the read command's geometry.
  if (pdu.opcode == iscsi::Opcode::kDataIn && !pdu.data.empty()) {
    auto info = tracker_.read_info(pdu.task_tag);
    if (info) {
      crypt(false, info->lba + pdu.data_offset / block::kSectorSize,
            pdu.data.mutable_span());
      decrypted_ += pdu.data.size();
      decrypted_counter_.in(ctx.scope()).add(pdu.data.size());
      verdict.cpu_cost = config_.per_io + static_cast<sim::Duration>(
          config_.ns_per_byte * static_cast<double>(pdu.data.size()));
    }
  } else if (pdu.opcode == iscsi::Opcode::kScsiResponse) {
    tracker_.on_response(pdu.task_tag);
  }
  return verdict;
}

}  // namespace storm::services
