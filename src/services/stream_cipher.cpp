#include "services/stream_cipher.hpp"

#include <cstring>
#include <stdexcept>

#include "block/block_device.hpp"
#include "crypto/chacha20.hpp"

namespace storm::services {

StreamCipherService::StreamCipherService(Bytes key,
                                         StreamCipherConfig config)
    : config_(config) {
  if (key.size() != 32) {
    throw std::invalid_argument("StreamCipherService: key must be 32 bytes");
  }
  std::memcpy(key_.data(), key.data(), 32);
}

void StreamCipherService::crypt(std::uint64_t byte_position,
                                std::span<std::uint8_t> data) {
  // Key the stream to the 64-byte-block-aligned volume position so random
  // access stays self-consistent; handle intra-block offsets by
  // processing the unaligned head separately.
  std::size_t done = 0;
  while (done < data.size()) {
    std::uint64_t pos = byte_position + done;
    std::uint32_t counter = static_cast<std::uint32_t>(pos / 64);
    std::uint32_t skip = static_cast<std::uint32_t>(pos % 64);
    std::uint8_t nonce[12] = {};
    std::uint8_t block[64];
    crypto::chacha20_block(key_, std::span<const std::uint8_t>(nonce, 12),
                           counter, block);
    std::size_t n = std::min<std::size_t>(64 - skip, data.size() - done);
    for (std::size_t i = 0; i < n; ++i) {
      data[done + i] ^= block[skip + i];
    }
    done += n;
  }
  processed_ += data.size();
}

core::ServiceVerdict StreamCipherService::on_pdu(core::ServiceContext& ctx,
                                                 core::Direction dir,
                                                 iscsi::Pdu& pdu) {
  core::ServiceVerdict verdict;
  auto cost_of = [this, &ctx](std::size_t bytes) {
    bytes_counter_.in(ctx.scope()).add(bytes);
    return static_cast<sim::Duration>(config_.ns_per_byte *
                                      static_cast<double>(bytes));
  };
  if (dir == core::Direction::kToTarget) {
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && !pdu.is_read() &&
        !pdu.data.empty()) {
      // COW: clones the payload iff the journal or a retransmit queue
      // still references the plaintext bytes.
      crypt(pdu.lba * block::kSectorSize, pdu.data.mutable_span());
      verdict.cpu_cost = cost_of(pdu.data.size());
      if (!pdu.is_final()) write_lbas_[pdu.task_tag] = pdu.lba;
    } else if (pdu.opcode == iscsi::Opcode::kDataOut && !pdu.data.empty()) {
      auto lba = write_lbas_.find(pdu.task_tag);
      if (lba != write_lbas_.end()) {
        crypt(lba->second * block::kSectorSize + pdu.data_offset,
              pdu.data.mutable_span());
        verdict.cpu_cost = cost_of(pdu.data.size());
        if (pdu.is_final()) write_lbas_.erase(lba);
      }
    } else if (pdu.opcode == iscsi::Opcode::kScsiCommand && pdu.is_read()) {
      tracker_.on_to_target(pdu);
    }
    return verdict;
  }
  if (pdu.opcode == iscsi::Opcode::kDataIn && !pdu.data.empty()) {
    if (auto info = tracker_.read_info(pdu.task_tag)) {
      crypt(info->lba * block::kSectorSize + pdu.data_offset,
            pdu.data.mutable_span());
      verdict.cpu_cost = cost_of(pdu.data.size());
    }
  } else if (pdu.opcode == iscsi::Opcode::kScsiResponse) {
    tracker_.on_response(pdu.task_tag);
  }
  return verdict;
}

}  // namespace storm::services
