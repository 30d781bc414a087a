// The shape both cipher middle-boxes share: rewrite every payload byte
// in place, encrypting toward the target and decrypting toward the
// initiator, keyed to the bytes' position on the volume. The routing
// lives here once: immediate data at the command's LBA, the Data-Out tail
// at the LBA its command recorded, Data-In at the geometry of its read
// command. Each cipher supplies only its transform and its CPU cost.
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "core/service.hpp"
#include "services/write_tracker.hpp"

namespace storm::services {

class CipherService : public core::StorageService {
 public:
  // Bypassing the cipher would put plaintext on the storage network.
  bool confidentiality_critical() const override { return true; }
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) final;

 protected:
  /// Encrypt (kToTarget) or decrypt (kToInitiator) `data` in place;
  /// data[0] sits at `byte_position` on the volume.
  virtual void crypt(core::ServiceContext& ctx, core::Direction dir,
                     std::uint64_t byte_position,
                     std::span<std::uint8_t> data) = 0;
  /// Simulated CPU time to cipher the `bytes` of one PDU of type `op`
  /// (kScsiCommand, kDataOut or kDataIn).
  virtual sim::Duration cost(iscsi::Opcode op, std::size_t bytes) const = 0;

 private:
  core::ServiceVerdict transform(core::ServiceContext& ctx,
                                 core::Direction dir,
                                 std::uint64_t byte_position,
                                 iscsi::Pdu& pdu);

  IoTracker tracker_;
  /// In-flight write bursts: task tag -> starting LBA (Data-Out PDUs only
  /// carry byte offsets).
  std::map<std::uint32_t, std::uint64_t> write_lbas_;
};

}  // namespace storm::services
