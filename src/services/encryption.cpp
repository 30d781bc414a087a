#include "services/encryption.hpp"

#include "block/block_device.hpp"

namespace storm::services {

EncryptionService::EncryptionService(Bytes key, EncryptionConfig config)
    : xts_(key), config_(config) {}

void EncryptionService::crypt(core::ServiceContext& ctx, core::Direction dir,
                              std::uint64_t byte_position,
                              std::span<std::uint8_t> data) {
  // Whole sectors only: a trailing partial sector passes unchanged.
  std::span<std::uint8_t> sectors =
      data.first(data.size() - data.size() % block::kSectorSize);
  const std::uint64_t first_sector = byte_position / block::kSectorSize;
  if (dir == core::Direction::kToTarget) {
    xts_.encrypt_sectors(first_sector, sectors);
    encrypted_ += data.size();
    encrypted_counter_.in(ctx.scope()).add(data.size());
  } else {
    xts_.decrypt_sectors(first_sector, sectors);
    decrypted_ += data.size();
    decrypted_counter_.in(ctx.scope()).add(data.size());
  }
}

}  // namespace storm::services
