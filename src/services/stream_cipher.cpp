#include "services/stream_cipher.hpp"

namespace storm::services {
namespace {

constexpr std::uint8_t kNonce[12] = {};

}  // namespace

StreamCipherService::StreamCipherService(Bytes key,
                                         StreamCipherConfig config)
    : cipher_(key, kNonce), config_(config) {}

void StreamCipherService::crypt(core::ServiceContext& ctx,
                                core::Direction /*dir*/,
                                std::uint64_t byte_position,
                                std::span<std::uint8_t> data) {
  // Keyed to the volume position, so random access stays self-consistent
  // (encrypt == decrypt); the 64-bit block index never repeats a
  // keystream within a volume.
  cipher_.xor_keystream(byte_position / 64, byte_position % 64, data);
  processed_ += data.size();
  bytes_counter_.in(ctx.scope()).add(data.size());
}

}  // namespace storm::services
