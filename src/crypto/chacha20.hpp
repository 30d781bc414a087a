// ChaCha20 stream cipher (RFC 8439). Used as the "stream cipher" service
// the paper runs inside the middle-box for the Figure 5/6/8/9 benches
// ("operates on each bit of the raw data").
//
// Two keystream kernels produce the same bytes: on x86-64 CPUs with AVX2
// eight blocks are computed at once, one per 32-bit vector lane;
// elsewhere a scalar kernel computes one block at a time. ChaCha20 uses
// only additions, rotations and XORs, so both are constant-time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace storm::crypto {

class ChaCha20;

namespace detail {
/// The scalar kernel alone, bypassing the AVX2 dispatch; same contract as
/// ChaCha20::xor_keystream. For equivalence tests and microbenchmarks only.
void chacha20_xor_portable(const ChaCha20& cipher, std::uint64_t block,
                           std::size_t skip, std::span<std::uint8_t> data);
}  // namespace detail

/// A ChaCha20 key and nonce, parsed and checked once.
class ChaCha20 {
 public:
  /// key is 32 bytes, nonce is 12 bytes.
  ChaCha20(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> nonce);

  /// XOR `data` in place with the keystream from byte `skip` (< 64) of
  /// block `block` on. The block index is a 64-bit counter: its low half
  /// is the RFC's 32-bit block counter and its high half is added to
  /// nonce word 0, so below 2^32 blocks the stream is RFC 8439's and past
  /// it no keystream repeats.
  void xor_keystream(std::uint64_t block, std::size_t skip,
                     std::span<std::uint8_t> data) const;

 private:
  friend void detail::chacha20_xor_portable(const ChaCha20&, std::uint64_t,
                                            std::size_t,
                                            std::span<std::uint8_t>);

  /// The input state with a zero block counter: constants, key, counter,
  /// nonce.
  std::array<std::uint32_t, 16> state_{};
};

}  // namespace storm::crypto
