// AES block cipher (FIPS 197) and the XTS mode, implemented from scratch.
// This is the cipher the encryption middle-box service applies per
// sector, mirroring the paper's dm-crypt AES-256 setup.
//
// Two XTS kernels produce the same bytes. On x86-64 CPUs with AES-NI,
// AesXts runs the AES round instructions with eight blocks in flight;
// that kernel is constant-time (no key- or data-dependent table lookups
// or branches). Elsewhere it runs the portable byte-S-box kernel, which
// is NOT constant-time (table based); acceptable for a simulation and
// research codebase, noted here per standard disclosure practice. The
// single-block Aes calls always run the portable kernel.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace storm::crypto {

/// AES with a 128- or 256-bit key. Encrypt/decrypt a single 16-byte block.
class Aes {
 public:
  /// key.size() must be 16 or 32 bytes.
  explicit Aes(std::span<const std::uint8_t> key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  int rounds() const { return rounds_; }
  /// The expanded key, (rounds + 1) * 16 bytes in FIPS 197 byte order.
  const std::uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  int rounds_;                                  // 10 (AES-128) or 14 (AES-256)
  std::array<std::uint8_t, 16 * 15> round_keys_{};  // (rounds+1) * 16
};

class AesXts;

namespace detail {
/// The portable kernel alone, bypassing the AES-NI dispatch: XTS in place
/// over `data` in data units of `unit_bytes` (a multiple of 16), unit i
/// under sector number first_sector + i. For equivalence tests and
/// microbenchmarks only.
void xts_crypt_portable(const AesXts& xts, bool encrypt,
                        std::uint64_t first_sector, std::size_t unit_bytes,
                        std::span<std::uint8_t> data);
}  // namespace detail

/// XTS-AES for sector storage (IEEE 1619, without ciphertext stealing:
/// data length must be a multiple of 16 bytes, which holds for 512-byte
/// sectors). Uses two independent keys: `data_key` for the blocks and
/// `tweak_key` to encrypt the sector number into the initial tweak.
class AesXts {
 public:
  static constexpr std::size_t kSectorBytes = 512;

  /// Each key is 16 or 32 bytes (both must be the same size).
  AesXts(std::span<const std::uint8_t> data_key,
         std::span<const std::uint8_t> tweak_key);
  /// A dm-crypt style key pair of 32 or 64 bytes: the data key, then the
  /// tweak key (64 bytes gives AES-256-XTS).
  explicit AesXts(std::span<const std::uint8_t> key_pair);

  /// One data unit of in.size() bytes (a multiple of 16) under `sector`.
  void encrypt_sector(std::uint64_t sector, std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) const;
  void decrypt_sector(std::uint64_t sector, std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) const;

  /// Whole 512-byte sectors in place: data.size() must be a multiple of
  /// kSectorBytes, and sector i of `data` is sector first_sector + i.
  void encrypt_sectors(std::uint64_t first_sector,
                       std::span<std::uint8_t> data) const;
  void decrypt_sectors(std::uint64_t first_sector,
                       std::span<std::uint8_t> data) const;

 private:
  friend void detail::xts_crypt_portable(const AesXts&, bool, std::uint64_t,
                                         std::size_t,
                                         std::span<std::uint8_t>);

  void crypt(bool encrypt, std::uint64_t first_sector, std::size_t unit_bytes,
             std::span<std::uint8_t> data) const;

  Aes data_cipher_;
  Aes tweak_cipher_;
};

}  // namespace storm::crypto
