// AES block cipher (FIPS 197) with CTR and XTS modes, implemented from
// scratch. This is the cipher the encryption middle-box service applies
// per sector, mirroring the paper's dm-crypt AES-256 setup.
//
// Not constant-time (table based); acceptable for a simulation/research
// codebase, noted here per standard disclosure practice.
#pragma once

#include <array>
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

 private:
  int rounds_;                                  // 10 (AES-128) or 14 (AES-256)
  std::array<std::uint8_t, 16 * 15> round_keys_{};  // (rounds+1) * 16
};

/// XTS-AES for sector storage (IEEE 1619, without ciphertext stealing:
/// data length must be a multiple of 16 bytes, which holds for 512-byte
/// sectors). Uses two independent keys: `data_key` for the blocks and
/// `tweak_key` to encrypt the sector number into the initial tweak.
class AesXts {
 public:
  /// Each key is 16 or 32 bytes (both must be the same size).
  AesXts(std::span<const std::uint8_t> data_key,
         std::span<const std::uint8_t> tweak_key);

  void encrypt_sector(std::uint64_t sector, std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) const;
  void decrypt_sector(std::uint64_t sector, std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) const;

 private:
  void crypt(bool encrypt, std::uint64_t sector,
             std::span<const std::uint8_t> in,
             std::span<std::uint8_t> out) const;

  Aes data_cipher_;
  Aes tweak_cipher_;
};

}  // namespace storm::crypto
