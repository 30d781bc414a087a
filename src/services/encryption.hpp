// Data-encryption middle-box (paper §V-B2): AES-XTS per 512-byte sector,
// the dm-crypt configuration of the paper's prototype. Tenant data is
// encrypted before it reaches the storage backend and decrypted on the
// way back — the tenant VM and the target both see only their native
// format (transparent deployment, no volume reformatting).
#pragma once

#include <cstdint>
#include <string>

#include "crypto/aes.hpp"
#include "services/cipher_service.hpp"

namespace storm::services {

struct EncryptionConfig {
  /// Software AES-XTS on the middle-box's dedicated vCPUs
  /// (~160 MB/s per core, 2016-era guests).
  double ns_per_byte = 4.0;
  sim::Duration per_io = sim::microseconds(1);
};

class EncryptionService : public CipherService {
 public:
  /// `key` is 32 or 64 bytes (split into data/tweak halves; 64 bytes
  /// gives AES-256-XTS as in the paper).
  EncryptionService(Bytes key, EncryptionConfig config = {});

  std::string name() const override { return "encryption"; }
  // A new host means a new scope: drop the cached counters.
  void bind_host(const core::ServiceHost& /*host*/) override {
    encrypted_counter_.reset();
    decrypted_counter_.reset();
  }

  std::uint64_t bytes_encrypted() const { return encrypted_; }
  std::uint64_t bytes_decrypted() const { return decrypted_; }

 protected:
  void crypt(core::ServiceContext& ctx, core::Direction dir,
             std::uint64_t byte_position,
             std::span<std::uint8_t> data) override;
  /// Data-Out continues an I/O whose command already paid `per_io`.
  sim::Duration cost(iscsi::Opcode op, std::size_t bytes) const override {
    return (op == iscsi::Opcode::kDataOut ? 0 : config_.per_io) +
           static_cast<sim::Duration>(config_.ns_per_byte *
                                      static_cast<double>(bytes));
  }

 private:
  crypto::AesXts xts_;
  EncryptionConfig config_;
  std::uint64_t encrypted_ = 0;
  std::uint64_t decrypted_ = 0;
  // In the hosting relay's scope.
  obs::CounterHandle encrypted_counter_{"encryption.bytes_encrypted"};
  obs::CounterHandle decrypted_counter_{"encryption.bytes_decrypted"};
};

}  // namespace storm::services
