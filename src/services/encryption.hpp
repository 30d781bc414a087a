// Data-encryption middle-box (paper §V-B2): AES-XTS per 512-byte sector,
// the dm-crypt configuration of the paper's prototype. Tenant data is
// encrypted before it reaches the storage backend and decrypted on the
// way back — the tenant VM and the target both see only their native
// format (transparent deployment, no volume reformatting).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/service.hpp"
#include "crypto/aes.hpp"
#include "services/write_tracker.hpp"

namespace storm::services {

struct EncryptionConfig {
  /// Software AES-XTS on the middle-box's dedicated vCPUs
  /// (~160 MB/s per core, 2016-era guests).
  double ns_per_byte = 4.0;
  sim::Duration per_io = sim::microseconds(1);
};

class EncryptionService : public core::StorageService {
 public:
  /// `key` is 32 or 64 bytes (split into data/tweak halves; 64 bytes
  /// gives AES-256-XTS as in the paper).
  EncryptionService(Bytes key, EncryptionConfig config = {});

  std::string name() const override { return "encryption"; }
  // Bypassing the cipher would put plaintext on the storage network.
  bool confidentiality_critical() const override { return true; }
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) override;
  // A new host means a new scope: drop the cached counters.
  void bind_host(const core::ServiceHost& /*host*/) override {
    encrypted_counter_.reset();
    decrypted_counter_.reset();
  }

  std::uint64_t bytes_encrypted() const { return encrypted_; }
  std::uint64_t bytes_decrypted() const { return decrypted_; }

 private:
  void crypt(bool encrypt, std::uint64_t first_sector,
             std::span<std::uint8_t> data);

  std::unique_ptr<crypto::AesXts> xts_;
  EncryptionConfig config_;
  IoTracker tracker_;
  /// In-flight write bursts: task tag -> starting LBA (Data-Out PDUs only
  /// carry byte offsets).
  std::map<std::uint32_t, std::uint64_t> write_lbas_;
  std::uint64_t encrypted_ = 0;
  std::uint64_t decrypted_ = 0;
  // In the hosting relay's scope.
  obs::CounterHandle encrypted_counter_{"encryption.bytes_encrypted"};
  obs::CounterHandle decrypted_counter_{"encryption.bytes_decrypted"};
};

}  // namespace storm::services
