// Tenant-side encryption baseline ("performed by the tenant VM" in the
// paper's Figures 10/11): a dm-crypt-style layer stacked on the VM's
// virtual disk. Cipher work runs on the *tenant VM's* vCPUs and — like
// dm-crypt holding application threads while encrypting and flushing —
// the submitting I/O blocks until the cipher work completes.
#pragma once

#include <cstdint>

#include "block/block_device.hpp"
#include "crypto/aes.hpp"
#include "sim/cpu.hpp"
#include "sim/task.hpp"

namespace storm::services {

struct EncryptedDiskConfig {
  /// In-guest kernel crypto without hardware offload (~70 MB/s per core,
  /// 2016-era): the cost dm-crypt charges the tenant VM per byte.
  double ns_per_byte = 14.0;
  /// Fixed per-I/O cost: dm-crypt's workqueue dispatch and the spinlock
  /// time it "holds application threads on ... while encrypting/flushing
  /// writes" (paper §V-B2). Dominates for small-file workloads; noise for
  /// large streaming I/O.
  sim::Duration per_io = sim::microseconds(500);
};

class EncryptedDisk : public block::BlockDevice {
 public:
  /// `cpu` is the tenant VM's vCPU set; cipher work contends with the
  /// VM's foreground application there.
  EncryptedDisk(block::BlockDevice& inner, sim::Cpu& cpu, Bytes key,
                EncryptedDiskConfig config = {});

  void read(std::uint64_t lba, std::uint32_t count,
            ReadCallback done) override;
  void write(std::uint64_t lba, Bytes data, WriteCallback done) override;
  std::uint64_t num_sectors() const override { return inner_.num_sectors(); }

  std::uint64_t bytes_ciphered() const { return ciphered_; }

 private:
  sim::Duration cost_of(std::size_t bytes) const {
    return config_.per_io +
           static_cast<sim::Duration>(config_.ns_per_byte *
                                      static_cast<double>(bytes));
  }
  /// Charge the cipher cost of `bytes` on the VM's vCPUs.
  sim::Task<void> cipher_work(std::size_t bytes);
  sim::Task<void> encrypt_and_write(std::uint64_t lba, Bytes data,
                                    WriteCallback done);
  sim::Task<void> read_and_decrypt(std::uint64_t lba, std::uint32_t count,
                                   ReadCallback done);

  block::BlockDevice& inner_;
  sim::Cpu& cpu_;
  crypto::AesXts xts_;
  EncryptedDiskConfig config_;
  std::uint64_t ciphered_ = 0;
};

}  // namespace storm::services
