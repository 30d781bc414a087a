// Stream-cipher service: ChaCha20 keyed to the absolute byte position on
// the volume. This is the measurable per-bit workload the paper runs
// inside the middle-box for its processing-overhead experiments
// (Figures 5, 6, 8, 9): it "operates on each bit of the raw data".
#pragma once

#include <cstdint>
#include <string>

#include "crypto/chacha20.hpp"
#include "services/cipher_service.hpp"

namespace storm::services {

struct StreamCipherConfig {
  /// ChaCha20 software throughput (~1.3 GB/s per 2016 core).
  double ns_per_byte = 0.75;
};

class StreamCipherService : public CipherService {
 public:
  explicit StreamCipherService(Bytes key = Bytes(32, 0x42),
                               StreamCipherConfig config = {});

  std::string name() const override { return "stream_cipher"; }
  // A new host means a new scope: drop the cached counter.
  void bind_host(const core::ServiceHost& /*host*/) override {
    bytes_counter_.reset();
  }

  std::uint64_t bytes_processed() const { return processed_; }

 protected:
  void crypt(core::ServiceContext& ctx, core::Direction dir,
             std::uint64_t byte_position,
             std::span<std::uint8_t> data) override;
  sim::Duration cost(iscsi::Opcode /*op*/, std::size_t bytes) const override {
    return static_cast<sim::Duration>(config_.ns_per_byte *
                                      static_cast<double>(bytes));
  }

 private:
  crypto::ChaCha20 cipher_;
  StreamCipherConfig config_;
  std::uint64_t processed_ = 0;
  // "stream_cipher.bytes_processed" in the hosting relay's scope.
  obs::CounterHandle bytes_counter_{"stream_cipher.bytes_processed"};
};

}  // namespace storm::services
