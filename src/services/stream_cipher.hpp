// Stream-cipher service: ChaCha20 keyed to the absolute byte position on
// the volume. This is the measurable per-bit workload the paper runs
// inside the middle-box for its processing-overhead experiments
// (Figures 5, 6, 8, 9): it "operates on each bit of the raw data".
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "core/service.hpp"
#include "services/write_tracker.hpp"

namespace storm::services {

struct StreamCipherConfig {
  /// ChaCha20 software throughput (~1.3 GB/s per 2016 core).
  double ns_per_byte = 0.75;
};

class StreamCipherService : public core::StorageService {
 public:
  explicit StreamCipherService(Bytes key = Bytes(32, 0x42),
                               StreamCipherConfig config = {});

  std::string name() const override { return "stream_cipher"; }
  // Bypassing the cipher would put plaintext on the storage network.
  bool confidentiality_critical() const override { return true; }
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) override;
  // A new host means a new scope: drop the cached counter.
  void bind_host(const core::ServiceHost& /*host*/) override {
    bytes_counter_.reset();
  }

  std::uint64_t bytes_processed() const { return processed_; }

 private:
  void crypt(std::uint64_t byte_position, std::span<std::uint8_t> data);

  std::array<std::uint8_t, 32> key_{};
  StreamCipherConfig config_;
  IoTracker tracker_;
  std::map<std::uint32_t, std::uint64_t> write_lbas_;
  std::uint64_t processed_ = 0;
  // "stream_cipher.bytes_processed" in the hosting relay's scope.
  obs::CounterHandle bytes_counter_{"stream_cipher.bytes_processed"};
};

}  // namespace storm::services
