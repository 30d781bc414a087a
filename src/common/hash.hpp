// Non-cryptographic hashes: CRC32 (iSCSI-style data digests) and FNV-1a
// (hash-table keys for the semantics-reconstruction block index).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace storm {

/// CRC32 (IEEE 802.3 polynomial, reflected). Used as the data digest on
/// simulated iSCSI PDUs, the TCP checksum and journal record framing.
/// On x86-64 hosts with PCLMULQDQ, spans of 64 bytes or more are folded
/// with carry-less multiplies; everything else runs slice-by-8. Both
/// produce the same value bit for bit.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental CRC32 over a sequence of spans; final() equals crc32() of
/// the concatenation. Lets chunked serializers digest a scattered PDU
/// without first flattening it.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data);
  std::uint32_t final() const { return c_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t c_ = 0xFFFFFFFFu;
};

namespace detail {
/// The slice-by-8 kernel alone, bypassing the hardware dispatch. For
/// equivalence tests and microbenchmarks only.
std::uint32_t crc32_portable(std::span<const std::uint8_t> data);
}  // namespace detail

/// 64-bit FNV-1a.
std::uint64_t fnv1a(std::string_view s);
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

}  // namespace storm
