#include "crypto/chacha20.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/cpu.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STORM_CHACHA_AVX2 1
#include <immintrin.h>
#endif

namespace storm::crypto {
namespace {

using State = std::array<std::uint32_t, 16>;

constexpr std::size_t kBlockBytes = 64;

std::uint32_t rotl(std::uint32_t v, int n) {
  return (v << n) | (v >> (32 - n));
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// --- portable kernel: one block at a time ------------------------------------

void keystream_block(const State& state, std::uint64_t block,
                     std::uint8_t out[kBlockBytes]) {
  State in = state;
  in[12] = static_cast<std::uint32_t>(block);
  in[13] += static_cast<std::uint32_t>(block >> 32);
  State x = in;
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, x[i] + in[i]);
}

void xor_portable(const State& state, std::uint64_t block, std::size_t skip,
                  std::uint8_t* p, std::size_t n) {
  std::uint8_t keystream[kBlockBytes];
  while (n > 0) {
    keystream_block(state, block++, keystream);
    std::size_t take = std::min(kBlockBytes - skip, n);
    for (std::size_t i = 0; i < take; ++i) p[i] ^= keystream[skip + i];
    p += take;
    n -= take;
    skip = 0;
  }
}

// --- AVX2 kernel: eight blocks at once (x86-64) ------------------------------
//
// Vector i holds state word i of eight consecutive blocks, one per 32-bit
// lane, so the quarter rounds run unchanged on all eight. An 8x8 transpose
// of 32-bit words then turns the lanes back into contiguous blocks.

#ifdef STORM_CHACHA_AVX2
#define STORM_AVX2_TARGET __attribute__((target("avx2")))

constexpr std::size_t kLanes = 8;

template <int N>
STORM_AVX2_TARGET inline __m256i rotl_lanes(__m256i v) {
  return _mm256_or_si256(_mm256_slli_epi32(v, N), _mm256_srli_epi32(v, 32 - N));
}

STORM_AVX2_TARGET inline void quarter_round_lanes(__m256i& a, __m256i& b,
                                                  __m256i& c, __m256i& d) {
  // Rotations by 16 and 8 move whole bytes: one shuffle each.
  const __m256i rot16 = _mm256_set_epi8(
      13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
      13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
  const __m256i rot8 = _mm256_set_epi8(
      14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
      14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = rotl_lanes<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = rotl_lanes<7>(_mm256_xor_si256(b, c));
}

/// Writes words w..w+7 of each of the eight blocks in `x` to `out`.
STORM_AVX2_TARGET inline void store_transposed(const __m256i* x, std::size_t w,
                                               std::uint8_t* out) {
  // After two unpack levels u[j] holds word j of blocks 0 and 4 from
  // x[w..w+3] (one block per 128-bit half) and v[j] the same from
  // x[w+4..w+7].
  __m256i u[4];
  __m256i v[4];
  for (int h = 0; h < 2; ++h) {
    const __m256i* s = x + w + 4 * h;
    __m256i* d = h == 0 ? u : v;
    __m256i t0 = _mm256_unpacklo_epi32(s[0], s[1]);
    __m256i t1 = _mm256_unpackhi_epi32(s[0], s[1]);
    __m256i t2 = _mm256_unpacklo_epi32(s[2], s[3]);
    __m256i t3 = _mm256_unpackhi_epi32(s[2], s[3]);
    d[0] = _mm256_unpacklo_epi64(t0, t2);
    d[1] = _mm256_unpackhi_epi64(t0, t2);
    d[2] = _mm256_unpacklo_epi64(t1, t3);
    d[3] = _mm256_unpackhi_epi64(t1, t3);
  }
  for (int j = 0; j < 4; ++j) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(out + kBlockBytes * j + 4 * w),
        _mm256_permute2x128_si256(u[j], v[j], 0x20));
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(out + kBlockBytes * (j + 4) + 4 * w),
        _mm256_permute2x128_si256(u[j], v[j], 0x31));
  }
}

/// Eight keystream blocks from `block` on into the 32-byte aligned `out`.
STORM_AVX2_TARGET void keystream_8(const State& state, std::uint64_t block,
                                   std::uint8_t* out) {
  alignas(32) std::uint32_t lo[kLanes];
  alignas(32) std::uint32_t hi[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) {
    lo[j] = static_cast<std::uint32_t>(block + j);
    hi[j] = state[13] + static_cast<std::uint32_t>((block + j) >> 32);
  }
  __m256i in[16];
  for (int i = 0; i < 16; ++i) {
    in[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }
  in[12] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lo));
  in[13] = _mm256_load_si256(reinterpret_cast<const __m256i*>(hi));

  __m256i x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  for (int i = 0; i < 10; ++i) {
    quarter_round_lanes(x[0], x[4], x[8], x[12]);
    quarter_round_lanes(x[1], x[5], x[9], x[13]);
    quarter_round_lanes(x[2], x[6], x[10], x[14]);
    quarter_round_lanes(x[3], x[7], x[11], x[15]);
    quarter_round_lanes(x[0], x[5], x[10], x[15]);
    quarter_round_lanes(x[1], x[6], x[11], x[12]);
    quarter_round_lanes(x[2], x[7], x[8], x[13]);
    quarter_round_lanes(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], in[i]);
  store_transposed(x, 0, out);
  store_transposed(x, 8, out);
}

STORM_AVX2_TARGET void xor_avx2(const State& state, std::uint64_t block,
                                std::size_t skip, std::uint8_t* p,
                                std::size_t n) {
  constexpr std::size_t kBatch = kLanes * kBlockBytes;
  alignas(32) std::uint8_t keystream[kBatch];
  while (n > 0) {
    keystream_8(state, block, keystream);
    block += kLanes;
    std::size_t take = std::min(kBatch - skip, n);
    if (take == kBatch) {
      for (std::size_t i = 0; i < kBatch; i += 32) {
        auto* d = reinterpret_cast<__m256i*>(p + i);
        _mm256_storeu_si256(
            d, _mm256_xor_si256(
                   _mm256_loadu_si256(d),
                   _mm256_load_si256(
                       reinterpret_cast<const __m256i*>(keystream + i))));
      }
    } else {
      for (std::size_t i = 0; i < take; ++i) p[i] ^= keystream[skip + i];
    }
    p += take;
    n -= take;
    skip = 0;
  }
}

#undef STORM_AVX2_TARGET
#endif  // STORM_CHACHA_AVX2

void check_skip(std::size_t skip) {
  if (skip >= kBlockBytes) {
    throw std::invalid_argument("chacha20: skip must be below 64");
  }
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> nonce) {
  if (key.size() != 32 || nonce.size() != 12) {
    throw std::invalid_argument("chacha20: key=32B nonce=12B required");
  }
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

void ChaCha20::xor_keystream(std::uint64_t block, std::size_t skip,
                             std::span<std::uint8_t> data) const {
  check_skip(skip);
#ifdef STORM_CHACHA_AVX2
  if (cpu::has(cpu::kAvx2)) {
    xor_avx2(state_, block, skip, data.data(), data.size());
    return;
  }
#endif
  xor_portable(state_, block, skip, data.data(), data.size());
}

namespace detail {

void chacha20_xor_portable(const ChaCha20& cipher, std::uint64_t block,
                           std::size_t skip, std::span<std::uint8_t> data) {
  check_skip(skip);
  xor_portable(cipher.state_, block, skip, data.data(), data.size());
}

}  // namespace detail

}  // namespace storm::crypto
