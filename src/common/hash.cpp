#include "common/hash.hpp"

#include <array>
#include <cstddef>

#include "common/cpu.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STORM_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace storm {
namespace {

// --- portable kernel: slice-by-8 ----------------------------------------
//
// kCrcTables[0] is the classic byte-at-a-time table for the reflected
// IEEE polynomial; kCrcTables[k][i] is the CRC register after feeding byte
// i followed by k zero bytes, so eight lookups advance the register by
// eight input bytes at once. Built at compile time: no init guard on the
// hot path and no static-initialisation order to get wrong.

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advances the (pre-inverted) CRC register `c` over `n` bytes.
std::uint32_t crc_slice8(std::uint32_t c, const std::uint8_t* p,
                         std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = load_le32(p) ^ c;
    std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef STORM_CRC32_CLMUL

// --- fast kernel: PCLMULQDQ folding (x86-64) -----------------------------
//
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected domain with
// the constants zlib's crc32_simd uses: four 128-bit lanes fold 64 bytes
// per step (k1,k2), collapse to one lane and fold 16 bytes at a time
// (k3,k4), fold 128 -> 64 bits (k5), then a Barrett reduction (P, mu)
// yields the 32-bit register. Requires n >= 64 and n % 16 == 0; `c` is
// the pre-inverted register.

alignas(16) constexpr std::uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr std::uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr std::uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
alignas(16) constexpr std::uint64_t kPoly[2] = {0x01db710641, 0x01f7011641};

#define STORM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

STORM_CLMUL_TARGET inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: x's two 64-bit halves times k's, xor `next`.
STORM_CLMUL_TARGET inline __m128i fold128(__m128i x, __m128i k, __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

STORM_CLMUL_TARGET std::uint32_t crc_fold(std::uint32_t c,
                                          const std::uint8_t* p,
                                          std::size_t n) {
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold128(x1, k, load128(p));
    x2 = fold128(x2, k, load128(p + 16));
    x3 = fold128(x3, k, load128(p + 32));
    x4 = fold128(x4, k, load128(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x1 = fold128(x1, k, x2);
  x1 = fold128(x1, k, x3);
  x1 = fold128(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = fold128(x1, k, load128(p));
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);

  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kPoly));
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef STORM_CLMUL_TARGET
#endif  // STORM_CRC32_CLMUL

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef STORM_CRC32_CLMUL
  if (n >= 64 && cpu::has(cpu::kClmul)) {
    std::size_t bulk = n & ~std::size_t{15};
    c_ = crc_fold(c_, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  c_ = crc_slice8(c_, p, n);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 state;
  state.update(data);
  return state.final();
}

namespace detail {

std::uint32_t crc32_portable(std::span<const std::uint8_t> data) {
  return crc_slice8(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace detail

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (char ch : s) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace storm
