#include "crypto/aes.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/cpu.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STORM_AES_NI 1
#include <immintrin.h>
#endif

namespace storm::crypto {
namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t kRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08,
                                    0x10, 0x20, 0x40, 0x80, 0x1b,
                                    0x36, 0x6c, 0xd8, 0xab, 0x4d};

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key) {
  const std::size_t nk = key.size() / 4;  // key words: 4 or 8
  if (key.size() != 16 && key.size() != 32) {
    throw std::invalid_argument("Aes: key must be 16 or 32 bytes");
  }
  rounds_ = (nk == 4) ? 10 : 14;
  const std::size_t total_words = 4ull * (rounds_ + 1);

  std::uint8_t w[60][4];  // max 60 words for AES-256
  for (std::size_t i = 0; i < nk; ++i) {
    std::memcpy(w[i], key.data() + 4 * i, 4);
  }
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, w[i - 1], 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      std::uint8_t t = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / nk]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t];
    } else if (nk > 6 && i % nk == 4) {
      for (auto& b : temp) b = kSbox[b];
    }
    for (int j = 0; j < 4; ++j) {
      w[i][j] = static_cast<std::uint8_t>(w[i - nk][j] ^ temp[j]);
    }
  }
  for (std::size_t i = 0; i < total_words; ++i) {
    std::memcpy(round_keys_.data() + 4 * i, w[i], 4);
  }
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    const std::uint8_t* rk = round_keys_.data() + 16 * round;
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  };

  add_round_key(0);
  for (int round = 1; round <= rounds_; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[col*4 + row])
    std::uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[c * 4 + r] = s[((c + r) % 4) * 4 + r];
      }
    }
    std::memcpy(s, t, 16);
    if (round != rounds_) {
      // MixColumns
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = s + 4 * c;
        std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    }
    add_round_key(round);
  }
  std::memcpy(out, s, 16);
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    const std::uint8_t* rk = round_keys_.data() + 16 * round;
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  };

  add_round_key(rounds_);
  for (int round = rounds_ - 1; round >= 0; --round) {
    // InvShiftRows
    std::uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[((c + r) % 4) * 4 + r] = s[c * 4 + r];
      }
    }
    std::memcpy(s, t, 16);
    // InvSubBytes
    for (auto& b : s) b = kInvSbox[b];
    add_round_key(round);
    if (round != 0) {
      // InvMixColumns
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = s + 4 * c;
        std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^
                                           gmul(a2, 0x0d) ^ gmul(a3, 0x09));
        col[1] = static_cast<std::uint8_t>(gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^
                                           gmul(a2, 0x0b) ^ gmul(a3, 0x0d));
        col[2] = static_cast<std::uint8_t>(gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^
                                           gmul(a2, 0x0e) ^ gmul(a3, 0x0b));
        col[3] = static_cast<std::uint8_t>(gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^
                                           gmul(a2, 0x09) ^ gmul(a3, 0x0e));
      }
    }
  }
  std::memcpy(out, s, 16);
}

namespace {

// --- portable XTS kernel -----------------------------------------------------

void xts_portable(const Aes& data, const Aes& tweak, bool encrypt,
                  std::uint64_t sector, std::size_t unit_bytes,
                  std::uint8_t* p, std::size_t n) {
  for (std::size_t unit = 0; unit < n; unit += unit_bytes, ++sector) {
    // Initial tweak: encrypt the little-endian sector number.
    std::uint8_t t[16] = {};
    for (int i = 0; i < 8; ++i) {
      t[i] = static_cast<std::uint8_t>(sector >> (8 * i));
    }
    tweak.encrypt_block(t, t);
    for (std::uint8_t* block = p + unit; block < p + unit + unit_bytes;
         block += 16) {
      for (int i = 0; i < 16; ++i) block[i] ^= t[i];
      if (encrypt) {
        data.encrypt_block(block, block);
      } else {
        data.decrypt_block(block, block);
      }
      for (int i = 0; i < 16; ++i) block[i] ^= t[i];
      // Multiply the tweak by x in GF(2^128), little-endian byte order.
      std::uint8_t carry = 0;
      for (int i = 0; i < 16; ++i) {
        std::uint8_t next_carry = static_cast<std::uint8_t>(t[i] >> 7);
        t[i] = static_cast<std::uint8_t>((t[i] << 1) | carry);
        carry = next_carry;
      }
      if (carry) t[0] ^= 0x87;
    }
  }
}

// --- AES-NI XTS kernel (x86-64) ----------------------------------------------
//
// Eight independent blocks per step keep the AES unit's pipeline full:
// one aesenc has a latency of several cycles but issues every cycle.
// Same data layout as the portable kernel, so the two agree byte for byte.

#ifdef STORM_AES_NI
#define STORM_AES_NI_TARGET __attribute__((target("aes")))

/// The round keys in the order the AES instructions take them. For
/// decryption (FIPS 197's equivalent inverse cipher) that is the
/// encryption schedule reversed, with InvMixColumns applied to every key
/// but the outer two: no second key expansion.
struct NiKeys {
  __m128i k[15];
  int rounds;
};

STORM_AES_NI_TARGET inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

STORM_AES_NI_TARGET inline void store128(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

STORM_AES_NI_TARGET NiKeys ni_keys(const Aes& aes, bool encrypt) {
  NiKeys keys;
  const int nr = aes.rounds();
  keys.rounds = nr;
  for (int r = 0; r <= nr; ++r) {
    __m128i k = load128(aes.round_keys() + 16 * (encrypt ? r : nr - r));
    keys.k[r] = (encrypt || r == 0 || r == nr) ? k : _mm_aesimc_si128(k);
  }
  return keys;
}

template <bool Encrypt>
STORM_AES_NI_TARGET inline __m128i ni_round(__m128i x, __m128i k) {
  return Encrypt ? _mm_aesenc_si128(x, k) : _mm_aesdec_si128(x, k);
}

template <bool Encrypt>
STORM_AES_NI_TARGET inline __m128i ni_last_round(__m128i x, __m128i k) {
  return Encrypt ? _mm_aesenclast_si128(x, k) : _mm_aesdeclast_si128(x, k);
}

template <bool Encrypt>
STORM_AES_NI_TARGET inline __m128i ni_block(const NiKeys& keys, __m128i x) {
  x = _mm_xor_si128(x, keys.k[0]);
  for (int r = 1; r < keys.rounds; ++r) x = ni_round<Encrypt>(x, keys.k[r]);
  return ni_last_round<Encrypt>(x, keys.k[keys.rounds]);
}

/// The tweak times x in GF(2^128): every 32-bit lane shifts left by one
/// and takes the bit its lower neighbour shifted out; the bit leaving the
/// top lane comes back as the reduction 0x87 in the bottom one.
STORM_AES_NI_TARGET inline __m128i mul_x(__m128i t) {
  const __m128i carries = _mm_set_epi32(1, 1, 1, 0x87);
  __m128i out = _mm_srai_epi32(_mm_shuffle_epi32(t, 0x93), 31);
  return _mm_xor_si128(_mm_slli_epi32(t, 1), _mm_and_si128(out, carries));
}

template <bool Encrypt>
STORM_AES_NI_TARGET void xts_ni(const NiKeys& data, const NiKeys& tweak,
                                std::uint64_t sector, std::size_t unit_bytes,
                                std::uint8_t* p, std::size_t n) {
  constexpr int kLanes = 8;
  for (std::size_t unit = 0; unit < n; unit += unit_bytes, ++sector) {
    __m128i t = ni_block<true>(
        tweak, _mm_set_epi64x(0, static_cast<long long>(sector)));
    std::uint8_t* block = p + unit;
    std::uint8_t* const end = block + unit_bytes;
    for (; end - block >= 16 * kLanes; block += 16 * kLanes) {
      // The lane loops are unrolled explicitly so that x[] and tw[] stay
      // in registers at -O2 as well.
      __m128i tw[kLanes];
      __m128i x[kLanes];
#pragma GCC unroll 8
      for (int i = 0; i < kLanes; ++i) {
        tw[i] = t;
        t = mul_x(t);
        x[i] = _mm_xor_si128(_mm_xor_si128(load128(block + 16 * i), tw[i]),
                             data.k[0]);
      }
      for (int r = 1; r < data.rounds; ++r) {
#pragma GCC unroll 8
        for (int i = 0; i < kLanes; ++i) {
          x[i] = ni_round<Encrypt>(x[i], data.k[r]);
        }
      }
#pragma GCC unroll 8
      for (int i = 0; i < kLanes; ++i) {
        x[i] = ni_last_round<Encrypt>(x[i], data.k[data.rounds]);
        store128(block + 16 * i, _mm_xor_si128(x[i], tw[i]));
      }
    }
    for (; block < end; block += 16) {
      __m128i x = ni_block<Encrypt>(data, _mm_xor_si128(load128(block), t));
      store128(block, _mm_xor_si128(x, t));
      t = mul_x(t);
    }
  }
}

STORM_AES_NI_TARGET void xts_aes_ni(const Aes& data, const Aes& tweak,
                                    bool encrypt, std::uint64_t sector,
                                    std::size_t unit_bytes, std::uint8_t* p,
                                    std::size_t n) {
  const NiKeys tweak_keys = ni_keys(tweak, true);
  const NiKeys data_keys = ni_keys(data, encrypt);
  if (encrypt) {
    xts_ni<true>(data_keys, tweak_keys, sector, unit_bytes, p, n);
  } else {
    xts_ni<false>(data_keys, tweak_keys, sector, unit_bytes, p, n);
  }
}

#undef STORM_AES_NI_TARGET
#endif  // STORM_AES_NI

/// XTS works on whole data units of whole 16-byte blocks (no ciphertext
/// stealing).
void check_units(std::size_t unit_bytes, std::size_t n) {
  if (unit_bytes == 0 || unit_bytes % 16 != 0) {
    throw std::invalid_argument("AesXts: length must be a multiple of 16");
  }
  if (n % unit_bytes != 0) {
    throw std::invalid_argument("AesXts: length must be whole data units");
  }
}

}  // namespace

AesXts::AesXts(std::span<const std::uint8_t> data_key,
               std::span<const std::uint8_t> tweak_key)
    : data_cipher_(data_key), tweak_cipher_(tweak_key) {
  if (data_key.size() != tweak_key.size()) {
    throw std::invalid_argument("AesXts: key sizes must match");
  }
}

AesXts::AesXts(std::span<const std::uint8_t> key_pair)
    : AesXts(key_pair.first(key_pair.size() / 2),
             key_pair.subspan(key_pair.size() / 2)) {}

void AesXts::crypt(bool encrypt, std::uint64_t first_sector,
                   std::size_t unit_bytes,
                   std::span<std::uint8_t> data) const {
  if (data.empty()) return;
  check_units(unit_bytes, data.size());
#ifdef STORM_AES_NI
  if (cpu::has(cpu::kAesNi)) {
    xts_aes_ni(data_cipher_, tweak_cipher_, encrypt, first_sector, unit_bytes,
               data.data(), data.size());
    return;
  }
#endif
  xts_portable(data_cipher_, tweak_cipher_, encrypt, first_sector, unit_bytes,
               data.data(), data.size());
}

void AesXts::encrypt_sector(std::uint64_t sector,
                            std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  if (out.size() < in.size()) {
    throw std::invalid_argument("AesXts: output too small");
  }
  if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
  crypt(true, sector, in.size(), out.first(in.size()));
}

void AesXts::decrypt_sector(std::uint64_t sector,
                            std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  if (out.size() < in.size()) {
    throw std::invalid_argument("AesXts: output too small");
  }
  if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
  crypt(false, sector, in.size(), out.first(in.size()));
}

void AesXts::encrypt_sectors(std::uint64_t first_sector,
                             std::span<std::uint8_t> data) const {
  crypt(true, first_sector, kSectorBytes, data);
}

void AesXts::decrypt_sectors(std::uint64_t first_sector,
                             std::span<std::uint8_t> data) const {
  crypt(false, first_sector, kSectorBytes, data);
}

namespace detail {

void xts_crypt_portable(const AesXts& xts, bool encrypt,
                        std::uint64_t first_sector, std::size_t unit_bytes,
                        std::span<std::uint8_t> data) {
  if (data.empty()) return;
  check_units(unit_bytes, data.size());
  xts_portable(xts.data_cipher_, xts.tweak_cipher_, encrypt, first_sector,
               unit_bytes, data.data(), data.size());
}

}  // namespace detail

}  // namespace storm::crypto
