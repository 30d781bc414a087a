#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"

namespace storm::crypto {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

// --- AES: FIPS-197 Appendix C known-answer vectors -------------------------

TEST(Aes, Fips197Aes128KnownAnswer) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes expect = from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(Bytes(ct, ct + 16), expect);
}

TEST(Aes, Fips197Aes256KnownAnswer) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes expect = from_hex("8ea2b7ca516745bfeafc49904b496089");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(Bytes(ct, ct + 16), expect);
}

TEST(Aes, DecryptInvertsEncrypt128And256) {
  for (std::size_t key_len : {16u, 32u}) {
    Bytes key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) key[i] = static_cast<std::uint8_t>(i * 7);
    Aes aes(key);
    std::uint8_t pt[16], ct[16], rt[16];
    for (int i = 0; i < 16; ++i) pt[i] = static_cast<std::uint8_t>(i * 11 + 3);
    aes.encrypt_block(pt, ct);
    aes.decrypt_block(ct, rt);
    EXPECT_EQ(0, std::memcmp(pt, rt, 16)) << "key_len=" << key_len;
  }
}

TEST(Aes, RejectsBadKeySize) {
  Bytes bad(24);  // AES-192 unsupported by design
  EXPECT_THROW(Aes cipher(bad), std::invalid_argument);
}

// --- AES-XTS: IEEE 1619 Vector 1 + properties -------------------------------

TEST(AesXts, Ieee1619Vector1) {
  Bytes key(16, 0x00);
  AesXts xts(key, key);
  Bytes pt(32, 0x00);
  Bytes expect = from_hex(
      "917cf69ebd68b2ec9b9fe9a3eadda692"
      "cd43d2f59598ed858c02c2652fbf922e");
  Bytes ct(32);
  xts.encrypt_sector(0, pt, ct);
  EXPECT_EQ(ct, expect);
  Bytes rt(32);
  xts.decrypt_sector(0, ct, rt);
  EXPECT_EQ(rt, pt);

  // The portable kernel, whatever this CPU dispatches to.
  Bytes buf = pt;
  detail::xts_crypt_portable(xts, true, 0, buf.size(), buf);
  EXPECT_EQ(buf, expect);
  detail::xts_crypt_portable(xts, false, 0, buf.size(), buf);
  EXPECT_EQ(buf, pt);
}

TEST(AesXts, SectorNumberChangesCiphertext) {
  Bytes key1(32, 0x11), key2(32, 0x22);
  AesXts xts(key1, key2);
  Bytes pt(512, 0xAA);
  Bytes c0(512), c1(512);
  xts.encrypt_sector(0, pt, c0);
  xts.encrypt_sector(1, pt, c1);
  EXPECT_NE(c0, c1) << "same plaintext must differ across sectors";
}

TEST(AesXts, RoundTrips512ByteSectors) {
  Bytes key1(32, 0x01), key2(32, 0x02);
  AesXts xts(key1, key2);
  for (std::uint64_t sector : {0ull, 1ull, 999ull, 1ull << 40}) {
    Bytes pt(512);
    for (std::size_t i = 0; i < pt.size(); ++i) {
      pt[i] = static_cast<std::uint8_t>(i ^ sector);
    }
    Bytes ct(512), rt(512);
    xts.encrypt_sector(sector, pt, ct);
    xts.decrypt_sector(sector, ct, rt);
    EXPECT_EQ(rt, pt) << "sector " << sector;
    EXPECT_NE(ct, pt);
  }
}

TEST(AesXts, RejectsUnalignedLength) {
  Bytes key(16, 0x0);
  AesXts xts(key, key);
  Bytes pt(20);
  Bytes ct(20);
  EXPECT_THROW(xts.encrypt_sector(0, pt, ct), std::invalid_argument);
}

// The dispatched kernel (AES-NI where the CPU has it) must match the
// portable one byte for byte: AES-128 and AES-256 key pairs, both
// directions, 1-16 sectors per call, sector numbers past 2^32 and
// wrapping at 2^64.
TEST(AesXts, SectorsMatchPortableKernel) {
  const std::vector<std::uint64_t> first_sectors = {
      0, 1, 77, 0xFFFFFFFFull, (1ull << 32) + 5, ~0ull - 7, ~0ull};
  for (std::size_t key_bytes : {32u, 64u}) {
    AesXts xts(random_bytes(key_bytes, key_bytes));
    for (std::size_t count = 1; count <= 16; ++count) {
      for (std::uint64_t first : first_sectors) {
        const Bytes pt = random_bytes(count * AesXts::kSectorBytes,
                                      count * 131 + first);
        Bytes ct = pt;
        xts.encrypt_sectors(first, ct);
        Bytes want = pt;
        detail::xts_crypt_portable(xts, true, first, AesXts::kSectorBytes,
                                   want);
        ASSERT_EQ(ct, want) << "key " << key_bytes << " sectors " << count
                            << " first " << first;
        Bytes rt = ct;
        xts.decrypt_sectors(first, rt);
        ASSERT_EQ(rt, pt) << "key " << key_bytes << " sectors " << count
                          << " first " << first;
        detail::xts_crypt_portable(xts, false, first, AesXts::kSectorBytes,
                                   want);
        ASSERT_EQ(want, pt);
      }
    }
  }
}

// A data unit of any whole number of blocks: fewer than the eight the
// hardware kernel keeps in flight, exactly eight, and eight plus a tail.
TEST(AesXts, EveryDataUnitLengthMatchesPortableKernel) {
  AesXts xts(random_bytes(64, 5));
  for (std::size_t unit = 16; unit <= 512; unit += 16) {
    const Bytes pt = random_bytes(unit, unit);
    Bytes ct(unit);
    xts.encrypt_sector((1ull << 33) + unit, pt, ct);
    Bytes want = pt;
    detail::xts_crypt_portable(xts, true, (1ull << 33) + unit, unit, want);
    ASSERT_EQ(ct, want) << "unit " << unit;
    Bytes rt(unit);
    xts.decrypt_sector((1ull << 33) + unit, ct, rt);
    ASSERT_EQ(rt, pt) << "unit " << unit;
  }
}

TEST(AesXts, SectorsRejectPartialSectors) {
  AesXts xts(Bytes(64, 0x01));
  Bytes data(AesXts::kSectorBytes + 16);
  EXPECT_THROW(xts.encrypt_sectors(0, data), std::invalid_argument);
  EXPECT_THROW(xts.decrypt_sectors(0, data), std::invalid_argument);
}

// --- ChaCha20: RFC 8439 -----------------------------------------------------

TEST(ChaCha20, Rfc8439BlockFunction) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000090000004a00000000");
  Bytes expect = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4"
      "c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2"
      "b5129cd1de164eb9cbd083e8a2503c4e");
  ChaCha20 cipher(key, nonce);
  Bytes block(64, 0);
  cipher.xor_keystream(1, 0, block);
  EXPECT_EQ(block, expect);
  Bytes portable(64, 0);
  detail::chacha20_xor_portable(cipher, 1, 0, portable);
  EXPECT_EQ(portable, expect);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  std::string pt_str =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes pt = to_bytes(pt_str);
  Bytes expect = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981"
      "e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b357"
      "1639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e"
      "52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42"
      "874d");
  ChaCha20 cipher(key, nonce);
  Bytes ct = pt;
  cipher.xor_keystream(1, 0, ct);
  EXPECT_EQ(ct, expect);
  cipher.xor_keystream(1, 0, ct);
  EXPECT_EQ(ct, pt);
  detail::chacha20_xor_portable(cipher, 1, 0, ct);
  EXPECT_EQ(ct, expect);
}

TEST(ChaCha20, RejectsBadKeyOrNonce) {
  Bytes key(31), nonce(12);
  EXPECT_THROW(ChaCha20 cipher(key, nonce), std::invalid_argument);
  Bytes key32(32), nonce11(11);
  EXPECT_THROW(ChaCha20 cipher(key32, nonce11), std::invalid_argument);
}

// The dispatched kernel (AVX2 where the CPU has it) against the portable
// one: every length through 1024 from every skip into the first block,
// from block indices that cross 2^32 within the call.
TEST(ChaCha20, KeystreamMatchesPortableAtEveryLengthAndSkip) {
  ChaCha20 cipher(random_bytes(32, 21), random_bytes(12, 22));
  const Bytes pt = random_bytes(1024, 23);
  const std::uint64_t blocks[] = {0, 0xFFFFFFFAull, (1ull << 40) + 3};
  for (std::size_t n = 0; n <= pt.size(); ++n) {
    for (std::size_t skip = 0; skip < 64; ++skip) {
      const std::uint64_t block = blocks[(n + skip) % 3];
      Bytes got(pt.begin(), pt.begin() + n);
      Bytes want = got;
      cipher.xor_keystream(block, skip, got);
      detail::chacha20_xor_portable(cipher, block, skip, want);
      ASSERT_EQ(got, want) << "length " << n << " skip " << skip;
    }
  }
}

TEST(ChaCha20, SplitCallsMatchOneShot) {
  ChaCha20 cipher(random_bytes(32, 31), random_bytes(12, 32));
  const Bytes pt = random_bytes(1100, 33);
  const std::uint64_t start = 0xFFFFFFF0ull;
  Bytes want = pt;
  detail::chacha20_xor_portable(cipher, start, 0, want);

  // Two calls cut at every byte, which includes every block boundary and
  // every point inside the dispatched kernel's eight-block batches.
  for (std::size_t cut = 0; cut <= pt.size(); ++cut) {
    Bytes got = pt;
    std::span<std::uint8_t> all(got);
    cipher.xor_keystream(start, 0, all.first(cut));
    cipher.xor_keystream(start + cut / 64, cut % 64, all.subspan(cut));
    ASSERT_EQ(got, want) << "cut " << cut;
    got = pt;
    detail::chacha20_xor_portable(cipher, start, 0, all.first(cut));
    detail::chacha20_xor_portable(cipher, start + cut / 64, cut % 64,
                                  all.subspan(cut));
    ASSERT_EQ(got, want) << "portable cut " << cut;
  }

  // Many calls at random points.
  Rng rng(34);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes got = pt;
    std::size_t pos = 0;
    while (pos < got.size()) {
      std::size_t len = std::min<std::size_t>(
          rng.between(0, rng.chance(0.5) ? 80 : 700), got.size() - pos);
      cipher.xor_keystream(start + pos / 64, pos % 64,
                           std::span<std::uint8_t>(got).subspan(pos, len));
      pos += len;
    }
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(ChaCha20, BlockIndexCarriesIntoNonceWordZero) {
  // Block 2^32 + k is RFC 8439's block k under nonce word 0 + 1, so the
  // keystream runs on past 2^32 blocks (256 GiB) without repeating.
  Bytes key = random_bytes(32, 41);
  Bytes nonce = from_hex("050000000000004a00000000");
  Bytes next_nonce = from_hex("060000000000004a00000000");
  ChaCha20 cipher(key, nonce);
  for (std::uint32_t k : {0u, 1u, 9u}) {
    Bytes got(64, 0);
    cipher.xor_keystream((1ull << 32) + k, 0, got);
    Bytes want(64, 0);
    ChaCha20(key, next_nonce).xor_keystream(k, 0, want);
    EXPECT_EQ(got, want) << "k " << k;
    Bytes low(64, 0);
    cipher.xor_keystream(k, 0, low);
    EXPECT_NE(got, low) << "k " << k;
  }
}

TEST(ChaCha20, RejectsSkipPastTheBlock) {
  ChaCha20 cipher(Bytes(32, 1), Bytes(12, 2));
  Bytes buf(8);
  EXPECT_THROW(cipher.xor_keystream(0, 64, buf), std::invalid_argument);
}

}  // namespace
}  // namespace storm::crypto
