#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/bytes.hpp"
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

// --- ChaCha20: RFC 8439 -----------------------------------------------------

TEST(ChaCha20, Rfc8439BlockFunction) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000090000004a00000000");
  std::uint8_t block[64];
  chacha20_block(key, nonce, 1, block);
  Bytes expect = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4"
      "c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2"
      "b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(Bytes(block, block + 64), expect);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  std::string pt_str =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes pt = to_bytes(pt_str);
  Bytes ct(pt.size());
  chacha20_crypt(key, nonce, 1, pt, ct);
  Bytes expect = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981"
      "e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b357"
      "1639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e"
      "52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42"
      "874d");
  EXPECT_EQ(ct, expect);

  Bytes rt(ct.size());
  chacha20_crypt(key, nonce, 1, ct, rt);
  EXPECT_EQ(rt, pt);
}

TEST(ChaCha20, RejectsBadKeyOrNonce) {
  Bytes key(31), nonce(12), buf(8);
  EXPECT_THROW(chacha20_crypt(key, nonce, 0, buf, buf),
               std::invalid_argument);
  Bytes key32(32), nonce11(11);
  EXPECT_THROW(chacha20_crypt(key32, nonce11, 0, buf, buf),
               std::invalid_argument);
}

}  // namespace
}  // namespace storm::crypto
