#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace storm {
namespace {

TEST(ByteWriterReader, RoundTripsAllWidths) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.zeros(3);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str(), "hello");
  r.skip(3);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteWriterReader, BigEndianLayout) {
  Bytes buf;
  ByteWriter w(buf);
  w.u32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(ByteReader, ThrowsOnTruncatedInput) {
  Bytes buf = {0x01, 0x02};
  ByteReader r(buf);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(ByteReader, ThrowsOnTruncatedString) {
  Bytes buf;
  ByteWriter w(buf);
  w.u16(100);  // declared length longer than the buffer
  ByteReader r(buf);
  EXPECT_THROW(r.str(), std::out_of_range);
}

// Bit-at-a-time CRC-32 straight from the definition (reflected IEEE
// polynomial 0xEDB88320, init and final xor 0xFFFFFFFF): the reference
// both the hardware-dispatched path and the slice-by-8 kernel must match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

TEST(Hash, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (classic check value).
  Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable(data), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(data), 0xCBF43926u);
}

TEST(Hash, Crc32EmptyIsZero) {
  EXPECT_EQ(crc32(Bytes{}), 0x00000000u);
  EXPECT_EQ(detail::crc32_portable(Bytes{}), 0x00000000u);
}

TEST(Hash, Crc32MatchesBitwiseReferenceAtEveryLength) {
  // Every length through 1024 crosses each kernel hand-off: < 64 bytes
  // (portable only), the 16-byte tails after the fold, and the 64-byte
  // multi-lane loop. The larger sizes are an Ethernet MSS, a block, a
  // PDU-sized span with an odd tail, and a 256 KiB burst.
  Bytes data = random_bytes(262144, 11);
  std::span<const std::uint8_t> all(data);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  for (std::size_t n : {1460, 4096, 65536 + 13, 262144}) lengths.push_back(n);
  for (std::size_t n : lengths) {
    auto span = all.first(n);
    std::uint32_t want = crc32_bitwise(span);
    ASSERT_EQ(crc32(span), want) << "length " << n;
    ASSERT_EQ(detail::crc32_portable(span), want) << "length " << n;
  }
}

TEST(Hash, Crc32MatchesBitwiseReferenceAtEveryStartOffset) {
  Bytes data = random_bytes(4096 + 64, 12);
  std::span<const std::uint8_t> all(data);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n : {1, 15, 16, 63, 64, 65, 127, 128, 200, 1031, 4096}) {
      auto span = all.subspan(offset, n);
      std::uint32_t want = crc32_bitwise(span);
      ASSERT_EQ(crc32(span), want) << "offset " << offset << " length " << n;
      ASSERT_EQ(detail::crc32_portable(span), want)
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Hash, Crc32IncrementalSplitsAcrossFoldBoundariesMatchOneShot) {
  Bytes data = random_bytes(4096, 13);
  std::span<const std::uint8_t> all(data);

  // Two-piece splits at every point of a 300-byte span: the first piece
  // ends on, just before and just after each 16- and 64-byte boundary.
  auto head = all.first(300);
  std::uint32_t want_head = crc32_bitwise(head);
  for (std::size_t cut = 0; cut <= head.size(); ++cut) {
    Crc32 state;
    state.update(head.first(cut));
    state.update(head.subspan(cut));
    ASSERT_EQ(state.final(), want_head) << "cut " << cut;
  }

  // Many-piece splits at random points over the whole span.
  std::uint32_t want = crc32(all);
  ASSERT_EQ(want, crc32_bitwise(all));
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 state;
    std::size_t pos = 0;
    while (pos < all.size()) {
      std::size_t max_piece = rng.chance(0.5) ? 80 : 700;
      std::size_t len = std::min<std::size_t>(rng.between(0, max_piece),
                                              all.size() - pos);
      state.update(all.subspan(pos, len));
      pos += len;
    }
    ASSERT_EQ(state.final(), want) << "trial " << trial;
  }
}

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a(std::string_view{}), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hex, FormatsAndTruncates) {
  Bytes data = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(to_hex(data), "deadbeef");
  EXPECT_EQ(to_hex(data, 2), "dead...");
}

TEST(Status, OkAndError) {
  Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  Status err = error(ErrorCode::kNotFound, "volume gone");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), ErrorCode::kNotFound);
  EXPECT_EQ(err.to_string(), "NOT_FOUND: volume gone");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(error(ErrorCode::kIoError, "disk"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kIoError);
  EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(Result, RejectsOkStatus) {
  EXPECT_THROW(Result<int>(Status::ok()), std::logic_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng r1(7), r2(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r1.next_u64(), r2.next_u64());
  }
}

TEST(Rng, BetweenStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.between(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace storm
