// Zero-copy data path: Buf slicing/COW semantics, aliasing isolation
// between concurrent payload holders (fault-injected corruption and
// service rewrites vs. journal and retransmit-queue references), the
// FlowSwitch exact-match fast path, and seeded-run determinism of the
// telemetry export.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/buf.hpp"
#include "core/active_relay.hpp"
#include "core/service.hpp"
#include "crypto/chacha20.hpp"
#include "journal/log.hpp"
#include "iscsi/pdu.hpp"
#include "net/flow_switch.hpp"
#include "obs/registry.hpp"
#include "services/encryption.hpp"
#include "services/stream_cipher.hpp"
#include "sim/fault.hpp"
#include "testutil.hpp"

namespace storm {
namespace {

using net::FlowAction;
using net::FlowRule;
using net::FlowSwitch;
using net::Ipv4Addr;
using net::Link;
using net::MacAddr;
using net::Packet;
using testutil::ip;
using testutil::mac;

// --- Buf fundamentals -------------------------------------------------------

TEST(Buf, SliceIsAZeroCopyViewOfSharedStorage) {
  const std::uint64_t before = bufstats::bytes_copied();
  Buf whole(testutil::pattern_bytes(4096));
  Buf mid = whole.slice(1024, 2048);
  EXPECT_EQ(mid.size(), 2048u);
  EXPECT_TRUE(mid.shares_storage_with(whole));
  EXPECT_EQ(mid.data(), whole.data() + 1024);
  // Adopting a vector and slicing it moved zero payload bytes.
  EXPECT_EQ(bufstats::bytes_copied(), before);
  Bytes expected = testutil::pattern_bytes(4096);
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), expected.begin() + 1024));
}

TEST(Buf, MovedFromBufIsEmptyLikeAMovedFromVector) {
  // Cost models all over the simulation read pkt.payload.size() from a
  // packet that was just moved into a deferred callback; a moved-from
  // Buf must report empty exactly like the Bytes it replaced, or every
  // size-derived charge (and therefore packet ordering) shifts.
  Buf a(testutil::pattern_bytes(1000));
  Buf b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 1000u);
  Buf c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(Buf, ExplicitCopiesFeedTheCopyLedger) {
  Bytes src = testutil::pattern_bytes(500);
  const std::uint64_t before = bufstats::bytes_copied();
  Buf counted = Buf::copy(src);
  EXPECT_EQ(bufstats::bytes_copied(), before + 500);
  Bytes out = counted.to_bytes();
  EXPECT_EQ(bufstats::bytes_copied(), before + 1000);
  counted.append_to(out);
  EXPECT_EQ(bufstats::bytes_copied(), before + 1500);
  EXPECT_EQ(out.size(), 1000u);
}

TEST(Buf, MutableSpanOnUniqueOwnerMutatesInPlace) {
  Buf buf(testutil::pattern_bytes(256));
  const std::uint8_t* storage = buf.data();
  const std::uint64_t before = bufstats::bytes_copied();
  buf.mutable_span()[0] ^= 0xFF;
  // Unique owner: no clone, same storage, no copy charged.
  EXPECT_EQ(buf.data(), storage);
  EXPECT_EQ(bufstats::bytes_copied(), before);
}

// --- COW aliasing isolation -------------------------------------------------

TEST(CowAliasing, FaultCorruptionNeverReachesTheRetransmitReference) {
  // A TCP retransmit queue and an in-flight packet share one storage
  // (slice_send() hands out refcounted views). A link-level bit flip on
  // the in-flight copy must not rewrite the queue's bytes, or the
  // retransmission would resend the corruption.
  sim::Simulator sim;
  sim::FaultPlan plan(sim, 21);
  Buf queue_ref(testutil::pattern_bytes(1460));
  Bytes pristine = queue_ref.to_bytes();

  Packet pkt;
  pkt.payload = queue_ref;  // refcounted share, as emit() does
  ASSERT_TRUE(pkt.payload.shares_storage_with(queue_ref));
  plan.flip_random_bit(pkt.payload.mutable_span());

  // The write forced a private clone; the queue's view is untouched.
  EXPECT_FALSE(pkt.payload.shares_storage_with(queue_ref));
  EXPECT_EQ(queue_ref.to_bytes(), pristine);
  int diff_bits = 0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::uint8_t x = pkt.payload[i] ^ pristine[i];
    while (x) {
      diff_bits += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(diff_bits, 1);
}

class StubContext : public core::ServiceContext {
 public:
  explicit StubContext(sim::Simulator& simulator)
      : sim_(simulator), scope_(simulator.telemetry().scope("test.")) {}
  void inject_to_target(iscsi::Pdu) override {}
  void inject_to_initiator(iscsi::Pdu) override {}
  sim::Simulator& simulator() override { return sim_; }
  const obs::Scope& scope() override { return scope_; }
  const std::string& volume() const override { return volume_; }

 private:
  sim::Simulator& sim_;
  obs::Scope scope_;
  std::string volume_ = "vol";
};

TEST(CowAliasing, CipherRewriteNeverReachesTheJournalReference) {
  // The active relay journals the serialized wire image while the TCP
  // stack (and any later service) still references the same chunks. A
  // payload-rewriting service must get its own storage: the journal has
  // to replay exactly what was acknowledged, byte for byte.
  sim::Simulator sim;
  StubContext ctx(sim);
  services::StreamCipherService cipher;

  iscsi::Pdu pdu = iscsi::make_write_command(7, 128, 2048);
  pdu.data = Buf(testutil::pattern_bytes(2048));
  pdu.flags |= iscsi::kFlagFinal;
  const Bytes plaintext = pdu.data.to_bytes();

  journal::Device device(sim, sim.telemetry().scope("journal."));
  journal::Stream journal(device);
  BufChain wire = iscsi::serialize_chunks(pdu);
  journal.append(wire, chain_size(wire));
  // serialize_chunks() embeds the data segment by reference.
  ASSERT_TRUE(std::any_of(wire.begin(), wire.end(), [&](const Buf& chunk) {
    return chunk.shares_storage_with(pdu.data);
  }));

  cipher.on_pdu(ctx, core::Direction::kToTarget, pdu);
  EXPECT_NE(pdu.data.to_bytes(), plaintext) << "cipher must rewrite";

  // The journal still holds the plaintext wire image it recorded.
  auto replay = journal.unacknowledged();
  ASSERT_EQ(replay.size(), 1u);
  Bytes journaled = chain_to_bytes(replay.front());
  auto parsed = iscsi::parse_pdu(
      std::span<const std::uint8_t>(journaled.data() + 4,
                                    journaled.size() - 4));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().data.to_bytes(), plaintext);
}

// --- Cipher boxes ---------------------------------------------------------

TEST(StreamCipher, KeystreamDoesNotRepeatAcross256GiB) {
  // The keystream is keyed to the volume byte position with a 64-bit
  // block counter. Below 2^38 bytes it is RFC 8439's stream under the zero
  // nonce; equal plaintext 2^38 bytes (256 GiB) further on must still
  // encrypt differently.
  sim::Simulator sim;
  StubContext ctx(sim);
  services::StreamCipherService cipher;
  const Bytes plaintext = testutil::pattern_bytes(4096);
  auto encrypt_at = [&](std::uint64_t lba) {
    iscsi::Pdu pdu = iscsi::make_write_command(1, lba, 4096);
    pdu.data = Buf(Bytes(plaintext));
    pdu.flags |= iscsi::kFlagFinal;
    cipher.on_pdu(ctx, core::Direction::kToTarget, pdu);
    return pdu.data.to_bytes();
  };
  const std::uint64_t lba = 4096;
  const Bytes low = encrypt_at(lba);
  Bytes want = plaintext;
  crypto::ChaCha20(Bytes(32, 0x42), Bytes(12, 0))
      .xor_keystream(lba * 512 / 64, 0, want);
  EXPECT_EQ(low, want);
  EXPECT_NE(encrypt_at(lba + (1ull << 38) / 512), low);
}

TEST(CipherService, BothBoxesRouteEveryLegAndKeepTheirCosts) {
  // A write burst (immediate data plus a Data-Out tail) and a read of the
  // stored ciphertext through each box: the read returns the plaintext,
  // and each PDU is charged the box's own cost model.
  sim::Simulator sim;
  StubContext ctx(sim);
  services::EncryptionService aes(Bytes(64, 0x24));
  services::StreamCipherService chacha;
  struct Case {
    services::CipherService* box;
    sim::Duration command, data_out, data_in;
  };
  // AES: per_io 1 us + 4 ns/B, no per_io on Data-Out. ChaCha: 0.75 ns/B.
  const Case cases[] = {{&aes, 1000 + 4 * 1024, 4 * 2048, 1000 + 4 * 3072},
                        {&chacha, 768, 1536, 2304}};
  const Bytes plaintext = testutil::pattern_bytes(3072, 9);
  const std::span<const std::uint8_t> all(plaintext);
  for (const Case& c : cases) {
    iscsi::Pdu command = iscsi::make_write_command(5, 700, 3072);
    command.data = Buf(Bytes(all.begin(), all.begin() + 1024));
    auto verdict = c.box->on_pdu(ctx, core::Direction::kToTarget, command);
    EXPECT_EQ(verdict.cpu_cost, c.command);
    iscsi::Pdu tail =
        iscsi::make_data_out(5, 1024, Buf(Bytes(all.begin() + 1024, all.end())),
                             true);
    verdict = c.box->on_pdu(ctx, core::Direction::kToTarget, tail);
    EXPECT_EQ(verdict.cpu_cost, c.data_out);
    Bytes stored = command.data.to_bytes();
    tail.data.append_to(stored);
    EXPECT_NE(stored, plaintext);

    iscsi::Pdu read = iscsi::make_read_command(6, 700, 3072);
    c.box->on_pdu(ctx, core::Direction::kToTarget, read);
    iscsi::Pdu data_in = iscsi::make_data_in(6, 0, Buf(std::move(stored)), true);
    verdict = c.box->on_pdu(ctx, core::Direction::kToInitiator, data_in);
    EXPECT_EQ(verdict.cpu_cost, c.data_in);
    EXPECT_EQ(data_in.data.to_bytes(), plaintext);
    iscsi::Pdu response = iscsi::make_scsi_response(6, 0);
    c.box->on_pdu(ctx, core::Direction::kToInitiator, response);
  }
  EXPECT_EQ(aes.bytes_encrypted(), 3072u);
  EXPECT_EQ(aes.bytes_decrypted(), 3072u);
  EXPECT_EQ(chacha.bytes_processed(), 2u * 3072);
}

// --- FlowSwitch exact-match fast path ---------------------------------------

Packet flow_packet(std::uint16_t sport, MacAddr src, MacAddr dst,
                   std::size_t payload = 64) {
  Packet pkt;
  pkt.ip.src = ip("10.2.0.1");
  pkt.ip.dst = ip("10.2.0.9");
  pkt.tcp.src_port = sport;
  pkt.tcp.dst_port = 3260;
  pkt.eth.src = src;
  pkt.eth.dst = dst;
  pkt.payload = Bytes(payload, 0x5A);
  pkt.tcp.checksum = net::tcp_checksum(pkt);
  return pkt;
}

TEST(FlowCache, RepeatFlowHitsTheCacheWithIdenticalBehavior) {
  sim::Simulator sim;
  FlowSwitch sw(sim, "ovs");
  Link l_src(sim, 1'000'000'000ull, 0), l_mb(sim, 1'000'000'000ull, 0);
  int got_mb = 0;
  l_mb.connect(0, [&](Packet) { ++got_mb; });
  sw.attach(l_src, 1);
  int port_mb = sw.attach(l_mb, 1);

  FlowRule steer;
  steer.priority = 10;
  steer.match.src_port = 49152;
  steer.actions = {FlowAction::set_dst_mac(mac(0xB1)),
                   FlowAction::output(port_mb)};
  steer.cookie = 1;
  sw.add_rule(steer);

  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    l_src.send(0, flow_packet(49152, mac(0xA1), mac(0xE1)));
  }
  sim.run();
  EXPECT_EQ(got_mb, kPackets);
  EXPECT_EQ(sw.cache_misses(), 1u) << "one linear scan, then memoized";
  EXPECT_EQ(sw.cache_hits(), static_cast<std::uint64_t>(kPackets - 1));
  EXPECT_EQ(sw.rules()[0].hits, static_cast<std::uint64_t>(kPackets))
      << "cache hits still count as rule hits";

  // A different four-tuple is a different key: no false sharing.
  l_src.send(0, flow_packet(50000, mac(0xA1), mac(0xE1)));
  sim.run();
  EXPECT_EQ(sw.cache_misses(), 2u);
  EXPECT_EQ(got_mb, kPackets + 1) << "flooded copy via NORMAL";
}

TEST(FlowCache, EveryTableMutationInvalidatesTheCache) {
  sim::Simulator sim;
  FlowSwitch sw(sim, "ovs");
  Link l_src(sim, 1'000'000'000ull, 0), l_a(sim, 1'000'000'000ull, 0),
      l_b(sim, 1'000'000'000ull, 0);
  int got_a = 0, got_b = 0;
  l_a.connect(0, [&](Packet) { ++got_a; });
  l_b.connect(0, [&](Packet) { ++got_b; });
  sw.attach(l_src, 1);
  int port_a = sw.attach(l_a, 1);
  int port_b = sw.attach(l_b, 1);

  FlowRule to_a;
  to_a.priority = 5;
  to_a.match.src_port = 49152;
  to_a.actions = {FlowAction::output(port_a)};
  to_a.cookie = 1;
  sw.add_rule(to_a);

  l_src.send(0, flow_packet(49152, mac(0xA1), mac(0xE1)));
  sim.run();
  EXPECT_EQ(got_a, 1);
  EXPECT_GT(sw.cache_entries(), 0u);

  // add_rule: a higher-priority rule must win immediately, not after the
  // stale memo expires.
  FlowRule to_b;
  to_b.priority = 9;
  to_b.match.src_port = 49152;
  to_b.actions = {FlowAction::output(port_b)};
  to_b.cookie = 2;
  sw.add_rule(to_b);
  EXPECT_EQ(sw.cache_entries(), 0u);
  l_src.send(0, flow_packet(49152, mac(0xA1), mac(0xE1)));
  sim.run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_a, 1);

  // swap_rules_by_cookie (the failover primitive): the swapped-in drop
  // rule takes effect on the very next packet.
  FlowRule drop;
  drop.priority = 9;
  drop.match.src_port = 49152;
  drop.actions = {FlowAction::drop()};
  drop.cookie = 2;
  sw.swap_rules_by_cookie(2, {drop});
  l_src.send(0, flow_packet(49152, mac(0xA1), mac(0xE1)));
  sim.run();
  EXPECT_EQ(got_b, 1) << "stale cache would have forwarded";
  EXPECT_EQ(got_a, 1);

  // remove_rules_by_cookie: falls back to the lower-priority rule.
  sw.remove_rules_by_cookie(2);
  l_src.send(0, flow_packet(49152, mac(0xA1), mac(0xE1)));
  sim.run();
  EXPECT_EQ(got_a, 2);
}

// --- seeded determinism -----------------------------------------------------

struct TransferOutcome {
  Bytes received;
  std::string trace;
  std::string telemetry;
};

/// One seeded lossy/corrupting transfer; everything observable — the
/// delivered bytes, the fault trace, and the full telemetry JSON (the
/// net.bytes_copied counter included) — must be a pure function of the
/// seed, or the zero-copy refactor broke replayability.
TransferOutcome run_seeded_transfer(std::uint64_t seed) {
  testutil::TwoNodeNet net;
  sim::FaultPlan plan(net.sim, seed);
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.02;
  profile.corrupt_rate = 0.03;
  net.link.set_fault(&plan, profile, "ab");

  Bytes received;
  net.b.tcp().listen(80, [&](net::TcpConnection& conn) {
    conn.set_on_data([&](Buf data) { data.append_to(received); });
  });
  net::TcpConnection& client =
      net.a.tcp().connect(net::SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(testutil::pattern_bytes(150'000));
  net.sim.run();

  TransferOutcome out;
  out.received = std::move(received);
  out.trace = plan.trace_string();
  out.telemetry = net.sim.telemetry().to_json(/*include_spans=*/true);
  return out;
}

TEST(Determinism, SeededTransferExportsByteIdenticalTelemetry) {
  TransferOutcome first = run_seeded_transfer(0xD1CE);
  TransferOutcome second = run_seeded_transfer(0xD1CE);
  EXPECT_TRUE(first.received == second.received);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.telemetry, second.telemetry);
  ASSERT_FALSE(first.telemetry.empty());
  EXPECT_NE(first.telemetry.find("net.bytes_copied"), std::string::npos)
      << "copy ledger must be exported";
  // Data integrity despite induced corruption.
  EXPECT_TRUE(first.received == testutil::pattern_bytes(150'000));
}

}  // namespace
}  // namespace storm
