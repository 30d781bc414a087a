#include <gtest/gtest.h>

#include "block/volume.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/pdu.hpp"
#include "iscsi/remote_disk.hpp"
#include "iscsi/target.hpp"
#include "testutil.hpp"

namespace storm::iscsi {
namespace {

using testutil::ip;

// --- PDU codec ---------------------------------------------------------------

TEST(Pdu, SerializeParseRoundTrip) {
  Pdu pdu;
  pdu.opcode = Opcode::kScsiCommand;
  pdu.flags = kFlagFinal | kFlagRead;
  pdu.task_tag = 77;
  pdu.lba = 123456789ull;
  pdu.transfer_length = 64 * 1024;
  pdu.data_offset = 4096;
  pdu.text = "iqn=iqn.2016-01.org.storm:s:volume-1";
  pdu.data = testutil::pattern_bytes(1000);

  Bytes wire = serialize(pdu);
  // Strip the length prefix for parse_pdu.
  auto result = parse_pdu(
      std::span<const std::uint8_t>(wire.data() + 4, wire.size() - 4));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Pdu& back = result.value();
  EXPECT_EQ(back.opcode, pdu.opcode);
  EXPECT_EQ(back.flags, pdu.flags);
  EXPECT_EQ(back.task_tag, pdu.task_tag);
  EXPECT_EQ(back.lba, pdu.lba);
  EXPECT_EQ(back.transfer_length, pdu.transfer_length);
  EXPECT_EQ(back.data_offset, pdu.data_offset);
  EXPECT_EQ(back.text, pdu.text);
  EXPECT_EQ(back.data, pdu.data);
}

TEST(Pdu, ParseRejectsCorruptedData) {
  Pdu pdu = make_data_out(1, 0, testutil::pattern_bytes(100), true);
  Bytes wire = serialize(pdu);
  wire[wire.size() - 20] ^= 0xFF;  // flip a data byte: digest must catch it
  auto result = parse_pdu(
      std::span<const std::uint8_t>(wire.data() + 4, wire.size() - 4));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kParseError);
}

TEST(Pdu, ParseRejectsTruncated) {
  Pdu pdu = make_read_command(1, 0, 4096);
  Bytes wire = serialize(pdu);
  auto result = parse_pdu(
      std::span<const std::uint8_t>(wire.data() + 4, wire.size() - 10));
  EXPECT_FALSE(result.is_ok());
}

TEST(StreamParser, ReassemblesAcrossArbitrarySegmentation) {
  // Three PDUs, fed one byte at a time.
  Bytes stream;
  std::vector<Pdu> originals;
  originals.push_back(make_login_request("iqn.test"));
  originals.push_back(make_write_command(5, 100, 4096));
  originals.push_back(make_data_out(5, 0, testutil::pattern_bytes(4096), true));
  for (const auto& pdu : originals) {
    Bytes wire = serialize(pdu);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  StreamParser parser;
  std::vector<Pdu> got;
  for (std::uint8_t byte : stream) {
    ASSERT_TRUE(parser.feed(std::span<const std::uint8_t>(&byte, 1), got)
                    .is_ok());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].opcode, Opcode::kLoginRequest);
  EXPECT_EQ(got[1].opcode, Opcode::kScsiCommand);
  EXPECT_EQ(got[2].data.size(), 4096u);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(StreamParser, HandlesBatchedPdus) {
  Bytes stream;
  for (int i = 0; i < 10; ++i) {
    Bytes wire = serialize(make_read_command(static_cast<std::uint32_t>(i),
                                             static_cast<std::uint64_t>(i),
                                             512));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  StreamParser parser;
  std::vector<Pdu> got;
  ASSERT_TRUE(parser.feed(stream, got).is_ok());
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].task_tag,
              static_cast<std::uint32_t>(i));
  }
}

// --- end-to-end initiator/target over the fabric ------------------------------

class IscsiEndToEnd : public ::testing::Test {
 protected:
  IscsiEndToEnd()
      : net_(), volumes_(net_.sim, "storage1", 1'000'000),
        target_(net_.b, volumes_) {
    volume_ = volumes_.create("vol1", 10'000).value();
    target_.start();
  }

  std::unique_ptr<Initiator> make_initiator(const std::string& iqn) {
    return std::make_unique<Initiator>(
        net_.a, net::SocketAddr{ip("10.0.0.2"), kIscsiPort}, iqn);
  }

  testutil::TwoNodeNet net_;
  block::VolumeManager volumes_;
  Target target_;
  block::Volume* volume_ = nullptr;
};

TEST_F(IscsiEndToEnd, LoginSucceedsForKnownIqn) {
  auto initiator = make_initiator(volume_->iqn());
  Status login_status = error(ErrorCode::kIoError, "unset");
  initiator->login([&](Status s) { login_status = s; });
  net_.sim.run();
  EXPECT_TRUE(login_status.is_ok()) << login_status.to_string();
  EXPECT_TRUE(initiator->logged_in());
  ASSERT_EQ(target_.sessions().size(), 1u);
  EXPECT_EQ(target_.sessions()[0].iqn, volume_->iqn());
}

TEST_F(IscsiEndToEnd, LoginFailsForUnknownIqn) {
  auto initiator = make_initiator("iqn.bogus");
  Status login_status = Status::ok();
  initiator->login([&](Status s) { login_status = s; });
  net_.sim.run();
  EXPECT_EQ(login_status.code(), ErrorCode::kPermissionDenied);
}

TEST_F(IscsiEndToEnd, WriteThenReadRoundTrips) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status s) { ASSERT_TRUE(s.is_ok()); });
  net_.sim.run();

  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  bool write_done = false;
  initiator->write(100, data, [&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    write_done = true;
  });
  net_.sim.run();
  EXPECT_TRUE(write_done);
  // Data must actually be on the backing volume.
  EXPECT_EQ(volume_->disk().store().read_sync(100, 8), data);

  Bytes read_back;
  initiator->read(100, 8, [&](Status s, Bytes got) {
    ASSERT_TRUE(s.is_ok());
    read_back = std::move(got);
  });
  net_.sim.run();
  EXPECT_EQ(read_back, data);
}

TEST_F(IscsiEndToEnd, LargeTransferSpansManySegments) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status) {});
  net_.sim.run();

  // 1 MB write: 16 Data segments at 64 KB each.
  Bytes data = testutil::pattern_bytes(2048 * block::kSectorSize);
  bool done = false;
  initiator->write(0, data, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    done = true;
  });
  net_.sim.run();
  ASSERT_TRUE(done);

  Bytes got;
  initiator->read(0, 2048, [&](Status s, Bytes data_in) {
    ASSERT_TRUE(s.is_ok());
    got = std::move(data_in);
  });
  net_.sim.run();
  EXPECT_TRUE(got == data);
}

TEST_F(IscsiEndToEnd, ConcurrentCommandsComplete) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status) {});
  net_.sim.run();

  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    Bytes data = testutil::pattern_bytes(4 * block::kSectorSize,
                                         static_cast<std::uint8_t>(i + 1));
    initiator->write(static_cast<std::uint64_t>(i) * 4, data,
                     [&](Status s) {
                       EXPECT_TRUE(s.is_ok());
                       ++completed;
                     });
  }
  net_.sim.run();
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(target_.commands_served(), 16u);
}

TEST_F(IscsiEndToEnd, ReadBeyondVolumeFails) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status) {});
  net_.sim.run();
  Status status = Status::ok();
  initiator->read(9999, 100, [&](Status s, Bytes) { status = s; });
  net_.sim.run();
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
}

TEST_F(IscsiEndToEnd, CommandBeforeLoginFails) {
  auto initiator = make_initiator(volume_->iqn());
  Status status = Status::ok();
  initiator->read(0, 1, [&](Status s, Bytes) { status = s; });
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(IscsiEndToEnd, SessionCloseFailsOutstandingCommands) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status) {});
  net_.sim.run();

  Status write_status = Status::ok();
  bool failure_seen = false;
  initiator->set_on_failure([&](Status) { failure_seen = true; });
  initiator->write(0, testutil::pattern_bytes(block::kSectorSize),
                   [&](Status s) { write_status = s; });
  // Kill the session before the write can be served.
  EXPECT_EQ(target_.close_sessions_for(volume_->iqn()), 1u);
  net_.sim.run();
  EXPECT_EQ(write_status.code(), ErrorCode::kConnectionFailed);
  EXPECT_TRUE(failure_seen);
  EXPECT_FALSE(initiator->logged_in());
}

TEST_F(IscsiEndToEnd, SourcePortExposedForAttribution) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status) {});
  net_.sim.run();
  ASSERT_EQ(target_.sessions().size(), 1u);
  // The port the initiator reports must match what the target observes —
  // this is the join key for StorM's connection attribution.
  EXPECT_EQ(target_.sessions()[0].tuple.dst.port, initiator->source_port());
}

TEST_F(IscsiEndToEnd, RemoteDiskAdapterWorks) {
  auto initiator = make_initiator(volume_->iqn());
  initiator->login([](Status) {});
  net_.sim.run();

  RemoteDisk disk(*initiator, volume_->disk().num_sectors());
  EXPECT_EQ(disk.num_sectors(), 10'000u);
  Bytes data = testutil::pattern_bytes(2 * block::kSectorSize);
  disk.write(50, data, [](Status s) { ASSERT_TRUE(s.is_ok()); });
  net_.sim.run();
  Bytes got;
  disk.read(50, 2, [&](Status s, Bytes d) {
    ASSERT_TRUE(s.is_ok());
    got = std::move(d);
  });
  net_.sim.run();
  EXPECT_EQ(got, data);

  Status status = Status::ok();
  disk.read(9999, 2, [&](Status s, Bytes) { status = s; });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(IscsiEndToEnd, TwoVolumesTwoSessions) {
  block::Volume* volume2 = volumes_.create("vol2", 5'000).value();
  auto init1 = make_initiator(volume_->iqn());
  auto init2 = make_initiator(volume2->iqn());
  init1->login([](Status) {});
  init2->login([](Status) {});
  net_.sim.run();
  EXPECT_EQ(target_.sessions().size(), 2u);
  EXPECT_NE(init1->source_port(), init2->source_port());

  // Writes land on their own volumes.
  init1->write(0, Bytes(block::kSectorSize, 0x11), [](Status) {});
  init2->write(0, Bytes(block::kSectorSize, 0x22), [](Status) {});
  net_.sim.run();
  EXPECT_EQ(volume_->disk().store().read_sync(0, 1)[0], 0x11);
  EXPECT_EQ(volume2->disk().store().read_sync(0, 1)[0], 0x22);
}

}  // namespace
}  // namespace storm::iscsi
