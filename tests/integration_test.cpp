// Property-style end-to-end sweeps: every relay mode x I/O size x service
// must move bytes through the full spliced path unchanged (from the VM's
// point of view), regardless of what the middle-box does to them on the
// wire and at rest.
#include <gtest/gtest.h>

#include <tuple>

#include "core/platform.hpp"
#include "obs/registry.hpp"
#include "services/registry.hpp"
#include "services/write_tracker.hpp"
#include "testutil.hpp"

namespace storm {
namespace {

using core::DeploymentHandle;
using core::RelayMode;
using core::ServiceSpec;

struct SweepParam {
  RelayMode relay;
  std::uint32_t io_bytes;
  const char* service;
  bool transforms_at_rest;  // data on the backend differs from plaintext
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string relay = core::to_string(info.param.relay);
  return relay + "_" + std::to_string(info.param.io_bytes / 1024) + "K_" +
         info.param.service;
}

class EndToEndSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  EndToEndSweep() : cloud_(sim_, cloud::CloudConfig{}), platform_(cloud_) {
    services::register_builtin_services(platform_);
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
};

TEST_P(EndToEndSweep, RoundTripsThroughSplicedPath) {
  const SweepParam& param = GetParam();
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());

  ServiceSpec spec;
  spec.type = param.service;
  spec.relay = param.relay;
  Status status = error(ErrorCode::kIoError, "unset");
  DeploymentHandle deployment;
  platform_.attach_with_chain("vm", "vol", {spec},
                              [&](Result<DeploymentHandle> r) {
                                status = r.status();
                                if (r.is_ok()) deployment = r.value();
                              });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_TRUE(deployment.valid());

  // Three writes at scattered offsets, then read back (reverse order).
  struct Region {
    std::uint64_t lba;
    Bytes data;
  };
  std::vector<Region> regions;
  std::uint32_t sectors = param.io_bytes / block::kSectorSize;
  for (int i = 0; i < 3; ++i) {
    regions.push_back(Region{
        static_cast<std::uint64_t>(i) * 10'000,
        testutil::pattern_bytes(param.io_bytes,
                                static_cast<std::uint8_t>(i + 1))});
  }
  for (auto& region : regions) {
    bool ok = false;
    vm.disk()->write(region.lba, region.data, [&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      ok = true;
    });
    sim_.run();
    ASSERT_TRUE(ok);
  }
  for (auto it = regions.rbegin(); it != regions.rend(); ++it) {
    Bytes got;
    vm.disk()->read(it->lba, sectors, [&](Status s, Bytes d) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      got = std::move(d);
    });
    sim_.run();
    EXPECT_TRUE(got == it->data);
  }

  // At-rest property.
  auto volume = cloud_.storage(0).volumes().find_by_name("vol");
  Bytes at_rest = volume.value()->disk().store().read_sync(
      regions[0].lba, sectors);
  if (param.transforms_at_rest) {
    EXPECT_NE(at_rest, regions[0].data);
  } else {
    EXPECT_EQ(at_rest, regions[0].data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, EndToEndSweep,
    ::testing::Values(
        SweepParam{RelayMode::kForward, 4096, "noop", false},
        SweepParam{RelayMode::kForward, 262144, "noop", false},
        SweepParam{RelayMode::kPassive, 4096, "noop", false},
        SweepParam{RelayMode::kPassive, 65536, "stream_cipher", true},
        SweepParam{RelayMode::kPassive, 262144, "stream_cipher", true},
        SweepParam{RelayMode::kActive, 4096, "noop", false},
        SweepParam{RelayMode::kActive, 4096, "stream_cipher", true},
        SweepParam{RelayMode::kActive, 65536, "encryption", true},
        SweepParam{RelayMode::kActive, 262144, "stream_cipher", true},
        SweepParam{RelayMode::kActive, 262144, "encryption", true}),
    param_name);

// --- IoTracker ---------------------------------------------------------------

TEST(IoTracker, ReassemblesMultiPduWriteBurst) {
  services::IoTracker tracker;
  iscsi::Pdu cmd = iscsi::make_write_command(5, 100, 3 * 8192);
  cmd.data = Bytes(8192, 1);
  EXPECT_FALSE(tracker.on_to_target(cmd).has_value());
  EXPECT_FALSE(tracker
                   .on_to_target(iscsi::make_data_out(5, 8192,
                                                      Bytes(8192, 2), false))
                   .has_value());
  auto burst = tracker.on_to_target(
      iscsi::make_data_out(5, 16384, Bytes(8192, 3), true));
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->lba, 100u);
  EXPECT_EQ(burst->data.size(), 3u * 8192);
  EXPECT_EQ(burst->data[0], 1);
  EXPECT_EQ(burst->data[8192], 2);
  EXPECT_EQ(burst->data[16384], 3);
}

TEST(IoTracker, SingleCommandWriteCompletesImmediately) {
  services::IoTracker tracker;
  iscsi::Pdu cmd = iscsi::make_write_command(9, 7, 512);
  cmd.data = Bytes(512, 0xEE);
  cmd.flags |= iscsi::kFlagFinal;
  auto burst = tracker.on_to_target(cmd);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->lba, 7u);
}

TEST(IoTracker, TracksReadGeometryUntilResponse) {
  services::IoTracker tracker;
  tracker.on_to_target(iscsi::make_read_command(3, 555, 8192));
  auto info = tracker.read_info(3);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->lba, 555u);
  EXPECT_EQ(info->length, 8192u);
  tracker.on_response(3);
  EXPECT_FALSE(tracker.read_info(3).has_value());
  EXPECT_FALSE(tracker.read_info(99).has_value());
}

TEST(IoTracker, IgnoresDataOutForUnknownTag) {
  services::IoTracker tracker;
  EXPECT_FALSE(tracker
                   .on_to_target(iscsi::make_data_out(77, 0, Bytes(512, 1),
                                                      true))
                   .has_value());
}

// --- hex key parsing --------------------------------------------------------

TEST(HexKey, ParsesAndRejects) {
  auto key = services::parse_hex_key("00ff10Ab");
  ASSERT_TRUE(key.is_ok());
  EXPECT_EQ(key.value(), (Bytes{0x00, 0xFF, 0x10, 0xAB}));
  EXPECT_FALSE(services::parse_hex_key("abc").is_ok());   // odd length
  EXPECT_FALSE(services::parse_hex_key("zz").is_ok());    // bad digits
  EXPECT_TRUE(services::parse_hex_key("").is_ok());
  EXPECT_TRUE(services::parse_hex_key("").value().empty());
}

// --- command tracing through the chain ------------------------------------------

TEST(Tracing, TwoBoxChainCommandSpanCarriesBothRelays) {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  cloud.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud.create_volume("vol", 20'000).is_ok());
  core::ServiceSpec a, b;
  a.type = b.type = "noop";
  a.relay = b.relay = core::RelayMode::kActive;
  Status status = error(ErrorCode::kIoError, "unset");
  platform.attach_with_chain(
      "vm", "vol", {a, b},
      [&](Result<core::DeploymentHandle> r) { status = r.status(); });
  sim.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  cloud::Vm& vm = *cloud.find_vm("vm");
  bool ok = false;
  vm.disk()->write(0, Bytes(8 * block::kSectorSize, 0x3C),
                   [&](Status s) { ok = s.is_ok(); });
  sim.run();
  ASSERT_TRUE(ok);
  Bytes got;
  vm.disk()->read(0, 8, [&](Status s, Bytes d) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    got = std::move(d);
  });
  sim.run();
  ASSERT_EQ(got.size(), 8u * block::kSectorSize);

  const obs::Tracer& tracer = sim.telemetry().tracer();
  for (const char* name : {"cmd.write", "cmd.read"}) {
    auto commands = tracer.spans_named(name);
    ASSERT_FALSE(commands.empty()) << name;
    for (const obs::Span* span : commands) {
      ASSERT_TRUE(span->ended);
      // Exactly one "relay.<mb-vm>" child per middle-box of the chain,
      // each fully nested inside the command's root span.
      auto children = tracer.children_of(span->id);
      ASSERT_EQ(children.size(), 2u) << name;
      for (const obs::Span* child : children) {
        EXPECT_TRUE(child->name.starts_with("relay.")) << child->name;
        EXPECT_TRUE(child->ended);
        EXPECT_GE(child->start, span->start);
        EXPECT_LE(child->end, span->end);
      }
      EXPECT_NE(children[0]->name, children[1]->name)
          << "the two boxes must trace as distinct relays";
      // The telescoping hop events reconstruct the end-to-end latency.
      ASSERT_GE(span->events.size(), 2u);
      EXPECT_EQ(span->events.front().label, "issue");
      EXPECT_EQ(span->events.back().label, "complete");
      std::uint64_t hop_sum = 0;
      for (std::size_t i = 0; i + 1 < span->events.size(); ++i) {
        ASSERT_GE(span->events[i + 1].at, span->events[i].at);
        hop_sum += span->events[i + 1].at - span->events[i].at;
      }
      EXPECT_EQ(hop_sum, span->end - span->start);
    }
  }
}

// --- multi-tenant isolation ----------------------------------------------------

TEST(MultiTenant, GatewayPairsAreSeparatePerTenant) {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  cloud.create_vm("vm-a", "alice", 0);
  cloud.create_vm("vm-b", "bob", 1);
  ASSERT_TRUE(cloud.create_volume("vol-a", 10'000).is_ok());
  ASSERT_TRUE(cloud.create_volume("vol-b", 10'000).is_ok());

  core::ServiceSpec spec;
  spec.type = "noop";
  spec.relay = core::RelayMode::kActive;
  int done = 0;
  core::DeploymentHandle dep_a;
  core::DeploymentHandle dep_b;
  platform.attach_with_chain("vm-a", "vol-a", {spec},
                             [&](Result<core::DeploymentHandle> r) {
                               ASSERT_TRUE(r.is_ok())
                                   << r.status().to_string();
                               dep_a = r.value();
                               ++done;
                             });
  platform.attach_with_chain("vm-b", "vol-b", {spec},
                             [&](Result<core::DeploymentHandle> r) {
                               ASSERT_TRUE(r.is_ok())
                                   << r.status().to_string();
                               dep_b = r.value();
                               ++done;
                             });
  sim.run();
  ASSERT_EQ(done, 2);
  // Different tenants must not share gateway nodes.
  EXPECT_NE(dep_a.splice()->gateways.ingress, dep_b.splice()->gateways.ingress);
  EXPECT_NE(dep_a.splice()->gateways.egress, dep_b.splice()->gateways.egress);
  // Same tenant reuses its pair.
  EXPECT_EQ(&platform.splicer().tenant_gateways("alice"),
            &platform.splicer().tenant_gateways("alice"));

  // Both tenants' I/O works concurrently.
  cloud::Vm& vm_a = *cloud.find_vm("vm-a");
  cloud::Vm& vm_b = *cloud.find_vm("vm-b");
  Bytes data_a = testutil::pattern_bytes(4096, 0xA);
  Bytes data_b = testutil::pattern_bytes(4096, 0xB);
  int writes = 0;
  vm_a.disk()->write(0, data_a, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    ++writes;
  });
  vm_b.disk()->write(0, data_b, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    ++writes;
  });
  sim.run();
  EXPECT_EQ(writes, 2);
  EXPECT_EQ(cloud.storage(0).volumes().find_by_name("vol-a").value()
                ->disk().store().read_sync(0, 8), data_a);
  EXPECT_EQ(cloud.storage(0).volumes().find_by_name("vol-b").value()
                ->disk().store().read_sync(0, 8), data_b);
}

}  // namespace
}  // namespace storm
