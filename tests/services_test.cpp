#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "fs/simext.hpp"
#include "services/encrypted_disk.hpp"
#include "services/encryption.hpp"
#include "services/monitor.hpp"
#include "services/registry.hpp"
#include "services/replication.hpp"
#include "services/stream_cipher.hpp"
#include "testutil.hpp"

namespace storm::services {
namespace {

using core::DeploymentHandle;
using core::RelayMode;
using core::ServiceSpec;

class ServicesTest : public ::testing::Test {
 protected:
  ServicesTest() : cloud_(sim_, cloud::CloudConfig{}), platform_(cloud_) {
    register_builtin_services(platform_);
  }

  DeploymentHandle deploy(const std::string& vm, const std::string& volume,
                          std::vector<ServiceSpec> chain) {
    Status status = error(ErrorCode::kIoError, "unset");
    DeploymentHandle deployment;
    platform_.attach_with_chain(vm, volume, std::move(chain),
                                [&](Result<DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) deployment = r.value();
                                });
    sim_.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return deployment;
  }

  void write_disk(block::BlockDevice* disk, std::uint64_t lba,
                  const Bytes& data) {
    bool ok = false;
    disk->write(lba, data, [&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      ok = true;
    });
    sim_.run();
    ASSERT_TRUE(ok);
  }

  Bytes read_disk(block::BlockDevice* disk, std::uint64_t lba,
                  std::uint32_t sectors) {
    Bytes got;
    bool ok = false;
    disk->read(lba, sectors, [&](Status s, Bytes d) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      got = std::move(d);
      ok = true;
    });
    sim_.run();
    EXPECT_TRUE(ok);
    return got;
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
};

// --- encryption -----------------------------------------------------------------

TEST_F(ServicesTest, EncryptionMiddleboxProtectsDataAtRest) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec spec;
  spec.type = "encryption";
  spec.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {spec});
  ASSERT_TRUE(dep.valid());

  Bytes plaintext = testutil::pattern_bytes(64 * block::kSectorSize);
  write_disk(vm.disk(), 100, plaintext);

  // On the storage backend: ciphertext only.
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  Bytes on_disk = volume.value()->disk().store().read_sync(100, 64);
  EXPECT_NE(on_disk, plaintext);
  // No 512-byte sector of plaintext survives.
  for (std::size_t off = 0; off + 512 <= plaintext.size(); off += 512) {
    EXPECT_NE(Bytes(on_disk.begin() + off, on_disk.begin() + off + 512),
              Bytes(plaintext.begin() + off, plaintext.begin() + off + 512));
  }

  // The tenant reads its plaintext back, transparently.
  EXPECT_EQ(read_disk(vm.disk(), 100, 64), plaintext);

  auto* service = static_cast<EncryptionService*>(dep.service(0));
  EXPECT_EQ(service->bytes_encrypted(), plaintext.size());
  EXPECT_EQ(service->bytes_decrypted(), plaintext.size());
}

TEST_F(ServicesTest, EncryptionIsDeterministicPerSector) {
  // Same key + same sector => same ciphertext; different sector differs
  // (XTS tweak), across two separate deployments sharing the key.
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec spec;
  spec.type = "encryption";
  spec.params["key"] = std::string(128, 'a');  // 64 bytes of 0xaa
  deploy("vm1", "vol1", {spec});

  Bytes sector(block::kSectorSize, 0x77);
  write_disk(vm.disk(), 10, sector);
  write_disk(vm.disk(), 11, sector);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  Bytes c10 = volume.value()->disk().store().read_sync(10, 1);
  Bytes c11 = volume.value()->disk().store().read_sync(11, 1);
  EXPECT_NE(c10, c11) << "XTS tweak must differ per sector";
  EXPECT_NE(c10, sector);
}

TEST_F(ServicesTest, TenantSideEncryptedDiskBaselineMatches) {
  // The tenant-side dm-crypt baseline round-trips too, burning VM CPU.
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  Status status = error(ErrorCode::kIoError, "unset");
  cloud_.attach_volume(vm, "vol1",
                       [&](Status s, cloud::Attachment) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.is_ok());

  EncryptedDisk disk(*vm.disk(), vm.cpu(), Bytes(64, 0x24));
  sim::Duration cpu_before = vm.cpu().busy_time();
  Bytes data = testutil::pattern_bytes(16 * block::kSectorSize);
  write_disk(&disk, 0, data);
  EXPECT_EQ(read_disk(&disk, 0, 16), data);
  EXPECT_GT(vm.cpu().busy_time(), cpu_before)
      << "tenant-side cipher must burn tenant vCPU";

  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  EXPECT_NE(volume.value()->disk().store().read_sync(0, 16), data);
}

// --- stream cipher ---------------------------------------------------------------

TEST_F(ServicesTest, StreamCipherRoundTripsRandomAccess) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec spec;
  spec.type = "stream_cipher";
  spec.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {spec});

  // Write two regions, read them back in a different order, partially.
  Bytes a = testutil::pattern_bytes(8 * block::kSectorSize, 1);
  Bytes b = testutil::pattern_bytes(4 * block::kSectorSize, 2);
  write_disk(vm.disk(), 0, a);
  write_disk(vm.disk(), 1000, b);
  EXPECT_EQ(read_disk(vm.disk(), 1000, 4), b);
  EXPECT_EQ(read_disk(vm.disk(), 0, 8), a);
  // Partial re-read of the middle of region a.
  EXPECT_EQ(read_disk(vm.disk(), 2, 3),
            Bytes(a.begin() + 2 * 512, a.begin() + 5 * 512));

  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  EXPECT_NE(volume.value()->disk().store().read_sync(0, 8), a);
  auto* service = static_cast<StreamCipherService*>(dep.service(0));
  EXPECT_GT(service->bytes_processed(), 0u);
}

TEST_F(ServicesTest, StreamCipherWorksUnderPassiveRelay) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec spec;
  spec.type = "stream_cipher";
  spec.relay = RelayMode::kPassive;
  deploy("vm1", "vol1", {spec});
  Bytes data = testutil::pattern_bytes(16 * block::kSectorSize);
  write_disk(vm.disk(), 50, data);
  EXPECT_EQ(read_disk(vm.disk(), 50, 16), data);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  EXPECT_NE(volume.value()->disk().store().read_sync(50, 16), data);
}

// --- monitor ---------------------------------------------------------------------

class MonitorFixture : public ServicesTest {
 protected:
  /// Format a volume, mount it through the spliced+monitored path, and
  /// return the filesystem handle.
  void setup() {
    vm_ = &cloud_.create_vm("vm1", "alice", 0);
    auto volume = cloud_.create_volume("vol1", 262'144);  // 128 MB
    ASSERT_TRUE(volume.is_ok());
    ASSERT_TRUE(fs::SimExt::mkfs(volume.value()->disk().store()).is_ok());

    ServiceSpec spec;
    spec.type = "monitor";
    spec.relay = RelayMode::kActive;
    spec.params["watch"] = "/box/secret.txt";
    dep_ = deploy("vm1", "vol1", {spec});
    ASSERT_TRUE(dep_.valid());
    monitor_ = static_cast<MonitorService*>(dep_.service(0));

    fs_ = std::make_unique<fs::SimExt>(sim_, *vm_->disk());
    bool mounted = false;
    fs_->mount([&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      mounted = true;
    });
    sim_.run();
    ASSERT_TRUE(mounted);
  }

  Status fs_op(std::function<void(fs::SimExt::DoneCb)> op) {
    Status status = error(ErrorCode::kIoError, "unset");
    op([&](Status s) { status = s; });
    sim_.run();
    return status;
  }

  bool monitor_logged(core::FileOp::Kind kind, const std::string& path) {
    for (const auto& entry : monitor_->log()) {
      if (entry.op.kind == kind && entry.op.path == path) return true;
    }
    return false;
  }

  cloud::Vm* vm_ = nullptr;
  DeploymentHandle dep_;
  MonitorService* monitor_ = nullptr;
  std::unique_ptr<fs::SimExt> fs_;
};

TEST_F(MonitorFixture, ReconstructsFileOpsFromBlockTraffic) {
  setup();
  ASSERT_TRUE(fs_op([&](auto cb) { fs_->mkdir("/box", cb); }).is_ok());
  ASSERT_TRUE(fs_op([&](auto cb) { fs_->create("/box/7.img", cb); }).is_ok());
  ASSERT_TRUE(fs_op([&](auto cb) {
    fs_->write_file("/box/7.img", 0, Bytes(16'384, 0xAB), cb);
  }).is_ok());

  EXPECT_TRUE(monitor_logged(core::FileOp::Kind::kWrite, "/box/7.img"))
      << "the monitor middle-box must reconstruct the file write";
  EXPECT_TRUE(monitor_logged(core::FileOp::Kind::kMetaWrite,
                             "META: inode_group_0"));
  EXPECT_TRUE(monitor_logged(core::FileOp::Kind::kWrite, "/box/."));

  // Cold read (paper Table I): dir + inode metadata reads appear.
  fs_->drop_caches();
  ASSERT_TRUE(fs_op([&](auto cb) {
    fs_->read_file("/box/7.img", 0, 16'384,
                   [cb](Status s, Bytes) { cb(s); });
  }).is_ok());
  EXPECT_TRUE(monitor_logged(core::FileOp::Kind::kRead, "/box/7.img"));
  EXPECT_TRUE(monitor_logged(core::FileOp::Kind::kRead, "/box/."));
  EXPECT_TRUE(monitor_logged(core::FileOp::Kind::kMetaRead,
                             "META: inode_group_0"));
}

TEST_F(MonitorFixture, AlertsOnWatchedPathEvenIfVmCompromised) {
  setup();
  ASSERT_TRUE(fs_op([&](auto cb) { fs_->mkdir("/box", cb); }).is_ok());
  ASSERT_TRUE(
      fs_op([&](auto cb) { fs_->create("/box/secret.txt", cb); }).is_ok());
  ASSERT_TRUE(fs_op([&](auto cb) {
    fs_->write_file("/box/secret.txt", 0, to_bytes("classified"), cb);
  }).is_ok());
  EXPECT_TRUE(monitor_->alerts().empty() == false)
      << "write to a watched file must raise an alert";
  std::size_t alerts_after_write = monitor_->alerts().size();

  // "Malware" in the VM reads the sensitive file: logged out-of-VM.
  fs_->drop_caches();
  ASSERT_TRUE(fs_op([&](auto cb) {
    fs_->read_file("/box/secret.txt", 0, 4096,
                   [cb](Status s, Bytes) { cb(s); });
  }).is_ok());
  EXPECT_GT(monitor_->alerts().size(), alerts_after_write)
      << "read access must also be alerted";
}

// --- replication -----------------------------------------------------------------

class ReplicationFixture : public ServicesTest {
 protected:
  void setup(int replicas = 2) {
    vm_ = &cloud_.create_vm("db", "alice", 0);
    ASSERT_TRUE(cloud_.create_volume("primary", 40'000).is_ok());
    std::string names;
    for (int i = 0; i < replicas; ++i) {
      std::string name = "replica" + std::to_string(i);
      ASSERT_TRUE(cloud_.create_volume(name, 40'000).is_ok());
      names += (i ? "," : "") + name;
    }
    ServiceSpec spec;
    spec.type = "replication";
    spec.relay = RelayMode::kActive;
    spec.params["replicas"] = names;
    dep_ = deploy("db", "primary", {spec});
    ASSERT_TRUE(dep_.valid());
    service_ = static_cast<ReplicationService*>(dep_.service(0));
  }

  block::MemDisk& backing(const std::string& name) {
    return cloud_.storage(0).volumes().find_by_name(name).value()
        ->disk().store();
  }

  cloud::Vm* vm_ = nullptr;
  DeploymentHandle dep_;
  ReplicationService* service_ = nullptr;
};

TEST_F(ReplicationFixture, WritesLandOnAllCopies) {
  setup();
  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  write_disk(vm_->disk(), 100, data);

  EXPECT_EQ(backing("primary").read_sync(100, 8), data);
  EXPECT_EQ(backing("replica0").read_sync(100, 8), data);
  EXPECT_EQ(backing("replica1").read_sync(100, 8), data);
  EXPECT_EQ(service_->writes_replicated(), 1u);
  EXPECT_EQ(service_->live_replicas(), 2u);
}

TEST_F(ReplicationFixture, ReadsStripeAcrossCopies) {
  setup();
  Bytes data = testutil::pattern_bytes(4 * block::kSectorSize);
  write_disk(vm_->disk(), 0, data);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(read_disk(vm_->disk(), 0, 4), data) << "iteration " << i;
  }
  EXPECT_GT(service_->reads_from_primary(), 0u);
  EXPECT_GT(service_->reads_from_replicas(), 0u);
  EXPECT_EQ(service_->reads_from_primary() + service_->reads_from_replicas(),
            9u);
}

TEST_F(ReplicationFixture, SurvivesReplicaFailure) {
  setup();
  Bytes data = testutil::pattern_bytes(4 * block::kSectorSize);
  write_disk(vm_->disk(), 0, data);

  // Fail replica0 by closing its iSCSI session (as the paper does).
  auto iqn = cloud_.find_attachment(dep_.mb_vm(0)->name(), "replica0");
  ASSERT_TRUE(iqn.has_value());
  EXPECT_EQ(cloud_.storage(0).target().close_sessions_for(iqn->iqn), 1u);
  sim_.run();

  // All reads still succeed; rotation sheds the dead replica.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(read_disk(vm_->disk(), 0, 4), data) << "iteration " << i;
  }
  EXPECT_LE(service_->live_replicas(), 1u);
  EXPECT_GE(service_->failovers(), 1u);

  // Writes keep replicating to the survivor.
  Bytes data2 = testutil::pattern_bytes(4 * block::kSectorSize, 9);
  write_disk(vm_->disk(), 50, data2);
  EXPECT_EQ(backing("primary").read_sync(50, 4), data2);
  EXPECT_EQ(backing("replica1").read_sync(50, 4), data2);
}

TEST_F(ReplicationFixture, WriteOrderIsConsistentAcrossReplicas) {
  setup();
  // Overlapping writes: all copies must end in the same state.
  for (int i = 0; i < 20; ++i) {
    Bytes data(2 * block::kSectorSize,
               static_cast<std::uint8_t>(i + 1));
    write_disk(vm_->disk(), 10, data);
  }
  Bytes primary = backing("primary").read_sync(10, 2);
  EXPECT_EQ(backing("replica0").read_sync(10, 2), primary);
  EXPECT_EQ(backing("replica1").read_sync(10, 2), primary);
  EXPECT_EQ(primary[0], 20);
}

// --- service chaining (monitor -> encryption, the paper's §II example) ------------

TEST_F(ServicesTest, MonitorThenEncryptionChain) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  auto volume = cloud_.create_volume("vol1", 262'144);
  ASSERT_TRUE(volume.is_ok());

  // Deploy the chain on the *blank* volume, then format it through the
  // spliced path so everything on the backend is ciphertext. The monitor
  // starts unarmed and bootstraps its view from the observed mkfs writes.
  ServiceSpec monitor;
  monitor.type = "monitor";
  monitor.relay = RelayMode::kActive;
  ServiceSpec encryption;
  encryption.type = "encryption";
  encryption.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {monitor, encryption});
  ASSERT_TRUE(dep.valid());

  // mkfs into a scratch image, then copy the nonzero blocks through the
  // VM's (spliced, encrypted) disk.
  block::MemDisk image(262'144);
  ASSERT_TRUE(fs::SimExt::mkfs(image).is_ok());
  const Bytes zero_block(fs::kBlockSize, 0);
  for (std::uint64_t block = 0; block < 262'144 / fs::kSectorsPerBlock;
       ++block) {
    Bytes content = image.read_sync(block * fs::kSectorsPerBlock,
                                    fs::kSectorsPerBlock);
    if (content == zero_block) continue;
    write_disk(vm.disk(), block * fs::kSectorsPerBlock, content);
  }

  fs::SimExt fs(sim_, *vm.disk());
  bool mounted = false;
  fs.mount([&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    mounted = true;
  });
  sim_.run();
  ASSERT_TRUE(mounted);

  bool done = false;
  fs.create("/audit.log", [&](Status s) { ASSERT_TRUE(s.is_ok()); done = true; });
  sim_.run();
  ASSERT_TRUE(done);
  done = false;
  Bytes content = testutil::pattern_bytes(8192);
  fs.write_file("/audit.log", 0, content, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    done = true;
  });
  sim_.run();
  ASSERT_TRUE(done);

  // Monitor (first box) saw plaintext file semantics...
  auto* mon = static_cast<MonitorService*>(dep.service(0));
  bool saw = false;
  for (const auto& entry : mon->log()) {
    if (entry.op.path == "/audit.log" &&
        entry.op.kind == core::FileOp::Kind::kWrite) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw) << "monitor must run before encryption in the chain";

  // ...while the backend stores ciphertext.
  Bytes got;
  done = false;
  fs.read_file("/audit.log", 0, 8192, [&](Status s, Bytes d) {
    ASSERT_TRUE(s.is_ok());
    got = std::move(d);
    done = true;
  });
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got, content);
}

}  // namespace
}  // namespace storm::services
