// Partition-aware placement: the host→partition mapping, the
// auto-derived lookahead over partition-spanning links, byte-identical
// multi-tenant runs at any worker-thread count (chaos included), the
// batched cross-partition mailboxes, and the at_barrier control channel.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/health_manager.hpp"
#include "core/platform.hpp"
#include "services/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/fio.hpp"

using namespace storm;

namespace {

cloud::CloudConfig small_config() {
  cloud::CloudConfig config;
  config.compute_hosts = 3;
  config.storage_hosts = 2;
  config.link_delay = sim::microseconds(15);
  return config;
}

// ------------------------------------------------------------ Placement

TEST(Placement, HostPartitionMappingIsDeterministicAndStable) {
  const cloud::CloudConfig config = small_config();
  // Two identically configured clouds must agree on every assignment,
  // and every assignment must be a real data partition (not 0, which is
  // reserved for the shared fabric + control plane).
  sim::Simulator sim_a(cloud::Cloud::parallel_config(config, 1));
  sim::Simulator sim_b(cloud::Cloud::parallel_config(config, 1));
  cloud::Cloud a(sim_a, config);
  cloud::Cloud b(sim_b, config);

  ASSERT_EQ(sim_a.partition_count(),
            1 + config.compute_hosts + config.storage_hosts);
  for (unsigned i = 0; i < config.compute_hosts; ++i) {
    EXPECT_EQ(a.host_partition(i), b.host_partition(i));
    EXPECT_GE(a.host_partition(i), 1u);
    EXPECT_LT(a.host_partition(i), sim_a.partition_count());
  }
  for (unsigned i = 0; i < config.storage_hosts; ++i) {
    EXPECT_EQ(a.storage_partition(i), b.storage_partition(i));
    EXPECT_GE(a.storage_partition(i), 1u);
  }
  // Distinct hosts land on distinct partitions while partitions are
  // plentiful (one per physical host group).
  std::set<std::uint32_t> used;
  for (unsigned i = 0; i < config.compute_hosts; ++i) {
    used.insert(a.host_partition(i));
  }
  for (unsigned i = 0; i < config.storage_hosts; ++i) {
    used.insert(a.storage_partition(i));
  }
  EXPECT_EQ(used.size(), config.compute_hosts + config.storage_hosts);

  // A VM's components live on its host's partition (the 0-delay virtio
  // link must never span partitions).
  cloud::Vm& vm = a.create_vm("vm0", "t", 1);
  EXPECT_EQ(vm.node().executor().partition_id(), a.host_partition(1));
}

TEST(Placement, SinglePartitionSimDegenerates) {
  const cloud::CloudConfig config = small_config();

  // Single-partition simulator: every mapping collapses to 0.
  sim::Simulator single;
  cloud::Cloud classic(single, config);
  for (unsigned i = 0; i < config.compute_hosts; ++i) {
    EXPECT_EQ(classic.host_partition(i), 0u);
  }
  EXPECT_EQ(classic.storage_partition(0), 0u);
}

TEST(Placement, AutoLookaheadDerivesFromSpanningLinksWithNoViolations) {
  const cloud::CloudConfig config = small_config();
  sim::Simulator sim(cloud::Cloud::parallel_config(config, 2));
  cloud::Cloud cloud(sim, config);

  cloud::Vm& vm = cloud.create_vm("vm0", "t", 0);
  ASSERT_TRUE(cloud.create_volume("vol0", 4096).is_ok());
  bool attached = false;
  cloud.attach_volume(vm, "vol0",
                      [&](Status s, cloud::Attachment) {
                        attached = s.is_ok();
                      });
  sim.run();
  ASSERT_TRUE(attached);

  // Every partition-spanning link was wired with config.link_delay, so
  // the derived conservative lookahead is exactly that — and no event
  // may ever need to cross faster.
  EXPECT_EQ(sim.lookahead(), config.link_delay);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
}

// One multi-tenant scenario with chains, faults and recovery: the
// byte-identity witness for the whole placement layer. Returns the
// merged telemetry dump.
std::string run_tenant_scenario(unsigned threads) {
  const cloud::CloudConfig config = small_config();
  sim::Simulator sim(cloud::Cloud::parallel_config(config, threads));
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  // Three tenants on three hosts, volumes striped over both storage
  // hosts, three different relay modes.
  const core::RelayMode modes[] = {core::RelayMode::kActive,
                                   core::RelayMode::kPassive,
                                   core::RelayMode::kForward};
  std::vector<cloud::Vm*> vms;
  std::vector<core::DeploymentHandle> deployments(3);
  for (unsigned t = 0; t < 3; ++t) {
    vms.push_back(&cloud.create_vm("vm" + std::to_string(t),
                                   "tenant" + std::to_string(t), t, 2));
    EXPECT_TRUE(
        cloud.create_volume("vol" + std::to_string(t), 64 * 1024, t % 2)
            .is_ok());
    core::ServiceSpec spec;
    spec.type = modes[t] == core::RelayMode::kForward ? "noop"
                                                      : "stream_cipher";
    spec.relay = modes[t];
    platform.attach_with_chain(
        "vm" + std::to_string(t), "vol" + std::to_string(t), {spec},
        [&deployments, t](Result<core::DeploymentHandle> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          deployments[t] = r.value();
        });
  }
  sim.run();
  for (auto& d : deployments) EXPECT_TRUE(d.valid());

  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  for (unsigned t = 0; t < 3; ++t) {
    workload::FioConfig fio_config;
    fio_config.request_bytes = 16 * 1024;
    fio_config.jobs = 2;
    fio_config.duration = sim::milliseconds(400);
    fio_config.seed = 7 + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio_config));
    runners.back()->start([](workload::FioResult) {});
  }

  // fig13-style chaos while the workloads run: power-fail the active
  // relay's box and bring it back. The handle calls self-defer to the
  // window barrier when invoked from a partition thread.
  sim.schedule_in(sim::milliseconds(120), [&deployments] {
    (void)deployments[0].crash_middlebox(0);
  });
  sim.schedule_in(sim::milliseconds(200), [&deployments] {
    (void)deployments[0].restart_middlebox(0);
  });
  sim.run();

  EXPECT_EQ(sim.lookahead_violations(), 0u);
  return sim.telemetry_json();
}

TEST(Placement, MultiTenantChaosRunIsByteIdenticalAcrossThreadCounts) {
  const std::string one = run_tenant_scenario(1);
  const std::string four = run_tenant_scenario(4);
  const std::string eight = run_tenant_scenario(8);
  ASSERT_EQ(one, four) << "1-thread vs 4-thread";
  ASSERT_EQ(one, eight) << "1-thread vs 8-thread";
  // Guard against the scenario degenerating to an empty dump.
  EXPECT_NE(one.find("iscsi"), std::string::npos);
}

// ---------------------------------------------------------- MailboxBatch

// A two-partition ping-pong with staggered timestamps from both sides:
// execution order on each side must match the (when, src, seq) merge
// contract at any thread count, and the sender-side outboxes must
// coalesce multiple sends per window into fewer inbox locks.
std::vector<int> run_pingpong(unsigned threads, sim::Simulator** out_sim,
                              std::unique_ptr<sim::Simulator>* keep) {
  sim::ParallelConfig pc;
  pc.partitions = 3;
  pc.threads = threads;
  pc.lookahead = sim::microseconds(10);
  auto sim = std::make_unique<sim::Simulator>(pc);
  auto order = std::make_shared<std::vector<int>>();

  // Partitions 1 and 2 both mail partition 0 three events per round at
  // identical timestamps; the merge must order them by (src, seq).
  for (std::uint32_t p = 1; p <= 2; ++p) {
    for (int round = 0; round < 8; ++round) {
      sim.get()->executor(p).schedule(
          sim::microseconds(5) + sim::microseconds(20) * round,
          [sim = sim.get(), order, p, round] {
            for (int k = 0; k < 3; ++k) {
              sim->executor(0).schedule_in(
                  sim::microseconds(15),
                  [order, p, round, k] {
                    order->push_back(static_cast<int>(p) * 1000 +
                                     round * 10 + k);
                  });
            }
          });
    }
  }
  sim->run();
  *out_sim = sim.get();
  *keep = std::move(sim);
  return *order;
}

TEST(MailboxBatch, MergeOrderIsIdenticalAcrossThreadCounts) {
  sim::Simulator* s1 = nullptr;
  sim::Simulator* s3 = nullptr;
  std::unique_ptr<sim::Simulator> keep1, keep3;
  const std::vector<int> one = run_pingpong(1, &s1, &keep1);
  const std::vector<int> three = run_pingpong(3, &s3, &keep3);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, three);

  // Same-timestamp mail from partition 1 sorts before partition 2, and
  // each source's own sends stay FIFO.
  for (int round = 0; round < 8; ++round) {
    std::vector<int> expect;
    for (int p = 1; p <= 2; ++p) {
      for (int k = 0; k < 3; ++k) expect.push_back(p * 1000 + round * 10 + k);
    }
    const std::vector<int> got(one.begin() + round * 6,
                               one.begin() + round * 6 + 6);
    EXPECT_EQ(got, expect) << "round " << round;
  }
}

TEST(MailboxBatch, CoalescesPostsAndCountsDeterministically) {
  sim::Simulator* a = nullptr;
  sim::Simulator* b = nullptr;
  std::unique_ptr<sim::Simulator> keep_a, keep_b;
  run_pingpong(1, &a, &keep_a);
  run_pingpong(3, &b, &keep_b);
  // 3 same-window posts per sender per round: strictly fewer batches
  // than posts proves the per-(src,dst) coalescing works.
  EXPECT_GT(a->mailbox_posts(), 0u);
  EXPECT_LT(a->mailbox_batches(), a->mailbox_posts());
  // The batch/post counters are part of the deterministic surface.
  EXPECT_EQ(a->mailbox_posts(), b->mailbox_posts());
  EXPECT_EQ(a->mailbox_batches(), b->mailbox_batches());
}

TEST(MailboxBatch, CrossPartitionCancellationIsHonored) {
  sim::ParallelConfig pc;
  pc.partitions = 2;
  pc.threads = 2;
  pc.lookahead = sim::microseconds(10);
  sim::Simulator sim(pc);
  auto fired = std::make_shared<std::atomic<int>>(0);

  // From partition 1's context: mail partition 0 two events, cancel one
  // before the window ships it.
  sim.executor(1).schedule(sim::microseconds(5), [&sim, fired] {
    sim::CancelToken keep = sim.executor(0).schedule_in(
        sim::microseconds(25), [fired] { fired->fetch_add(1); });
    sim::CancelToken drop = sim.executor(0).schedule_in(
        sim::microseconds(25), [fired] { fired->fetch_add(100); });
    drop.cancel();
    EXPECT_TRUE(keep.armed());
    EXPECT_FALSE(drop.armed());
  });
  sim.run();
  EXPECT_EQ(fired->load(), 1);
}

// --------------------------------------------------------- ControlBarrier

TEST(ControlBarrier, RunsInlineOnSinglePartitionSimulators) {
  sim::Simulator sim;
  bool ran = false;
  sim.at_barrier([&] { ran = true; });
  EXPECT_TRUE(ran);  // no deferral: classic kernel semantics
  EXPECT_FALSE(sim::Simulator::in_partition_context());
}

TEST(ControlBarrier, DeferredRequestsRunInTimeSourceSeqOrder) {
  auto run_once = [](unsigned threads) {
    sim::ParallelConfig pc;
    pc.partitions = 3;
    pc.threads = threads;
    pc.lookahead = sim::microseconds(10);
    sim::Simulator sim(pc);
    auto order = std::make_shared<std::vector<int>>();
    // Both data partitions request barriers from inside their own
    // events, at interleaved timestamps.
    for (std::uint32_t p = 1; p <= 2; ++p) {
      for (int i = 0; i < 4; ++i) {
        sim.executor(p).schedule(
            sim::microseconds(3 + 7 * i),
            [&sim, order, p, i] {
              EXPECT_TRUE(sim::Simulator::in_partition_context());
              sim.at_barrier([order, p, i] {
                order->push_back(static_cast<int>(p) * 10 + i);
              });
            });
      }
    }
    sim.run();
    return *order;
  };
  const std::vector<int> one = run_once(1);
  const std::vector<int> three = run_once(3);
  ASSERT_EQ(one.size(), 8u);
  EXPECT_EQ(one, three);
  // Same request time on both partitions → partition 1 first.
  for (std::size_t i = 0; i + 1 < one.size(); i += 2) {
    EXPECT_EQ(one[i] / 10, 1);
    EXPECT_EQ(one[i + 1] / 10, 2);
    EXPECT_EQ(one[i] % 10, one[i + 1] % 10);
  }
}

TEST(ControlBarrier, NestedBarrierRequestsRunInline) {
  sim::ParallelConfig pc;
  pc.partitions = 2;
  pc.threads = 2;
  pc.lookahead = sim::microseconds(10);
  sim::Simulator sim(pc);
  auto log = std::make_shared<std::vector<std::string>>();
  sim.executor(1).schedule(sim::microseconds(5), [&sim, log] {
    sim.at_barrier([&sim, log] {
      log->push_back("outer");
      // Barrier context is not a partition context: nested requests
      // (e.g. attach_volume called from a barrier-deferred control op)
      // must run immediately, not deadlock waiting for the next window.
      sim.at_barrier([log] { log->push_back("inner"); });
      log->push_back("after");
    });
  });
  sim.run();
  const std::vector<std::string> expect = {"outer", "inner", "after"};
  EXPECT_EQ(*log, expect);
}

}  // namespace
