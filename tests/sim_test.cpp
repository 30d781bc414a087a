#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace storm::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, FifoTieBreakAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&] {
    ++fired;
    sim.schedule_in(9, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule(100, [] {});
  sim.run();
  int fired = 0;
  sim.schedule(5, [&] { ++fired; });  // in the past; must still run
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000u);
  EXPECT_EQ(milliseconds(1), 1'000'000u);
  EXPECT_EQ(seconds(2), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

// --- the redesigned scheduling surface ---

TEST(ExecutorApi, ScheduleReturnsWorkingCancelToken) {
  Simulator sim;
  int fired = 0;
  Executor exec = sim.executor();
  CancelToken keep = exec.schedule(10, [&] { ++fired; });
  CancelToken drop = exec.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(keep.armed());
  EXPECT_TRUE(drop.armed());
  drop.cancel();
  EXPECT_FALSE(drop.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(keep.armed());  // fired tokens read as disarmed
  EXPECT_EQ(sim.now(), 10u);   // cancelled tail never advanced the clock
}

TEST(ExecutorApi, ScheduleInZeroPostsToEndOfCurrentTick) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5, [&] {
    order.push_back(1);
    sim.schedule_in(0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.schedule(5, [&] { order.push_back(10); });
  sim.run();
  // The posted callback runs at t=5 but after everything already queued.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 3}));
  EXPECT_EQ(sim.now(), 5u);
}

TEST(ExecutorApi, ImplicitConversionFromSimulatorIsPartitionZero) {
  Simulator sim;
  Executor exec = sim;  // the migration path for Simulator&-taking ctors
  EXPECT_TRUE(exec.valid());
  EXPECT_EQ(exec.partition_id(), 0u);
  EXPECT_EQ(&exec.simulator(), &sim);
  int fired = 0;
  exec.schedule_in(7, [&] { fired = 1; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(exec.now(), 7u);
}

TEST(ExecutorApi, ScheduleSurfaceCoversTheOldShims) {
  // The deprecated at/after/post shims are gone; the two-call Executor
  // surface expresses every pattern they covered.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  CancelToken a = sim.schedule(20, [&] { order.push_back(2); });
  sim.schedule_in(30, [&] { order.push_back(3); });
  CancelToken b = sim.schedule_in(40, [&] { order.push_back(4); });
  sim.schedule_in(0, [&] { order.push_back(0); });
  b.cancel();
  EXPECT_TRUE(a.armed());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- generation-counted cancel slots ---

TEST(CancelSlot, StaleTokenAfterSlotReuseIsHarmless) {
  Simulator sim;
  int first = 0;
  int second = 0;
  CancelToken stale = sim.schedule(10, [&] { ++first; });
  stale.cancel();
  sim.run();  // discards the dead event: its slot goes back to the pool
  // The very next schedule reuses the recycled slot under a new
  // generation; the stale token must not be able to touch it.
  CancelToken fresh = sim.schedule(20, [&] { ++second; });
  EXPECT_FALSE(stale.armed());
  EXPECT_TRUE(fresh.armed());
  stale.cancel();  // double-cancel of a dead token: no-op
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(CancelSlot, TokensRecycleWithoutGrowingThePool) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    CancelToken t = sim.schedule(static_cast<Time>(i + 1), [&] { ++fired; });
    if (i % 2 == 0) t.cancel();
    sim.run();
  }
  EXPECT_EQ(fired, 5'000);
}

TEST(CancelSlot, CancelAfterMigrationAcrossPartitions) {
  // A cross-partition event can be cancelled after it has already been
  // drained into the destination's queue: the generation CAS on the
  // sender-homed slot wins, and the destination discards the dead event.
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 2;
  config.lookahead = 100;
  Simulator sim(config);
  int fired = 0;
  CancelToken t;
  sim.executor(0).schedule(5, [&] {
    t = sim.executor(1).schedule(500, [&] { ++fired; });
  });
  // t=250 is past the first barrier, so the mail has migrated into
  // partition 1's queue — and still 250ns before it would fire.
  sim.executor(0).schedule(250, [&] {
    EXPECT_TRUE(t.armed());
    t.cancel();
    EXPECT_FALSE(t.armed());
  });
  // Keep partition 1 busy past the would-be firing time.
  sim.executor(1).schedule(600, [&] {});
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
}

// --- partitioned execution ---

TEST(Partition, CrossPartitionEventsArriveAtTheirTimestamp) {
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Executor p0 = sim.executor(0);
  Executor p1 = sim.executor(1);
  Time fired_at = 0;
  const Time send_at = microseconds(3);
  const Time arrive_at = microseconds(17);
  p0.schedule(send_at, [&, p1]() mutable {
    p1.schedule(arrive_at, [&] { fired_at = sim.executor(1).now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, arrive_at);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
}

TEST(Partition, IdlePartitionDoesNotOutrunTheWindow) {
  // Regression: an empty-queue partition must advance in lockstep with
  // the global lookahead window, not jump to the caller's deadline —
  // otherwise a cross-partition event landing later would be in its past.
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Time observed_now = kNever;
  const Time arrive_at = microseconds(25);
  sim.executor(0).schedule(microseconds(2), [&] {
    sim.executor(1).schedule(arrive_at,
                             [&] { observed_now = sim.executor(1).now(); });
  });
  // Partition 1 is idle until the mail lands. A distant deadline must
  // not have dragged its clock past the arrival time.
  sim.run_until(seconds(1));
  EXPECT_EQ(observed_now, arrive_at);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
  EXPECT_EQ(sim.now(), seconds(1));
}

TEST(Partition, SameTimestampMailOrdersBySourcePartitionThenSeq) {
  // Three partitions all mail partition 0 for the same timestamp; the
  // merge rule (when, src_partition, src_seq) fixes the execution order
  // regardless of scheduling order here.
  ParallelConfig config;
  config.partitions = 4;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  std::vector<int> order;
  const Time t0 = microseconds(1);
  const Time when = microseconds(15);
  // Schedule the senders in reverse partition order to prove the merge
  // ignores arrival order.
  for (int src = 3; src >= 1; --src) {
    sim.executor(static_cast<std::uint32_t>(src)).schedule(t0, [&, src] {
      Executor dest = sim.executor(0);
      dest.schedule(when, [&, src] { order.push_back(src * 10); });
      dest.schedule(when, [&, src] { order.push_back(src * 10 + 1); });
    });
  }
  sim.run();
  // src 1's two sends (in its send order), then src 2's, then src 3's.
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 30, 31}));
}

TEST(Partition, LocalFifoStillHoldsAcrossTheMailboxBoundary) {
  // A destination-local event and a same-timestamp mailbox event: the
  // local one was enqueued in an earlier window, so it runs first.
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  std::vector<std::string> order;
  const Time when = microseconds(15);
  sim.executor(0).schedule(when, [&] { order.push_back("local"); });
  sim.executor(1).schedule(microseconds(1), [&] {
    sim.executor(0).schedule(when, [&] { order.push_back("mail"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"local", "mail"}));
}

TEST(Partition, LookaheadViolationsAreClampedAndCounted) {
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Time fired_at = 0;
  sim.executor(0).schedule(microseconds(5), [&] {
    // One nanosecond ahead: far inside the lookahead window. The mail
    // arrives after the destination's window already passed that time;
    // it must clamp (time never regresses) and be counted.
    sim.executor(1).schedule(microseconds(5) + 1,
                             [&] { fired_at = sim.executor(1).now(); });
  });
  sim.run();
  EXPECT_GE(fired_at, microseconds(5) + 1);
  EXPECT_EQ(sim.lookahead_violations(), 1u);
}

TEST(Partition, RunCountsEventsAcrossAllPartitions) {
  ParallelConfig config;
  config.partitions = 3;
  config.threads = 1;
  Simulator sim(config);
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 5; ++i) {
      sim.executor(p).schedule(static_cast<Time>(i * 100), [] {});
    }
  }
  EXPECT_EQ(sim.pending(), 15u);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 15u);
  EXPECT_TRUE(sim.empty());
}

// --- determinism across thread counts ---

// One seeded multi-partition scenario: per-partition actors burn
// counters/histograms, record flight-recorder events, and mail random
// partitions one lookahead (plus jitter) ahead. Returns the merged
// telemetry dump — the byte-identity probe.
std::string run_seeded_scenario(std::uint64_t seed, std::uint32_t threads) {
  ParallelConfig config;
  config.partitions = 4;
  config.threads = threads;
  config.lookahead = microseconds(10);
  Simulator sim(config);

  struct Actor {
    Rng rng;
    int budget = 40;
  };
  auto actors = std::make_shared<std::vector<Actor>>();
  for (std::uint32_t p = 0; p < 4; ++p) {
    actors->push_back(Actor{Rng(seed * 1000003u + p), 40});
  }

  // step(p) runs inside partition p, does seeded work, then either
  // reschedules locally or mails a random partition ahead of the window.
  // Events hold it by reference: sim.run() drains them all before it
  // goes out of scope.
  std::function<void(std::uint32_t)> step;
  step = [&sim, actors, &step](std::uint32_t p) {
    Actor& actor = (*actors)[p];
    Executor self = sim.executor(p);
    obs::Registry& reg = self.telemetry();
    reg.counter("test.steps").add();
    reg.histogram("test.draw").record(
        static_cast<std::int64_t>(actor.rng.below(1000)));
    if (actor.rng.chance(0.25)) {
      reg.record_event("p" + std::to_string(p) + " step");
    }
    if (--actor.budget <= 0) return;
    const auto target =
        static_cast<std::uint32_t>(actor.rng.below(4));
    const Duration jitter = actor.rng.between(0, microseconds(5));
    if (target == p) {
      self.schedule_in(1 + jitter, [&step, p] { step(p); });
    } else {
      // Cross-partition: at least one full lookahead ahead.
      sim.executor(target).schedule_in(
          microseconds(10) + jitter, [&step, target] { step(target); });
    }
  };
  for (std::uint32_t p = 0; p < 4; ++p) {
    sim.executor(p).schedule(microseconds(1) * (p + 1),
                             [&step, p] { step(p); });
  }
  sim.run();
  EXPECT_EQ(sim.lookahead_violations(), 0u);
  return sim.telemetry_json(/*include_spans=*/true);
}

TEST(ParallelDeterminism, SeededRunsAreByteIdenticalAtAnyThreadCount) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::string one = run_seeded_scenario(seed, 1);
    const std::string four = run_seeded_scenario(seed, 4);
    const std::string eight = run_seeded_scenario(seed, 8);
    ASSERT_EQ(one, four) << "seed " << seed << ": 1-thread vs 4-thread";
    ASSERT_EQ(one, eight) << "seed " << seed << ": 1-thread vs 8-thread";
  }
}

TEST(ParallelDeterminism, DistinctSeedsProduceDistinctTelemetry) {
  // Guard against the scenario degenerating into seed-independent output
  // (which would make the identity assertion above vacuous).
  std::set<std::string> dumps;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    dumps.insert(run_seeded_scenario(seed, 4));
  }
  EXPECT_EQ(dumps.size(), 5u);
}

TEST(ParallelDeterminism, MergedTelemetryMatchesSinglePartitionShape) {
  // merged_json must emit the same JSON shape as the classic to_json so
  // downstream tooling doesn't care how many partitions produced it.
  Simulator sim;
  sim.telemetry().counter("x").add(3);
  const std::string single = sim.telemetry().to_json();
  const std::string merged = sim.telemetry_json();
  EXPECT_EQ(single, merged);
}

// --- event queue: 24-byte heap keys, cancelled timers dropped in bulk ---

TEST(EventQueue, CancelledTimersDoNotAccumulate) {
  // Every 1 us tick cancels and re-arms a few 200 ms timers, the way each
  // ACK restarts a TCP retransmission timer. The cancelled timers must
  // leave the queue long before their deadlines.
  Simulator sim;
  constexpr std::size_t kTimers = 4;
  constexpr std::size_t kTicks = 100'000;
  const Duration rto = milliseconds(200);
  std::vector<CancelToken> timers(kTimers);
  std::vector<Time> fired_at(kTimers, 0);
  std::size_t max_pending = 0;
  Time last_tick = 0;
  std::size_t ticks = 0;
  std::function<void()> tick = [&] {
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers[i].cancel();
      timers[i] = sim.schedule_in(rto, [&, i] { fired_at[i] = sim.now(); });
    }
    max_pending = std::max(max_pending, sim.pending());
    last_tick = sim.now();
    if (++ticks < kTicks) sim.schedule_in(microseconds(1), tick);
  };
  sim.schedule(0, tick);
  EXPECT_EQ(sim.run(), kTicks + kTimers);
  EXPECT_EQ(ticks, kTicks);
  // Five live events at any time; the heap compacts at 64 keys.
  EXPECT_LE(max_pending, 64u);
  // The timers left armed by the last tick still fire at their deadline.
  for (const Time t : fired_at) EXPECT_EQ(t, last_tick + rto);
  EXPECT_TRUE(sim.empty());
}

constexpr Duration kModelLookahead = 100;

/// Reference model of the simulator's event queues: per partition, the
/// live events as a std::set of (when, seq, id). A cancelled event just
/// leaves the set; its deadline is remembered until a run passes it, to
/// bound what a queue that kept every cancelled key would hold. The
/// model runs partitions in one global (when, partition, seq) sweep:
/// partitions interact only through cancels aimed at least one
/// lookahead ahead, so every per-partition order matches the windowed
/// kernel's.
class ModelQueue {
 public:
  explicit ModelQueue(std::uint32_t parts) : parts_(parts) {}

  std::function<void(std::uint32_t, int)> fire;

  Time now(std::uint32_t p) const { return parts_[p].now; }
  void schedule(std::uint32_t p, Time when, int id) {
    Part& part = parts_[p];
    const Entry e{std::max(when, part.now), part.seq++, id};
    part.live.insert(e);
    if (part.by_id.size() <= static_cast<std::size_t>(id)) {
      part.by_id.resize(static_cast<std::size_t>(id) + 1);
    }
    part.by_id[static_cast<std::size_t>(id)] = e;
  }
  void schedule_now(std::uint32_t p, int id) { schedule(p, now(p), id); }
  bool armed(std::uint32_t p, int id) const {
    const Part& part = parts_[p];
    return part.live.count(part.by_id[static_cast<std::size_t>(id)]) > 0;
  }
  void cancel(std::uint32_t p, int id) {
    Part& part = parts_[p];
    const Entry& e = part.by_id[static_cast<std::size_t>(id)];
    if (part.live.erase(e) > 0) part.dead.insert(std::get<0>(e));
  }
  std::size_t run_until(Time deadline) {
    const std::size_t count = sweep(deadline);
    for (Part& part : parts_) part.now = std::max(part.now, deadline);
    return count;
  }
  std::size_t run() { return sweep(kNever); }
  /// {live events, live + cancelled keys not yet past a run's deadline}.
  std::pair<std::size_t, std::size_t> size_bounds() const {
    std::size_t live = 0;
    std::size_t keys = 0;
    for (const Part& part : parts_) {
      live += part.live.size();
      keys += part.live.size() + part.dead.size();
    }
    return {live, keys};
  }

 private:
  using Entry = std::tuple<Time, std::uint64_t, int>;  // when, seq, id
  struct Part {
    Time now = 0;
    std::uint64_t seq = 0;
    std::set<Entry> live;
    std::multiset<Time> dead;
    std::vector<Entry> by_id;
  };

  std::size_t sweep(Time deadline) {
    std::size_t count = 0;
    for (;;) {
      Part* next = nullptr;
      std::uint32_t next_p = 0;
      for (std::uint32_t p = 0; p < parts_.size(); ++p) {
        Part& part = parts_[p];
        if (part.live.empty()) continue;
        const Time when = std::get<0>(*part.live.begin());
        if (when > deadline) continue;
        if (next == nullptr || when < std::get<0>(*next->live.begin())) {
          next = &part;
          next_p = p;
        }
      }
      if (next == nullptr) break;
      const Entry e = *next->live.begin();
      next->live.erase(next->live.begin());
      next->now = std::get<0>(e);
      ++count;
      fire(next_p, std::get<2>(e));
    }
    for (Part& part : parts_) {
      part.dead.erase(part.dead.begin(), part.dead.upper_bound(deadline));
    }
    return count;
  }

  std::vector<Part> parts_;
};

/// The same operations against the real simulator, one CancelToken per
/// event id.
class RealQueue {
 public:
  RealQueue(std::uint32_t parts, std::uint32_t threads)
      : sim_(config(parts, threads)), tokens_(parts) {}

  std::function<void(std::uint32_t, int)> fire;

  Time now(std::uint32_t p) { return sim_.executor(p).now(); }
  void schedule(std::uint32_t p, Time when, int id) {
    token_slot(p, id) =
        sim_.executor(p).schedule(when, [this, p, id] { fire(p, id); });
  }
  void schedule_now(std::uint32_t p, int id) {
    token_slot(p, id) =
        sim_.executor(p).schedule_in(0, [this, p, id] { fire(p, id); });
  }
  bool armed(std::uint32_t p, int id) {
    return token_slot(p, id).armed();
  }
  void cancel(std::uint32_t p, int id) { token_slot(p, id).cancel(); }
  CancelToken token(std::uint32_t p, int id) { return token_slot(p, id); }
  std::size_t run_until(Time deadline) { return sim_.run_until(deadline); }
  std::size_t run() { return sim_.run(); }
  std::pair<std::size_t, std::size_t> size_bounds() const {
    return {sim_.pending(), sim_.pending()};
  }

 private:
  static ParallelConfig config(std::uint32_t parts, std::uint32_t threads) {
    ParallelConfig c;
    c.partitions = parts;
    c.threads = threads;
    c.lookahead = kModelLookahead;
    return c;
  }
  CancelToken& token_slot(std::uint32_t p, int id) {
    std::vector<CancelToken>& tokens = tokens_[p];
    if (tokens.size() <= static_cast<std::size_t>(id)) {
      tokens.resize(static_cast<std::size_t>(id) + 1);
    }
    return tokens[static_cast<std::size_t>(id)];
  }

  Simulator sim_;
  std::vector<std::vector<CancelToken>> tokens_;  // [partition][id]
};

/// A seeded random program over a queue. Each partition owns an id space
/// and an Rng; a firing event logs (id, clock) and performs 1-4 random
/// operations: schedule (absolute, possibly in the past) or
/// schedule_in(0), cancel of any id the partition ever scheduled (live,
/// fired, cancelled, or with its slot recycled to a newer event), a
/// double cancel, and a cancel of another partition's event at least one
/// lookahead ahead. Between run_until steps the coordinator schedules
/// and cancels too. Everything each partition observes goes to its log.
template <typename Queue>
class RandomOps {
 public:
  RandomOps(Queue& q, std::uint32_t parts, std::uint64_t seed)
      : q_(q), parts_(parts), top_(seed), state_(parts) {
    for (std::uint32_t p = 0; p < parts; ++p) {
      state_[p].rng = Rng(seed * 7919 + p + 1);
    }
    q_.fire = [this](std::uint32_t p, int id) { on_fire(p, id); };
  }

  struct Result {
    std::vector<std::vector<std::uint64_t>> logs;  // per partition
    std::vector<std::uint64_t> steps;  // run counts and clocks
    std::vector<std::pair<std::size_t, std::size_t>> sizes;
  };

  Result drive() {
    for (int round = 0; round < 80; ++round) {
      const auto ops = top_.between(1, 8);
      for (std::uint64_t i = 0; i < ops; ++i) {
        const auto p = static_cast<std::uint32_t>(top_.below(parts_));
        const Time now = q_.now(p);
        switch (top_.below(5)) {
          case 0:  // absolute, possibly in the past (clamped)
            q_.schedule(p, now + top_.between(0, 400) - std::min<Time>(now, 5),
                        new_id(p));
            break;
          case 1:
            q_.schedule_now(p, new_id(p));
            break;
          case 2: {  // a target other partitions may cancel
            const int id = new_id(p);
            const Time when = now + top_.between(kModelLookahead, 2000);
            q_.schedule(p, when, id);
            state_[p].remote_target[static_cast<std::size_t>(id)] = true;
            remote_.push_back(Remote{p, id, when, token_of(p, id)});
            break;
          }
          default:
            cancel_some(p, top_);
            break;
        }
      }
      const Time deadline = q_.now(0) + top_.between(1, 300);
      result_.steps.push_back(q_.run_until(deadline));
      for (std::uint32_t p = 0; p < parts_; ++p) {
        result_.steps.push_back(q_.now(p));
      }
      result_.sizes.push_back(q_.size_bounds());
    }
    result_.steps.push_back(q_.run());
    if (parts_ == 1) result_.steps.push_back(q_.now(0));
    for (Part& part : state_) result_.logs.push_back(std::move(part.log));
    return std::move(result_);
  }

 private:
  static constexpr std::uint64_t kArmedTag = 1ull << 62;
  static constexpr int kBudget = 1500;  // schedules per partition's events

  struct Remote {
    std::uint32_t p;
    int id;
    Time when;
    CancelToken token;
  };
  struct Part {
    Rng rng;
    int next_id = 0;
    int scheduled = 0;
    std::vector<bool> remote_target;
    std::vector<std::uint64_t> log;
  };

  int new_id(std::uint32_t p) {
    Part& part = state_[p];
    part.remote_target.push_back(false);
    return part.next_id++;
  }

  CancelToken token_of(std::uint32_t p, int id) {
    if constexpr (std::is_same_v<Queue, RealQueue>) {
      return q_.token(p, id);
    } else {
      (void)p;
      (void)id;
      return CancelToken();
    }
  }

  void cancel_some(std::uint32_t p, Rng& rng) {
    Part& part = state_[p];
    if (part.next_id == 0) return;
    const auto id = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(part.next_id)));
    if (!part.remote_target[static_cast<std::size_t>(id)]) {
      // Remote targets may be cancelled concurrently from another
      // partition within this window, so only local ids are observed.
      part.log.push_back(kArmedTag | (q_.armed(p, id) ? 1u : 0u));
    }
    q_.cancel(p, id);
    if (rng.chance(0.2)) q_.cancel(p, id);  // double cancel
  }

  void on_fire(std::uint32_t p, int id) {
    Part& part = state_[p];
    const Time now = q_.now(p);
    part.log.push_back(static_cast<std::uint64_t>(id));
    part.log.push_back(now);
    const auto ops = part.rng.between(1, 4);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto roll = part.rng.below(100);
      if (roll < 55) {
        if (part.scheduled >= kBudget) continue;
        ++part.scheduled;
        const auto kind = part.rng.below(3);
        if (kind == 0) {
          q_.schedule_now(p, new_id(p));
        } else {
          // Short hops, or a long "retransmission timer".
          const Duration delay = kind == 1 ? part.rng.between(1, 50)
                                           : part.rng.between(200, 400);
          q_.schedule(p, now + delay, new_id(p));
        }
      } else if (roll < 90 || remote_.empty()) {
        cancel_some(p, part.rng);
      } else {
        const Remote& r = remote_[part.rng.below(remote_.size())];
        if (r.p != p && r.when >= now + kModelLookahead) {
          if constexpr (std::is_same_v<Queue, RealQueue>) {
            CancelToken t = r.token;  // tokens are per-thread values
            t.cancel();
          } else {
            q_.cancel(r.p, r.id);
          }
        }
      }
    }
  }

  Queue& q_;
  const std::uint32_t parts_;
  Rng top_;
  std::vector<Part> state_;
  std::vector<Remote> remote_;  // appended only between runs
  Result result_;
};

TEST(EventQueue, RandomOpsMatchReferenceModel) {
  std::size_t compacted_checkpoints = 0;
  std::size_t checkpoints = 0;
  for (const std::uint32_t parts : {1u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      ModelQueue model(parts);
      const auto expect = RandomOps<ModelQueue>(model, parts, seed).drive();
      RealQueue real(parts, parts);
      const auto got = RandomOps<RealQueue>(real, parts, seed).drive();
      ASSERT_EQ(got.steps, expect.steps)
          << parts << " partition(s), seed " << seed;
      ASSERT_EQ(got.logs, expect.logs)
          << parts << " partition(s), seed " << seed;
      if (parts > 1) {
        // Compaction must not make the queue contents, and so the
        // window floors, depend on the thread count.
        RealQueue serial(parts, 1);
        const auto one = RandomOps<RealQueue>(serial, parts, seed).drive();
        ASSERT_EQ(one.sizes, got.sizes) << "seed " << seed;
      }
      ASSERT_EQ(got.sizes.size(), expect.sizes.size());
      for (std::size_t i = 0; i < got.sizes.size(); ++i) {
        // pending() holds every live event and never more keys than a
        // queue that kept each cancelled one until its deadline.
        const std::size_t pending = got.sizes[i].first;
        const auto [live, keys] = expect.sizes[i];
        ASSERT_LE(live, pending) << "seed " << seed << " step " << i;
        ASSERT_LE(pending, keys) << "seed " << seed << " step " << i;
        ++checkpoints;
        if (pending < keys) ++compacted_checkpoints;
      }
    }
  }
  // Compaction must actually have run, and often: about one checkpoint
  // in six finds cancelled keys gone before their deadlines.
  EXPECT_GT(compacted_checkpoints, checkpoints / 10);
}

TEST(Cpu, SingleCoreSerializesTasks) {
  Simulator sim;
  Cpu cpu(sim, "c", 1);
  std::vector<Time> done_at;
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 100u);
  EXPECT_EQ(done_at[1], 200u);  // queued behind the first
  EXPECT_EQ(cpu.busy_time(), 200u);
}

TEST(Cpu, MultiCoreRunsInParallel) {
  Simulator sim;
  Cpu cpu(sim, "c", 2);
  std::vector<Time> done_at;
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], 100u);
  EXPECT_EQ(done_at[1], 100u);
  EXPECT_EQ(done_at[2], 200u);
}

TEST(Cpu, BusyTimeAccumulates) {
  Simulator sim;
  Cpu cpu(sim, "c", 4);
  cpu.burn(50);
  cpu.burn(70);
  sim.run();
  EXPECT_EQ(cpu.busy_time(), 120u);
}

// sim::Stats was folded into obs::Histogram (one percentile
// implementation for workloads, benches and telemetry alike); these
// tests pin the behaviours the workload layer relies on.
TEST(Histogram, MeanMinMax) {
  obs::Histogram h;
  h.record(1);
  h.record(2);
  h.record(3);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 3);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, Percentiles) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  // HDR buckets are exact below 64 and within ~1.6% above.
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 2.0);
}

TEST(Histogram, PercentileRejectsOutOfRange) {
  obs::Histogram h;
  h.record(1);
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);
}

TEST(Histogram, ClearResets) {
  obs::Histogram h;
  h.record(5);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, MergeMatchesRecordingOneStream) {
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram combined;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng.below(100'000));
    ((i % 2 == 0) ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p));
  }
}

// --- sim::Task: coroutine control flow -----------------------------------

Task<int> sleep_then(Executor ex, Duration delay, int value,
                     std::vector<int>* order) {
  co_await sleep(ex, delay);
  order->push_back(value);
  co_return value;
}

TEST(Task, StartsEagerlyAndResumesInsideTheFiringEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  Task<int> task = sleep_then(sim, 10, 2, &order);  // queued after event 1
  sim.schedule(10, [&] { order.push_back(3); });
  EXPECT_FALSE(task.done());
  sim.run();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<int> add_after_child(Executor ex, std::vector<int>* order) {
  int a = co_await sleep_then(ex, 5, 10, order);
  int b = co_await sleep_then(ex, 5, 20, order);
  co_return a + b;
}

TEST(Task, ParentResumesWhenItsChildFinishes) {
  Simulator sim;
  std::vector<int> order;
  int result = 0;
  spawn(then(add_after_child(sim, &order), [&](int v) { result = v; }));
  EXPECT_EQ(result, 0);
  sim.run();
  EXPECT_EQ(result, 30);
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), 10u);
}

Task<int> count_inline(int n) {
  int total = 0;
  for (int i = 0; i < n; ++i) {
    total += co_await until<int>([](auto done) { done(1); });
  }
  co_return total;
}

TEST(Task, InlineCompletionsRunFlat) {
  // Each await completes inside start(): the body must carry on without
  // nesting a frame per completion, or this loop would overflow the
  // stack.
  Task<int> task = count_inline(1'000'000);
  ASSERT_TRUE(task.done());
  int total = 0;
  spawn(then(std::move(task), [&](int v) { total = v; }));
  EXPECT_EQ(total, 1'000'000);
}

Task<Status> join_three(Executor ex) {
  Join join;
  ex.schedule_in(30, [done = join.add()] { done(Status::ok()); });
  ex.schedule_in(10, [done = join.add()] {
    done(error(ErrorCode::kIoError, "first"));
  });
  ex.schedule_in(20, [done = join.add()] {
    done(error(ErrorCode::kNotFound, "second"));
  });
  join.fail(Status::ok());  // OK never counts as a failure
  co_return co_await join;
}

TEST(Task, JoinWaitsForAllAndKeepsTheFirstError) {
  Simulator sim;
  Status status;
  Time finished = 0;
  spawn(then(join_three(sim), [&](Status s) {
    status = s;
    finished = sim.now();
  }));
  sim.run();
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_EQ(status.message(), "first");
  EXPECT_EQ(finished, 30u);
}

// A sub-task that hands out more of the Join's callbacks after the
// awaiting frame has suspended on it.
Task<Status> add_late(Executor ex, Join& join) {
  co_await sleep(ex, 10);
  ex.schedule_in(20, [done = join.add()] {
    done(error(ErrorCode::kIoError, "late"));
  });
  co_return Status::ok();
}

Task<Status> join_with_late_adds(Executor ex) {
  Join join;
  join.add(add_late(ex, join));
  co_return co_await join;
}

TEST(Task, JoinAcceptsCallbacksAddedAfterItsAwaiterSuspended) {
  Simulator sim;
  Status status;
  Time finished = 0;
  spawn(then(join_with_late_adds(sim), [&](Status s) {
    status = s;
    finished = sim.now();
  }));
  sim.run();
  EXPECT_EQ(status.message(), "late");
  EXPECT_EQ(finished, 30u);
}

struct Tracer {
  int* destroyed;
  ~Tracer() { ++*destroyed; }
};

Task<void> wait_forever_on(Executor ex, int* destroyed, bool* resumed) {
  Tracer tracer{destroyed};
  co_await sleep(ex, seconds(100));
  *resumed = true;
}

Task<void> outer(Executor ex, int* destroyed, bool* resumed) {
  Tracer tracer{destroyed};
  co_await wait_forever_on(ex, destroyed, resumed);
  *resumed = true;
}

TEST(Task, DetachedTaskFreesItsFrameWhenItEnds) {
  int destroyed = 0;
  bool resumed = false;
  {
    Simulator sim;
    spawn(outer(sim, &destroyed, &resumed));
    EXPECT_EQ(destroyed, 0);
    sim.run();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(Task, ChainWhoseWakeupIsDroppedIsDestroyed) {
  // The simulator goes away with the sleep's event still queued: nothing
  // can resume the chain any more, so both frames are destroyed rather
  // than leaked.
  int destroyed = 0;
  bool resumed = false;
  {
    Simulator sim;
    spawn(outer(sim, &destroyed, &resumed));
    sim.run_until(seconds(1));
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_FALSE(resumed);
  EXPECT_EQ(destroyed, 2);
}

TEST(Task, BarrierRunsInlineOnOnePartition) {
  Simulator sim;
  bool passed = false;
  auto body = [](Simulator& s, bool* flag) -> Task<void> {
    co_await barrier(s);
    *flag = true;
  };
  spawn(body(sim, &passed));
  EXPECT_TRUE(passed);
}

// --- sim::Mutex ----------------------------------------------------------

// Take `mutex`, note `id` and the time, keep the lock for `hold`, then
// post a follow-up event before releasing it.
Task<void> hold_lock(Simulator& sim, Mutex& mutex, int id, Duration hold,
                     std::vector<std::string>* log) {
  Mutex::Guard guard = co_await mutex.lock();
  log->push_back("take " + std::to_string(id) + "@" +
                 std::to_string(sim.now()));
  Executor ex = sim.executor();
  co_await sleep(ex, hold);
  log->push_back("leave " + std::to_string(id));
  ex.schedule_in(0, [log, id] {
    log->push_back("after " + std::to_string(id));
  });
}

TEST(Task, MutexUncontendedLockIsTakenInline) {
  Simulator sim;
  Mutex mutex(sim);
  std::vector<std::string> log;
  spawn(hold_lock(sim, mutex, 1, 10, &log));
  EXPECT_EQ(log, (std::vector<std::string>{"take 1@0"}));
  EXPECT_EQ(sim.pending(), 1u) << "only the holder's sleep is queued";
  sim.run();
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Task, MutexWaitersAcquireInFifoOrderAfterRelease) {
  // On one partition each waiter takes over at the tick its predecessor
  // let go, in a fresh event after the ones the releasing event posted.
  Simulator sim;
  Mutex mutex(sim);
  std::vector<std::string> log;
  for (int id = 1; id <= 3; ++id) spawn(hold_lock(sim, mutex, id, 5, &log));
  EXPECT_EQ(log, (std::vector<std::string>{"take 1@0"}));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"take 1@0", "leave 1", "after 1",
                                           "take 2@5", "leave 2", "after 2",
                                           "take 3@10", "leave 3",
                                           "after 3"}));
}

// Take `mutex`, then record whether this ran in a partition window and
// when.
Task<void> lock_and_note(Mutex& mutex, Simulator& sim, bool* in_partition,
                         Time* at) {
  Mutex::Guard guard = co_await mutex.lock();
  *in_partition = Simulator::in_partition_context();
  *at = sim.now();
}

Task<void> hold_in_partition(Mutex& mutex, Executor ex, bool* in_partition) {
  Mutex::Guard guard = co_await mutex.lock();
  co_await sleep(ex, microseconds(3));
  *in_partition = Simulator::in_partition_context();
}

TEST(Task, MutexHandsOffAtTheBarrierOnSeveralPartitions) {
  // Released inside partition 1's window: the waiter takes over at the
  // window barrier, not from the releasing event.
  ParallelConfig config;
  config.partitions = 2;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Mutex mutex(sim);
  bool holder_in_partition = false;
  bool waiter_in_partition = true;
  Time waiter_took = 0;
  spawn(hold_in_partition(mutex, sim.executor(1), &holder_in_partition));
  spawn(lock_and_note(mutex, sim, &waiter_in_partition, &waiter_took));
  sim.run();
  EXPECT_TRUE(holder_in_partition);
  EXPECT_FALSE(waiter_in_partition);
  EXPECT_GE(waiter_took, microseconds(3));

  // The waiter's Guard released the lock at the barrier: free again.
  bool third_in_partition = true;
  Time third_took = 1;
  spawn(lock_and_note(mutex, sim, &third_in_partition, &third_took));
  EXPECT_EQ(third_took, sim.now()) << "taken inline";
}

Task<void> lock_forever(Mutex& mutex, int* destroyed, bool* resumed) {
  Tracer tracer{destroyed};
  Mutex::Guard guard = co_await mutex.lock();
  *resumed = true;
}

Task<void> hold_forever(Executor ex, Mutex& mutex, int* destroyed) {
  Tracer tracer{destroyed};
  Mutex::Guard guard = co_await mutex.lock();
  co_await sleep(ex, seconds(100));
}

TEST(Task, MutexWaiterStillQueuedAtTeardownIsFreed) {
  // The holder sleeps past the end of the run and a waiter queues behind
  // it. Tearing down frees both chains: the Mutex destroys its waiter,
  // the Simulator the holder (whose Guard then has nothing to release).
  int destroyed = 0;
  bool resumed = false;
  {
    Simulator sim;
    Mutex mutex(sim);
    spawn(hold_forever(sim, mutex, &destroyed));
    spawn(lock_forever(mutex, &destroyed, &resumed));
    sim.run_until(seconds(1));
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_FALSE(resumed);
  EXPECT_EQ(destroyed, 2);
}

}  // namespace
}  // namespace storm::sim
