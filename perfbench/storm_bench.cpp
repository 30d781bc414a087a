// StorM benchmark program: runs one workload in this process and prints
// one JSON result line on stdout. perfbench/run.py launches it once per
// repetition (every repetition in its own process) and turns the results
// into the benchmark's metrics.
//
//   storm_bench --workload chain_small --seed 7 --out DIR [--trace]
//
// Every timing names its clock:
//   host  CLOCK_MONOTONIC nanoseconds, what the program takes to simulate
//   sim   simulated nanoseconds, what the modelled platform would take
//
// Each layer is measured from outside: the program times its own calls into
// cloud::Cloud, core::StormPlatform::attach_with_chain, fs::SimExt,
// sim::Simulator::run and the workload runners, and wraps every tenant's
// VM disk in ProbeDisk, a BlockDevice decorator that records per-I/O
// latency and checks every read against a shadow of the acknowledged
// writes. With --trace the program also keeps spans of those calls in
// memory and writes them, with the telemetry registry including its own
// spans, to DIR at exit.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "block/block_device.hpp"
#include "cloud/cloud.hpp"
#include "core/platform.hpp"
#include "fs/simext.hpp"
#include "obs/metrics.hpp"
#include "services/monitor.hpp"
#include "services/registry.hpp"
#include "services/replication.hpp"
#include "sim/simulator.hpp"
#include "workload/fio.hpp"
#include "workload/postmark.hpp"

namespace {

using namespace storm;

// ---------------------------------------------------------------------------
// Clocks and spans

std::int64_t host_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double host_seconds_since(std::int64_t start_ns) {
  return static_cast<double>(host_ns() - start_ns) / 1e9;
}

/// One traced interval. A field left at -1 was not measured on that clock
/// (a PostMark transaction is only known in simulated time).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t host_start = -1;
  std::int64_t host_end = -1;
  std::int64_t sim_start = -1;
  std::int64_t sim_end = -1;
};

/// In-memory span buffer. Ids are `base + index + 1`, so logs with
/// distinct bases never collide; a disabled log records nothing and
/// returns id 0. Not thread-safe: each log is touched by one thread.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint64_t base) : enabled_(enabled), base_(base) {}

  std::uint64_t open(std::string name, std::uint64_t parent,
                     std::uint64_t request, std::int64_t sim_now) {
    if (!enabled_) return 0;
    Span span;
    span.name = std::move(name);
    span.id = base_ + spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.host_start = host_ns();
    span.sim_start = sim_now;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void close(std::uint64_t id, std::int64_t sim_now) {
    if (id == 0) return;
    Span& span = spans_[id - base_ - 1];
    span.host_end = host_ns();
    span.sim_end = sim_now;
  }

  /// A span known only in simulated time.
  void add_sim(std::string name, std::uint64_t parent, std::uint64_t request,
               std::int64_t sim_start, std::int64_t sim_end) {
    if (!enabled_) return;
    Span span;
    span.name = std::move(name);
    span.id = base_ + spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.sim_start = sim_start;
    span.sim_end = sim_end;
    spans_.push_back(std::move(span));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t base_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// ProbeDisk: the benchmark's view of one tenant VM disk

std::uint64_t sector_hash(const std::uint8_t* p) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < block::kSectorSize; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, sizeof w);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  return h;
}

/// Exact nearest-rank percentile of `samples` (sorted in place).
std::int64_t percentile(std::vector<std::int64_t>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Decorator between a workload and its VM disk. It records simulated
/// latency by op type, host nanoseconds spent inside the wrapped
/// read/write calls, and attempted/failed counts while `measuring`.
/// Independently of that it keeps a shadow of every acknowledged write
/// and checks each read returns those bytes. A sector never written reads
/// as zeros on a transparent data path; behind a cipher box it reads as
/// the decryption of the blank backend, so there the first read of it is
/// learned and every later read must agree. A sector some overlapping
/// write touched while the read (or a racing write) was in flight has no
/// single right answer; it is skipped and counted instead of checked.
class ProbeDisk final : public block::BlockDevice {
 public:
  struct Stats {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    std::vector<std::int64_t> read_lat_ns;   // sim
    std::vector<std::int64_t> write_lat_ns;  // sim
    std::int64_t submit_host_ns = 0;         // host, inside inner calls
    std::int64_t last_completion = 0;        // sim
  };
  struct Shadow {
    std::uint64_t checked = 0;
    std::uint64_t learned = 0;
    std::uint64_t skipped = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t unmeasured_failures = 0;
  };

  ProbeDisk(sim::Executor executor, block::BlockDevice& inner,
            SpanLog& spans, bool blank_reads_zero)
      : exec_(executor), inner_(inner), spans_(spans),
        blank_reads_zero_(blank_reads_zero), sectors_(inner.num_sectors()) {
    const std::vector<std::uint8_t> zero(block::kSectorSize, 0);
    zero_hash_ = sector_hash(zero.data());
  }

  void set_measuring(bool on, std::uint64_t parent_span) {
    measuring_ = on;
    parent_span_ = parent_span;
  }
  const Stats& stats() const { return stats_; }
  const Shadow& shadow() const { return shadow_; }

  std::uint64_t num_sectors() const override { return inner_.num_sectors(); }

  void read(std::uint64_t lba, std::uint32_t count,
            ReadCallback done) override {
    const bool measured = measuring_;
    if (measured) ++stats_.attempted;
    const std::uint64_t tick = ++tick_;
    const std::int64_t issued = exec_.now();
    const std::uint64_t span =
        measured ? spans_.open("block.read", parent_span_, ++requests_, issued)
                 : 0;
    const std::int64_t t0 = host_ns();
    inner_.read(lba, count, [this, lba, count, tick, issued, measured, span,
                             done = std::move(done)](Status status,
                                                     Bytes data) {
      if (status.is_ok()) {
        check_read(lba, count, tick, data);
      } else {
        note_failure(measured);
      }
      if (measured) {
        if (status.is_ok()) {
          stats_.read_lat_ns.push_back(exec_.now() - issued);
          stats_.read_bytes += data.size();
        }
        stats_.last_completion = exec_.now();
        spans_.close(span, exec_.now());
      }
      done(status, std::move(data));
    });
    note_submit(measured, t0);
  }

  void write(std::uint64_t lba, Bytes data, WriteCallback done) override {
    const bool measured = measuring_;
    if (measured) ++stats_.attempted;
    const std::uint64_t tick = ++tick_;
    const std::uint32_t count =
        static_cast<std::uint32_t>(data.size() / block::kSectorSize);
    std::vector<std::uint64_t> hashes(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      hashes[i] = sector_hash(data.data() + i * block::kSectorSize);
    }
    if (lba + count <= sectors_.size()) {
      for (std::uint32_t i = 0; i < count; ++i) {
        SectorState& s = sectors_[lba + i];
        ++s.inflight;
        s.last_write_submit = tick;
      }
    }
    const std::uint64_t bytes = data.size();
    const std::int64_t issued = exec_.now();
    const std::uint64_t span =
        measured
            ? spans_.open("block.write", parent_span_, ++requests_, issued)
            : 0;
    const std::int64_t t0 = host_ns();
    inner_.write(lba, std::move(data),
                 [this, lba, tick, issued, measured, span, bytes,
                  hashes = std::move(hashes),
                  done = std::move(done)](Status status) {
                   settle_write(lba, tick, hashes, status.is_ok());
                   if (!status.is_ok()) note_failure(measured);
                   if (measured) {
                     if (status.is_ok()) {
                       stats_.write_lat_ns.push_back(exec_.now() - issued);
                       stats_.write_bytes += bytes;
                     }
                     stats_.last_completion = exec_.now();
                     spans_.close(span, exec_.now());
                   }
                   done(status);
                 });
    note_submit(measured, t0);
  }

 private:
  struct SectorState {
    std::uint64_t hash = 0;
    std::uint64_t last_write_submit = 0;
    std::uint64_t last_write_ack = 0;
    std::uint32_t inflight = 0;
    bool written = false;   // hash holds the content reads must return
    bool unknown = false;   // racing writes left no single right answer
  };

  void note_submit(bool measured, std::int64_t t0) {
    if (!measured) return;
    stats_.submit_host_ns += host_ns() - t0;
  }

  void note_failure(bool measured) {
    if (measured) {
      ++stats_.failed;
    } else {
      ++shadow_.unmeasured_failures;
    }
  }

  void settle_write(std::uint64_t lba, std::uint64_t tick,
                    const std::vector<std::uint64_t>& hashes, bool ok) {
    const std::uint64_t ack = ++tick_;
    if (lba + hashes.size() > sectors_.size()) return;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      SectorState& s = sectors_[lba + i];
      // Known only if this write had the sector to itself for its whole
      // lifetime: none in flight now, none submitted or acknowledged
      // since it was issued.
      const bool alone = s.inflight == 1 && s.last_write_submit == tick &&
                         s.last_write_ack < tick;
      if (ok && alone) {
        s.hash = hashes[i];
        s.written = true;
        s.unknown = false;
      } else {
        s.unknown = true;
      }
      --s.inflight;
      s.last_write_ack = ack;
    }
  }

  void check_read(std::uint64_t lba, std::uint32_t count, std::uint64_t tick,
                  const Bytes& data) {
    ++tick_;
    if (data.size() != static_cast<std::size_t>(count) * block::kSectorSize ||
        lba + count > sectors_.size()) {
      ++shadow_.mismatches;
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      SectorState& s = sectors_[lba + i];
      if (s.unknown || s.inflight > 0 || s.last_write_submit > tick ||
          s.last_write_ack > tick) {
        ++shadow_.skipped;
        continue;
      }
      const std::uint64_t got =
          sector_hash(data.data() + i * block::kSectorSize);
      if (!s.written && !blank_reads_zero_) {
        s.hash = got;
        s.written = true;
        ++shadow_.learned;
        continue;
      }
      ++shadow_.checked;
      if (got != (s.written ? s.hash : zero_hash_)) ++shadow_.mismatches;
    }
  }

  sim::Executor exec_;
  block::BlockDevice& inner_;
  SpanLog& spans_;
  bool blank_reads_zero_;
  std::vector<SectorState> sectors_;
  std::uint64_t zero_hash_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t requests_ = 0;
  bool measuring_ = false;
  std::uint64_t parent_span_ = 0;
  Stats stats_;
  Shadow shadow_;
};

// ---------------------------------------------------------------------------
// Workloads

enum class Chain {
  kLegacy,             // volume attached directly, no middle-box
  kStreamCipher,       // one active-relay stream_cipher box
  kMonitorEncryption,  // active-relay monitor, then active-relay encryption
  kQuorum,             // one active-relay replication box, quorum w=2 of 3
};

struct WorkloadSpec {
  const char* name;
  unsigned tenants;
  unsigned compute_hosts;
  unsigned storage_hosts;
  bool partitioned;  // host-per-partition layout on the windowed kernel
  Chain chain;
  std::uint64_t volume_sectors;
  // fio (closed loop: every job waits for its reply)
  unsigned jobs;  // per tenant
  std::uint32_t request_bytes;
  double write_ratio;
  sim::Duration fio_duration;
  // PostMark (one closed-loop client) instead of fio when set
  bool postmark;
  unsigned pm_files;
  unsigned pm_transactions;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"chain_small", 8, 4, 2, false, Chain::kStreamCipher, 64 * 1024, 2, 4096,
     0.5, sim::milliseconds(200), false, 0, 0},
    {"legacy_large", 8, 4, 2, false, Chain::kLegacy, 64 * 1024, 2, 256 * 1024,
     0.3, sim::milliseconds(400), false, 0, 0},
    {"postmark_monitor", 1, 4, 2, false, Chain::kMonitorEncryption,
     256 * 1024, 0, 0, 0, 0, true, 100, 1000},
    {"quorum_parallel", 4, 4, 3, true, Chain::kQuorum, 64 * 1024, 2,
     16 * 1024, 0.7, sim::milliseconds(250), false, 0, 0},
};

/// Every fio job starts at a seeded offset within this window, as
/// independent guests do. Jobs started in lockstep against the model's
/// fixed service times would all see one identical latency.
constexpr sim::Duration kFioStartWindow = sim::milliseconds(1);

/// Guest page-cache writeback delay for the PostMark filesystem: writes
/// leave in flushed batches that overlap later reads (paper Table I).
constexpr sim::Duration kWritebackDelay = sim::milliseconds(1);

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0x9E3779B97F4A7C15ull));
  rng.next_u64();
  return rng.next_u64();
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

struct Tenant {
  std::string vm_name;
  std::string volume;
  std::vector<std::string> replica_volumes;
  cloud::Vm* vm = nullptr;
  core::DeploymentHandle deployment;
  std::unique_ptr<SpanLog> io_spans;
  std::unique_ptr<ProbeDisk> probe;
};

struct Rusage {
  double user_s = 0;
  double sys_s = 0;
  long max_rss_kb = 0;
};

Rusage read_rusage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  r.max_rss_kb = ru.ru_maxrss;
  return r;
}

/// Minimal JSON object writer for the result line.
class JsonOut {
 public:
  JsonOut& key(const std::string& k) {
    out_ += first_ ? "" : ", ";
    first_ = false;
    out_ += "\"" + k + "\": ";
    return *this;
  }
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    key(k).out_ += buf;
  }
  void integer(const std::string& k, std::int64_t v) {
    key(k).out_ += std::to_string(v);
  }
  void str(const std::string& k, const std::string& v) {
    key(k).out_ += "\"" + escape(v) + "\"";
  }
  void boolean(const std::string& k, bool v) {
    key(k).out_ += v ? "true" : "false";
  }
  void begin(const std::string& k) {
    key(k).out_ += "{";
    first_ = true;
  }
  void end() {
    out_ += "}";
    first_ = false;
  }
  void raw(const std::string& k, const std::string& json) {
    key(k).out_ += json;
  }
  std::string done() const { return "{" + out_ + "}"; }

  static std::string escape(const std::string& s) {
    std::string r;
    for (char c : s) {
      if (c == '"' || c == '\\') r += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        r += ' ';
        continue;
      }
      r += c;
    }
    return r;
  }

 private:
  std::string out_;
  bool first_ = true;
};

void write_samples(std::ofstream& out, const char* name,
                   const std::vector<std::int64_t>& samples) {
  out << "\"" << name << "\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << (i ? "," : "") << samples[i];
  }
  out << "]";
}

void write_spans(const std::string& path, const std::vector<const Span*>& all) {
  std::ofstream out(path);
  out << "{\"clocks\": {\"host\": \"CLOCK_MONOTONIC ns\", \"sim\": "
         "\"simulated ns\"},\n \"spans\": [";
  bool first = true;
  for (const Span* s : all) {
    out << (first ? "\n  " : ",\n  ");
    first = false;
    out << "{\"name\": \"" << s->name << "\", \"id\": " << s->id
        << ", \"parent\": " << s->parent << ", \"request\": " << s->request
        << ", \"host_start\": " << s->host_start
        << ", \"host_end\": " << s->host_end
        << ", \"sim_start\": " << s->sim_start
        << ", \"sim_end\": " << s->sim_end << "}";
  }
  out << "\n]}\n";
}

class Bench {
 public:
  Bench(const WorkloadSpec& spec, std::uint64_t seed, bool trace,
        std::string out_dir)
      : spec_(spec), seed_(seed), trace_(trace), out_dir_(std::move(out_dir)),
        spans_(trace, 0) {}

  int run() {
    build();
    attach();
    wrap_disks();
    if (spec_.postmark) prepare_filesystem();
    if (!errors_.empty()) return finish();
    measure();
    if (spec_.postmark) walk_filesystem();
    return finish();
  }

 private:
  // --- set-up -------------------------------------------------------------

  cloud::CloudConfig cloud_config() const {
    // The paper testbed's 1 GbE fabric and 2-vCPU tenant and middle-box
    // VMs (§V), over NVMe-class volumes: with a 20 us backend the spliced
    // data path, not the disk, sets the latency a tenant sees.
    cloud::CloudConfig config;
    config.compute_hosts = spec_.compute_hosts;
    config.storage_hosts = spec_.storage_hosts;
    config.link_delay = sim::microseconds(15);
    config.disk_profile.base_latency = sim::microseconds(20);
    config.disk_profile.bytes_per_second = 800ull * 1024 * 1024;
    config.disk_profile.queue_depth = 64;
    return config;
  }

  void build() {
    const std::int64_t t0 = host_ns();
    const std::uint64_t span = spans_.open("cloud.build", 0, 0, 0);
    const cloud::CloudConfig config = cloud_config();
    sim::ParallelConfig pc;
    if (spec_.partitioned) {
      // One partition per host, windows run by a single worker: on a
      // shared 4-vCPU VM, 2 and 4 spinning workers made the host I/O rate
      // swing 20% and 40% between identical repetitions (1 worker: 10%).
      // Telemetry is identical at any worker count.
      pc = cloud::Cloud::parallel_config(config, 1);
    }
    sim_ = std::make_unique<sim::Simulator>(pc);
    cloud_ = std::make_unique<cloud::Cloud>(*sim_, config);
    platform_ = std::make_unique<core::StormPlatform>(*cloud_);
    services::register_builtin_services(*platform_);
    tenants_.resize(spec_.tenants);
    for (unsigned t = 0; t < spec_.tenants; ++t) {
      Tenant& tenant = tenants_[t];
      tenant.vm_name = "vm" + std::to_string(t);
      tenant.volume = "vol" + std::to_string(t);
      std::uint64_t s = spans_.open("cloud.create_vm", span, t, now());
      tenant.vm = &cloud_->create_vm(tenant.vm_name, "tenant" + std::to_string(t),
                                     t % spec_.compute_hosts, 2);
      spans_.close(s, now());
      const unsigned home = t % spec_.storage_hosts;
      create_volume(tenant.volume, home, span, t);
      if (spec_.chain == Chain::kQuorum) {
        // Three copies on distinct storage hosts.
        for (unsigned r = 1; r <= 2; ++r) {
          tenant.replica_volumes.push_back(tenant.volume + "-r" +
                                           std::to_string(r));
          create_volume(tenant.replica_volumes.back(),
                        (home + r) % spec_.storage_hosts, span, t);
        }
      }
    }
    spans_.close(span, now());
    build_s_ = host_seconds_since(t0);
  }

  void create_volume(const std::string& name, unsigned storage_host,
                     std::uint64_t parent, unsigned tenant) {
    std::uint64_t s = spans_.open("cloud.create_volume", parent, tenant, now());
    auto volume =
        cloud_->create_volume(name, spec_.volume_sectors, storage_host);
    spans_.close(s, now());
    if (!volume.is_ok()) {
      errors_.push_back("create_volume " + name + ": " +
                        volume.status().to_string());
    }
  }

  std::vector<core::ServiceSpec> chain_for(const Tenant& tenant) const {
    core::ServiceSpec box;
    box.relay = core::RelayMode::kActive;
    switch (spec_.chain) {
      case Chain::kLegacy:
        return {};
      case Chain::kStreamCipher:
        box.type = "stream_cipher";
        return {box};
      case Chain::kMonitorEncryption: {
        core::ServiceSpec monitor = box;
        monitor.type = "monitor";
        box.type = "encryption";
        return {monitor, box};
      }
      case Chain::kQuorum: {
        box.type = "replication";
        std::string replicas;
        for (const std::string& v : tenant.replica_volumes) {
          replicas += (replicas.empty() ? "" : ",") + v;
        }
        box.params["replicas"] = replicas;
        box.quorum.enabled = true;
        box.quorum.write_quorum = 2;
        return {box};
      }
    }
    return {};
  }

  void attach() {
    const std::int64_t t0 = host_ns();
    const std::int64_t sim0 = now();
    const std::uint64_t span = spans_.open("core.attach", 0, 0, sim0);
    unsigned pending = spec_.tenants;
    for (unsigned t = 0; t < spec_.tenants; ++t) {
      Tenant& tenant = tenants_[t];
      const std::uint64_t s =
          spans_.open(spec_.chain == Chain::kLegacy
                          ? "cloud.attach_volume"
                          : "core.attach_with_chain",
                      span, t, now());
      auto fail = [this, &tenant](const std::string& what) {
        errors_.push_back("attach " + tenant.volume + ": " + what);
      };
      if (spec_.chain == Chain::kLegacy) {
        cloud_->attach_volume(*tenant.vm, tenant.volume,
                              [this, s, &pending, fail](Status status,
                                                        cloud::Attachment) {
                                if (!status.is_ok()) fail(status.to_string());
                                spans_.close(s, now());
                                --pending;
                              });
      } else {
        platform_->attach_with_chain(
            tenant.vm_name, tenant.volume, chain_for(tenant),
            [this, s, &pending, &tenant,
             fail](Result<core::DeploymentHandle> r) {
              if (r.is_ok()) {
                tenant.deployment = r.value();
              } else {
                fail(r.status().to_string());
              }
              spans_.close(s, now());
              --pending;
            });
      }
    }
    run_sim("sim.run", span);
    if (pending != 0) errors_.push_back("attach did not complete");
    spans_.close(span, now());
    attach_s_ = host_seconds_since(t0);
    attach_sim_ns_ = now() - sim0;
  }

  void wrap_disks() {
    for (unsigned t = 0; t < spec_.tenants; ++t) {
      Tenant& tenant = tenants_[t];
      block::BlockDevice* disk = tenant.vm->disk();
      if (disk == nullptr) {
        errors_.push_back("no disk on " + tenant.vm_name);
        continue;
      }
      tenant.io_spans = std::make_unique<SpanLog>(
          trace_, (static_cast<std::uint64_t>(t) + 1) << 40);
      const bool cipher = spec_.chain == Chain::kStreamCipher ||
                          spec_.chain == Chain::kMonitorEncryption;
      tenant.probe = std::make_unique<ProbeDisk>(
          tenant.vm->node().executor(), *disk, *tenant.io_spans, !cipher);
    }
  }

  void prepare_filesystem() {
    Tenant& tenant = tenants_[0];
    if (!tenant.probe) return;
    // mkfs builds the image with direct store access; the non-zero blocks
    // are then written through the tenant's data path, so every box of
    // the chain sees the format (the monitor arms on the superblock).
    std::int64_t t0 = host_ns();
    std::uint64_t span = spans_.open("fs.mkfs", 0, 0, now());
    block::MemDisk image(spec_.volume_sectors);
    Status made = fs::SimExt::mkfs(image);
    if (!made.is_ok()) errors_.push_back("mkfs: " + made.to_string());
    const Bytes zero(fs::kBlockSize, 0);
    unsigned pending = 0;
    for (std::uint64_t block = 0;
         block < spec_.volume_sectors / fs::kSectorsPerBlock; ++block) {
      Bytes content =
          image.read_sync(block * fs::kSectorsPerBlock, fs::kSectorsPerBlock);
      if (content == zero) continue;
      ++pending;
      tenant.probe->write(block * fs::kSectorsPerBlock, std::move(content),
                          [this, &pending](Status s) {
                            if (!s.is_ok()) {
                              errors_.push_back("format write: " +
                                                s.to_string());
                            }
                            --pending;
                          });
      run_sim("sim.run", span);
    }
    if (pending != 0) errors_.push_back("format did not complete");
    spans_.close(span, now());
    format_s_ = host_seconds_since(t0);

    t0 = host_ns();
    span = spans_.open("fs.mount", 0, 0, now());
    fs::SimExtOptions options;
    options.writeback_delay = kWritebackDelay;
    fs_ = std::make_unique<fs::SimExt>(tenant.vm->node().executor(),
                                       *tenant.probe, options);
    bool mounted = false;
    fs_->mount([this, &mounted](Status s) {
      if (!s.is_ok()) errors_.push_back("mount: " + s.to_string());
      mounted = true;
    });
    run_sim("sim.run", span);
    if (!mounted) errors_.push_back("mount did not complete");
    spans_.close(span, now());
    mount_s_ = host_seconds_since(t0);
  }

  // --- measured phase -----------------------------------------------------

  void measure() {
    if (trace_) {
      // Counter baseline for the traced run's measured-phase deltas.
      std::ofstream out(out_dir_ + "/telemetry_start.json");
      out << sim_->telemetry_json() << "\n";
    }
    const Rusage ru0 = read_rusage();
    const std::int64_t sim0 = now();
    first_io_ns_ = host_ns();
    const std::uint64_t span = spans_.open(
        spec_.postmark ? "workload.postmark" : "workload.fio", 0, 0, sim0);
    for (Tenant& tenant : tenants_) tenant.probe->set_measuring(true, span);

    std::int64_t sim_end = sim0;
    std::vector<std::unique_ptr<workload::FioRunner>> fio;
    std::unique_ptr<workload::PostmarkRunner> postmark;
    unsigned running = 0;
    if (spec_.postmark) {
      workload::PostmarkConfig config;
      config.directories = 10;
      config.initial_files = spec_.pm_files;
      config.transactions = spec_.pm_transactions;
      config.seed = mix_seed(seed_, 0xF5);
      Tenant& tenant = tenants_[0];
      sim::Executor exec = tenant.vm->node().executor();
      postmark =
          std::make_unique<workload::PostmarkRunner>(exec, *fs_, config);
      postmark->set_latency_sink([this, exec, span](sim::Duration latency) {
        txn_lat_ns_.push_back(latency);
        spans_.add_sim("postmark.txn", span, txn_lat_ns_.size(),
                       exec.now() - latency, exec.now());
      });
      running = 1;
      postmark->run([this, &running, &sim_end,
                     exec](workload::PostmarkResult r) {
        pm_errors_ = r.errors;
        txn_sim_s_ = r.elapsed_s;
        sim_end = std::max<std::int64_t>(sim_end, exec.now());
        --running;
      });
    } else {
      Rng phase(mix_seed(seed_, 0xA11));
      for (unsigned t = 0; t < spec_.tenants; ++t) {
        Tenant& tenant = tenants_[t];
        sim::Executor exec = tenant.vm->node().executor();
        for (unsigned job = 0; job < spec_.jobs; ++job) {
          workload::FioConfig config;
          config.request_bytes = spec_.request_bytes;
          config.jobs = 1;
          config.write_ratio = spec_.write_ratio;
          config.duration = spec_.fio_duration;
          config.seed = mix_seed(seed_, t * 64 + job + 1);
          fio.push_back(std::make_unique<workload::FioRunner>(
              exec, *tenant.probe, config));
          // Each callback runs on its tenant's partition, so every runner
          // reports into its own slot.
          const std::size_t slot = fio_end_.size();
          fio_end_.push_back(0);
          workload::FioRunner* runner = fio.back().get();
          const auto offset = static_cast<sim::Duration>(
              phase.below(static_cast<std::uint64_t>(kFioStartWindow)));
          exec.schedule_in(offset, [this, runner, slot, exec] {
            runner->start([this, slot, exec](workload::FioResult) {
              fio_end_[slot] = exec.now();
            });
          });
        }
      }
    }
    measured_events_ = run_sim("sim.run", span);
    for (std::int64_t end : fio_end_) {
      if (end == 0) {
        errors_.push_back("fio did not complete");
      }
      sim_end = std::max(sim_end, end);
    }
    if (spec_.postmark && running != 0) {
      errors_.push_back("postmark did not complete");
    }
    // Deferred writeback can complete after the workload reports done.
    for (const Tenant& tenant : tenants_) {
      sim_end = std::max(sim_end, tenant.probe->stats().last_completion);
    }
    measured_host_s_ = host_seconds_since(first_io_ns_);
    const Rusage ru1 = read_rusage();
    user_cpu_s_ = ru1.user_s - ru0.user_s;
    sys_cpu_s_ = ru1.sys_s - ru0.sys_s;
    measured_sim_ns_ = sim_end - sim0;
    spans_.close(span, now());
    for (Tenant& tenant : tenants_) tenant.probe->set_measuring(false, 0);
  }

  void walk_filesystem() {
    // Count regular files with a recursive readdir from the root; the
    // monitor's reconstructed view must track exactly these.
    const std::uint64_t span = spans_.open("fs.readdir_walk", 0, 0, now());
    std::vector<std::string> dirs{"/"};
    while (!dirs.empty()) {
      const std::string dir = dirs.back();
      dirs.pop_back();
      fs_->readdir(dir, [&](Status s, std::vector<fs::DirEntry> entries) {
        if (!s.is_ok()) {
          errors_.push_back("readdir " + dir + ": " + s.to_string());
          return;
        }
        for (const fs::DirEntry& e : entries) {
          if (e.name == "." || e.name == "..") continue;
          const std::string path = (dir == "/" ? "/" : dir + "/") + e.name;
          if (e.type == fs::InodeType::kDirectory) {
            dirs.push_back(path);
          } else if (e.type == fs::InodeType::kFile) {
            ++walked_files_;
          }
        }
      });
      run_sim("sim.run", span);
    }
    spans_.close(span, now());
    auto* monitor = dynamic_cast<services::MonitorService*>(
        tenants_[0].deployment.service(0));
    if (monitor == nullptr) {
      errors_.push_back("monitor service missing");
      return;
    }
    tracked_files_ = monitor->reconstructor().tracked_files();
  }

  // --- results --------------------------------------------------------------

  std::size_t run_sim(const char* name, std::uint64_t parent) {
    const std::uint64_t s = spans_.open(name, parent, 0, now());
    const std::size_t events = sim_->run();
    spans_.close(s, now());
    return events;
  }

  std::int64_t now() const { return sim_ ? sim_->now() : 0; }

  /// p99 of one histogram merged over every relay of every deployment.
  double relay_histogram_p99(const std::string& suffix) {
    obs::Histogram merged;
    for (Tenant& tenant : tenants_) {
      for (std::size_t pos = 0; pos < tenant.deployment.chain_length();
           ++pos) {
        cloud::Vm* vm = tenant.deployment.mb_vm(pos);
        if (vm == nullptr) continue;
        merged.merge(vm->node().executor().telemetry().histogram(
            "relay." + vm->name() + "." + suffix));
      }
    }
    return merged.count() == 0 ? 0.0 : merged.percentile(99);
  }

  int finish() {
    const std::string telemetry = sim_->telemetry_json();
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(telemetry)));
    {
      std::ofstream out(out_dir_ + "/telemetry.json");
      out << (trace_ ? sim_->telemetry_json(true) : telemetry) << "\n";
    }
    if (trace_) {
      std::vector<const Span*> all;
      for (const Span& s : spans_.spans()) all.push_back(&s);
      for (const Tenant& tenant : tenants_) {
        if (!tenant.io_spans) continue;
        for (const Span& s : tenant.io_spans->spans()) all.push_back(&s);
      }
      write_spans(out_dir_ + "/spans.json", all);
    }

    ProbeDisk::Stats io;
    ProbeDisk::Shadow shadow;
    std::ofstream samples(out_dir_ + "/samples.json");
    samples << "{";
    for (Tenant& tenant : tenants_) {
      if (!tenant.probe) continue;
      const ProbeDisk::Stats& s = tenant.probe->stats();
      io.attempted += s.attempted;
      io.failed += s.failed;
      io.read_bytes += s.read_bytes;
      io.write_bytes += s.write_bytes;
      io.submit_host_ns += s.submit_host_ns;
      // Per-I/O simulated latencies in tenant order, for run.py to pool
      // over several processes.
      io.read_lat_ns.insert(io.read_lat_ns.end(), s.read_lat_ns.begin(),
                            s.read_lat_ns.end());
      io.write_lat_ns.insert(io.write_lat_ns.end(), s.write_lat_ns.begin(),
                             s.write_lat_ns.end());
      const ProbeDisk::Shadow& sh = tenant.probe->shadow();
      shadow.checked += sh.checked;
      shadow.learned += sh.learned;
      shadow.skipped += sh.skipped;
      shadow.mismatches += sh.mismatches;
      shadow.unmeasured_failures += sh.unmeasured_failures;
    }
    write_samples(samples, "read_ns", io.read_lat_ns);
    samples << ", ";
    write_samples(samples, "write_ns", io.write_lat_ns);
    samples << ", ";
    write_samples(samples, "txn_ns", txn_lat_ns_);
    samples << "}\n";
    samples.close();
    const std::uint64_t completed =
        io.read_lat_ns.size() + io.write_lat_ns.size();
    std::vector<std::int64_t> all_lat_ns = io.read_lat_ns;
    all_lat_ns.insert(all_lat_ns.end(), io.write_lat_ns.begin(),
                      io.write_lat_ns.end());

    if (io.failed != 0) {
      errors_.push_back(std::to_string(io.failed) + " failed block I/Os");
    }
    if (shadow.unmeasured_failures != 0) {
      errors_.push_back(std::to_string(shadow.unmeasured_failures) +
                        " failed set-up block I/Os");
    }
    if (shadow.mismatches != 0) {
      errors_.push_back(std::to_string(shadow.mismatches) +
                        " read sectors differ from the shadow");
    }
    if (completed == 0) errors_.push_back("no block I/O completed");
    if (sim_->lookahead_violations() != 0) {
      errors_.push_back("sim.lookahead_violations = " +
                        std::to_string(sim_->lookahead_violations()));
    }
    if (spec_.postmark) {
      if (pm_errors_ != 0) {
        errors_.push_back(std::to_string(pm_errors_) + " PostMark errors");
      }
      if (txn_lat_ns_.empty()) errors_.push_back("no PostMark transaction");
      if (tracked_files_ != walked_files_ || walked_files_ == 0) {
        errors_.push_back("monitor tracks " + std::to_string(tracked_files_) +
                          " files, readdir finds " +
                          std::to_string(walked_files_));
      }
    }

    const Rusage ru = read_rusage();
    JsonOut j;
    j.str("workload", spec_.name);
    j.integer("seed", static_cast<std::int64_t>(seed_));
    j.boolean("trace", trace_);
    j.boolean("correct", errors_.empty());
    std::string errs = "[";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      errs += (i ? ", \"" : "\"") + JsonOut::escape(errors_[i]) + "\"";
    }
    j.raw("errors", errs + "]");
    j.str("fingerprint", fingerprint);

    j.begin("host");
    j.integer("first_io_monotonic_ns", first_io_ns_);
    j.num("build_s", build_s_);
    j.num("attach_s", attach_s_);
    j.num("format_s", format_s_);
    j.num("mount_s", mount_s_);
    j.num("measured_s", measured_host_s_);
    j.num("user_cpu_s", user_cpu_s_);
    j.num("sys_cpu_s", sys_cpu_s_);
    j.integer("peak_rss_kb", ru.max_rss_kb);
    j.integer("submit_ns_total", io.submit_host_ns);
    j.end();

    j.begin("sim");
    j.integer("attach_ns", attach_sim_ns_);
    j.integer("measured_ns", measured_sim_ns_);
    j.integer("events", static_cast<std::int64_t>(measured_events_));
    j.integer("partitions", sim_->partition_count());
    j.integer("threads", sim_->threads());
    j.integer("mailbox_posts", static_cast<std::int64_t>(sim_->mailbox_posts()));
    j.integer("mailbox_batches",
              static_cast<std::int64_t>(sim_->mailbox_batches()));
    j.integer("lookahead_violations",
              static_cast<std::int64_t>(sim_->lookahead_violations()));
    j.end();

    j.begin("io");
    j.integer("attempted", static_cast<std::int64_t>(io.attempted));
    j.integer("failed", static_cast<std::int64_t>(io.failed));
    j.integer("completed", static_cast<std::int64_t>(completed));
    j.integer("read_bytes", static_cast<std::int64_t>(io.read_bytes));
    j.integer("write_bytes", static_cast<std::int64_t>(io.write_bytes));
    j.integer("reads", static_cast<std::int64_t>(io.read_lat_ns.size()));
    j.integer("writes", static_cast<std::int64_t>(io.write_lat_ns.size()));
    j.integer("read_p50_ns", percentile(io.read_lat_ns, 50));
    j.integer("read_p99_ns", percentile(io.read_lat_ns, 99));
    j.integer("write_p50_ns", percentile(io.write_lat_ns, 50));
    j.integer("write_p99_ns", percentile(io.write_lat_ns, 99));
    j.integer("all_p99_ns", percentile(all_lat_ns, 99));
    j.end();

    j.begin("shadow");
    j.integer("checked_sectors", static_cast<std::int64_t>(shadow.checked));
    j.integer("learned_sectors", static_cast<std::int64_t>(shadow.learned));
    j.integer("skipped_sectors", static_cast<std::int64_t>(shadow.skipped));
    j.integer("mismatches", static_cast<std::int64_t>(shadow.mismatches));
    j.end();

    j.begin("txn");
    j.integer("count", static_cast<std::int64_t>(txn_lat_ns_.size()));
    j.num("sim_s", txn_sim_s_);
    j.integer("p50_ns", percentile(txn_lat_ns_, 50));
    j.integer("p99_ns", percentile(txn_lat_ns_, 99));
    j.integer("errors", static_cast<std::int64_t>(pm_errors_));
    j.end();

    j.begin("monitor");
    j.integer("tracked_files", static_cast<std::int64_t>(tracked_files_));
    j.integer("readdir_files", static_cast<std::int64_t>(walked_files_));
    j.end();

    // Relay histograms live in per-relay scopes; merge them here (after
    // the telemetry dump, so the lookups cannot change the fingerprint).
    j.begin("relay");
    j.num("journal_commit_p99_ns",
          relay_histogram_p99("journal.commit_latency_ns"));
    j.num("quorum_p99_ns",
          relay_histogram_p99("replication.quorum_latency_ns"));
    std::uint64_t primary = 0;
    std::uint64_t replicas = 0;
    for (Tenant& tenant : tenants_) {
      auto* rep = dynamic_cast<services::ReplicationService*>(
          tenant.deployment.service(0));
      if (rep == nullptr) continue;
      primary += rep->reads_from_primary();
      replicas += rep->reads_from_replicas();
    }
    j.integer("reads_from_primary", static_cast<std::int64_t>(primary));
    j.integer("reads_from_replicas", static_cast<std::int64_t>(replicas));
    j.end();

    std::printf("%s\n", j.done().c_str());
    std::fflush(stdout);
    return errors_.empty() ? 0 : 1;
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  bool trace_;
  std::string out_dir_;
  SpanLog spans_;

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<cloud::Cloud> cloud_;
  std::unique_ptr<core::StormPlatform> platform_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<fs::SimExt> fs_;

  std::vector<std::string> errors_;
  double build_s_ = 0;
  double attach_s_ = 0;
  double format_s_ = 0;
  double mount_s_ = 0;
  double measured_host_s_ = 0;
  double user_cpu_s_ = 0;
  double sys_cpu_s_ = 0;
  std::int64_t first_io_ns_ = 0;
  std::int64_t attach_sim_ns_ = 0;
  std::int64_t measured_sim_ns_ = 0;
  std::size_t measured_events_ = 0;
  std::vector<std::int64_t> fio_end_;
  std::vector<std::int64_t> txn_lat_ns_;
  double txn_sim_s_ = 0;
  std::uint64_t pm_errors_ = 0;
  std::uint64_t tracked_files_ = 0;
  std::uint64_t walked_files_ = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: storm_bench --workload NAME --seed N --out DIR "
               "[--trace]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && arg == "--out") {
      out_dir = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = std::stoull(argv[++i]);
      have_seed = true;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || !have_seed || out_dir.empty()) return usage();
  try {
    Bench bench(*spec, seed, trace, out_dir);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "storm_bench: %s\n", e.what());
    return 1;
  }
}
