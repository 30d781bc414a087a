// The per-simulation telemetry hub. One Registry hangs off each
// sim::Simulator (see Simulator::telemetry()), so every component of a
// simulated cluster — links, TCP stacks, NAT engines, relays, services,
// the platform — reports into the same deterministic store. All
// timestamps are sim-clock: two identically seeded runs produce
// byte-identical to_json() output.
//
// Metric objects have stable addresses for the Registry's lifetime;
// hot-path components look them up once by name and keep the pointer.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::obs {

class Registry;

/// A named slice of a Registry: metric names are prefixed with the
/// scope's prefix ("relay.mb-1-encryption." + "pdus"). Copyable handle;
/// a default-constructed Scope discards everything (null object), so
/// components can hold one unconditionally.
class Scope {
 public:
  Scope() = default;
  Scope(Registry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {}

  Counter& counter(const std::string& name) const;
  Gauge& gauge(const std::string& name) const;
  Histogram& histogram(const std::string& name) const;

  Registry* registry() const { return registry_; }
  const std::string& prefix() const { return prefix_; }

 private:
  Registry* registry_ = nullptr;
  std::string prefix_;
};

class Registry {
 public:
  /// Bound to one partition's executor: timestamps come from that
  /// partition's clock, and hot-path metric updates stay confined to the
  /// partition's worker thread. A Simulator& converts implicitly
  /// (partition 0), preserving the historical one-registry-per-sim use.
  explicit Registry(sim::Executor executor);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Scope scope(std::string prefix) { return Scope(*this, std::move(prefix)); }

  // --- tracing (see trace.hpp) ---
  SpanId begin_span(std::string name, SpanId parent = 0);
  void add_event(SpanId id, std::string label, std::uint64_t value = 0);
  void end_span(SpanId id);
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // --- flight recorder ---
  FlightRecorder& recorder() { return recorder_; }
  /// Stamp `what` with the current sim-time into the flight recorder.
  void record_event(std::string what);

  sim::Time now() const;
  sim::Simulator& simulator() { return exec_.simulator(); }
  sim::Executor executor() const { return exec_; }

  /// Machine-readable dump: counters, gauges, histogram summaries, the
  /// flight-recorder tail, and (optionally) every retained span. Keys
  /// are emitted in name order, values in sim-time units — deterministic
  /// for identically seeded runs. This registry's merged_json(); the
  /// "net.bytes_copied" counter is the process-wide buffer-copy tally
  /// since this Registry was constructed, so concurrent simulations in
  /// one process don't bleed into each other.
  std::string to_json(bool include_spans = false) const;

  /// Deterministic multi-registry export: merge `registries` **in the
  /// given (partition-id) order** into one dump. Counters and gauges
  /// sum, histograms merge bucket-wise,
  /// flight-recorder entries interleave by (sim-time, registry order),
  /// and spans concatenate with ids offset per registry so they stay
  /// unique. `copied_bytes` replaces the net.bytes_copied counter (the
  /// process-wide copy tally cannot be attributed per partition).
  /// Because the merge order is positional — never wall clock — two
  /// identically seeded runs produce byte-identical output at any
  /// thread count.
  static std::string merged_json(
      const std::vector<const Registry*>& registries, sim::Time now,
      std::uint64_t copied_bytes, bool include_spans = false);

 private:
  sim::Executor exec_;
  std::uint64_t copy_baseline_ = 0;  // bufstats at construction
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  Tracer tracer_;
  FlightRecorder recorder_;
};

/// Hot-path handle to one named metric: resolved in a Scope (or Registry)
/// on first use and cached — metric addresses are stable for the
/// Registry's lifetime — so each update costs a branch instead of a name
/// build plus map lookup. A handle that is never used creates nothing, so
/// an owner that swaps per-call lookups for handles exports the same key
/// set and byte-identical telemetry. The owner must always pass the same
/// Scope/Registry (or reset() the handle when it re-binds).
template <typename Metric>
class MetricHandle {
 public:
  explicit MetricHandle(const char* name) : name_(name) {}

  /// `source` is a Scope or a Registry.
  template <typename Source>
  Metric& in(Source&& source) {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<Metric, Counter>) {
        metric_ = &source.counter(name_);
      } else if constexpr (std::is_same_v<Metric, Gauge>) {
        metric_ = &source.gauge(name_);
      } else {
        metric_ = &source.histogram(name_);
      }
    }
    return *metric_;
  }
  void reset() { metric_ = nullptr; }

 private:
  const char* name_;
  Metric* metric_ = nullptr;
};

using CounterHandle = MetricHandle<Counter>;
using GaugeHandle = MetricHandle<Gauge>;
using HistogramHandle = MetricHandle<Histogram>;

}  // namespace storm::obs
