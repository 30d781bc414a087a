// Trace spans over simulated time.
//
// A Span covers one logical operation (a SCSI command, a deployment
// attach); hop events stamped onto it record each layer crossing with
// sim-time and a free-form value (queue depth, byte count). Spans link
// parent -> child, so one command traced VM -> gateway -> middle-boxes
// -> target carries per-relay child spans under the command's root span.
//
// Cross-layer correlation: every PDU-aware layer names a SCSI command by
// its CommandKey — the id of the volume IQN its session logged in with,
// plus the initiator task tag. Each layer already holds the IQN, so no
// in-band plumbing is needed. The initiator begins and ends the command,
// the target stamps events on it, and each relay enters and leaves it as
// a hop. Span ids are sequential and times are sim-clock, so identically
// seeded runs produce identical traces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace storm::obs {

using SpanId = std::uint64_t;

struct SpanEvent {
  std::string label;
  sim::Time at = 0;
  std::uint64_t value = 0;  // layer-defined: queue depth, bytes, ...
};

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  sim::Time start = 0;
  sim::Time end = 0;
  bool ended = false;
  std::vector<SpanEvent> events;
};

/// One SCSI command, as every hop of its path can name it.
struct CommandKey {
  std::uint64_t session = 0;  // session_id() of the session's volume IQN
  std::uint32_t tag = 0;      // initiator task tag
  bool operator==(const CommandKey&) const = default;
};

/// The session half of a CommandKey. Compute it once per session.
std::uint64_t session_id(std::string_view iqn);

/// The trace labels of one middle-box hop, built once per relay.
struct Hop {
  explicit Hop(const std::string& vm);
  std::string span;       // child span "relay.<vm>"
  std::string cmd_event;  // root event "mb.<vm>.cmd"
  std::string rsp_event;  // root event "mb.<vm>.rsp"
  std::uint64_t id;       // tells this hop's open child from another's
};

class Tracer {
 public:
  /// Spans beyond this many become id-only (events/end are dropped);
  /// bounds memory on long benchmark runs while keeping early commands
  /// fully traced for sampling.
  explicit Tracer(std::size_t max_retained = 8192)
      : max_retained_(max_retained) {}

  SpanId begin_span(std::string name, sim::Time now, SpanId parent = 0);
  void add_event(SpanId id, std::string label, sim::Time now,
                 std::uint64_t value = 0);
  void end_span(SpanId id, sim::Time now);

  // --- commands: at most one live root span per key ---
  /// Initiator: open the root span `name` with an "issue" event of
  /// `bytes` and bind `key` to it, replacing any earlier binding.
  SpanId begin_command(CommandKey key, std::string name, std::uint64_t bytes,
                       sim::Time now);
  /// Initiator: stamp `outcome`, end `root` and unbind `key` if it still
  /// names `root`.
  void end_command(CommandKey key, SpanId root, const char* outcome,
                   sim::Time now);
  /// Target: stamp an event on the bound root span, if any.
  void command_event(CommandKey key, const char* label, sim::Time now,
                     std::uint64_t value);
  /// Relay: entering stamps hop.cmd_event and opens the hop.span child;
  /// leaving stamps hop.rsp_event and ends that child. Both do nothing
  /// while `key` is unbound.
  void enter_hop(CommandKey key, const Hop& hop, sim::Time now,
                 std::uint64_t value);
  void leave_hop(CommandKey key, const Hop& hop, sim::Time now,
                 std::uint64_t value);

  const Span* span(SpanId id) const;
  std::vector<const Span*> spans_named(const std::string& name) const;
  std::vector<const Span*> children_of(SpanId parent) const;
  const std::vector<Span>& spans() const { return spans_; }

  std::uint64_t spans_started() const { return next_id_ - 1; }
  std::uint64_t spans_dropped() const { return dropped_; }

 private:
  struct OpenHop {
    std::uint64_t hop = 0;  // Hop::id
    SpanId child = 0;
  };
  struct Command {
    SpanId root = 0;
    std::vector<OpenHop> hops;
  };
  struct KeyHash {
    std::size_t operator()(const CommandKey& key) const {
      return key.session ^ (key.tag * 0x9E3779B97F4A7C15ull);
    }
  };

  Span* find(SpanId id);
  Command* find(CommandKey key);

  std::size_t max_retained_;
  SpanId next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;  // retained ids are exactly 1..spans_.size()
  std::unordered_map<CommandKey, Command, KeyHash> commands_;
};

}  // namespace storm::obs
