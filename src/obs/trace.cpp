#include "obs/trace.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace storm::obs {

std::uint64_t session_id(std::string_view iqn) { return fnv1a(iqn); }

Hop::Hop(const std::string& vm)
    : span("relay." + vm), cmd_event("mb." + vm + ".cmd"),
      rsp_event("mb." + vm + ".rsp"), id(fnv1a(vm)) {}

SpanId Tracer::begin_span(std::string name, sim::Time now, SpanId parent) {
  SpanId id = next_id_++;
  if (spans_.size() >= max_retained_) {
    ++dropped_;
    return id;
  }
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.start = now;
  spans_.push_back(std::move(span));
  return id;
}

Span* Tracer::find(SpanId id) { return const_cast<Span*>(span(id)); }

Tracer::Command* Tracer::find(CommandKey key) {
  auto it = commands_.find(key);
  return it == commands_.end() ? nullptr : &it->second;
}

void Tracer::add_event(SpanId id, std::string label, sim::Time now,
                       std::uint64_t value) {
  if (Span* span = find(id)) {
    span->events.push_back(SpanEvent{std::move(label), now, value});
  }
}

void Tracer::end_span(SpanId id, sim::Time now) {
  if (Span* span = find(id)) {
    span->end = now;
    span->ended = true;
  }
}

SpanId Tracer::begin_command(CommandKey key, std::string name,
                             std::uint64_t bytes, sim::Time now) {
  const SpanId root = begin_span(std::move(name), now);
  add_event(root, "issue", now, bytes);
  commands_[key] = Command{root, {}};
  return root;
}

void Tracer::end_command(CommandKey key, SpanId root, const char* outcome,
                         sim::Time now) {
  add_event(root, outcome, now);
  end_span(root, now);
  auto it = commands_.find(key);
  if (it != commands_.end() && it->second.root == root) commands_.erase(it);
}

void Tracer::command_event(CommandKey key, const char* label, sim::Time now,
                           std::uint64_t value) {
  if (Command* cmd = find(key)) add_event(cmd->root, label, now, value);
}

void Tracer::enter_hop(CommandKey key, const Hop& hop, sim::Time now,
                       std::uint64_t value) {
  Command* cmd = find(key);
  if (cmd == nullptr) return;
  add_event(cmd->root, hop.cmd_event, now, value);
  const SpanId child = begin_span(hop.span, now, cmd->root);
  // A command re-sent after session recovery re-enters the hop: the new
  // child replaces the one left open.
  for (OpenHop& open : cmd->hops) {
    if (open.hop == hop.id) {
      open.child = child;
      return;
    }
  }
  cmd->hops.push_back(OpenHop{hop.id, child});
}

void Tracer::leave_hop(CommandKey key, const Hop& hop, sim::Time now,
                       std::uint64_t value) {
  Command* cmd = find(key);
  if (cmd == nullptr) return;
  add_event(cmd->root, hop.rsp_event, now, value);
  auto it = std::find_if(
      cmd->hops.begin(), cmd->hops.end(),
      [&](const OpenHop& open) { return open.hop == hop.id; });
  if (it == cmd->hops.end()) return;
  end_span(it->child, now);
  cmd->hops.erase(it);
}

const Span* Tracer::span(SpanId id) const {
  return id != 0 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
}

std::vector<const Span*> Tracer::spans_named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

std::vector<const Span*> Tracer::children_of(SpanId parent) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.parent == parent) out.push_back(&span);
  }
  return out;
}

}  // namespace storm::obs
