// Unit tests for the obs:: telemetry subsystem: registry metrics, scopes,
// trace spans with correlation keys, the bounded flight recorder, and the
// deterministic JSON export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace storm::obs {
namespace {

// ------------------------------------------------------------- metrics

TEST(Registry, MetricsAreNamedSingletonsWithStableAddresses) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  Counter& c = reg.counter("net.packets");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("net.packets").value(), 5u);
  EXPECT_EQ(&reg.counter("net.packets"), &c)
      << "hot paths cache metric pointers; addresses must be stable";

  Gauge& g = reg.gauge("queue.depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(reg.gauge("queue.depth").value(), 4);

  Histogram& h = reg.histogram("lat");
  h.record(100);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
}

TEST(Registry, ScopePrefixesAndNullScopeDiscards) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  Scope scope = reg.scope("relay.mb-1.");
  scope.counter("pdus").add(3);
  EXPECT_EQ(reg.counter("relay.mb-1.pdus").value(), 3u);

  // A default-constructed Scope is a null object: writes vanish, reads
  // are safe, and nothing lands in any registry.
  Scope null_scope;
  null_scope.counter("pdus").add(42);
  null_scope.gauge("depth").set(9);
  null_scope.histogram("lat").record(1);
  EXPECT_EQ(reg.counter("pdus").value(), 0u);
}

TEST(Registry, MetricHandlesResolveOnFirstUseAndCreateNothingUntilThen) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  Scope scope = reg.scope("relay.mb-1.");
  const std::string before = reg.to_json();

  // Declared but unused handles leave the export untouched, so swapping
  // a per-call lookup for a handle cannot add a key.
  CounterHandle pdus("pdus");
  GaugeHandle depth("depth");
  HistogramHandle lat("lat");
  CounterHandle commands("iscsi.target.commands");
  EXPECT_EQ(reg.to_json(), before);

  pdus.in(scope).add(2);
  pdus.in(scope).add(3);
  depth.in(scope).set(7);
  lat.in(scope).record(100);
  commands.in(reg).add();
  EXPECT_EQ(&pdus.in(scope), &reg.counter("relay.mb-1.pdus"));
  EXPECT_EQ(reg.counter("relay.mb-1.pdus").value(), 5u);
  EXPECT_EQ(reg.gauge("relay.mb-1.depth").value(), 7);
  EXPECT_EQ(reg.histogram("relay.mb-1.lat").count(), 1u);
  EXPECT_EQ(reg.counter("iscsi.target.commands").value(), 1u);

  // reset() re-resolves against whatever scope is passed next.
  pdus.reset();
  pdus.in(reg.scope("relay.mb-2.")).add();
  EXPECT_EQ(reg.counter("relay.mb-2.pdus").value(), 1u);
  EXPECT_EQ(reg.counter("relay.mb-1.pdus").value(), 5u);
}

TEST(Histogram, HdrBucketsBoundRelativeError) {
  Histogram h;
  // Exact below 64; bounded relative error above.
  for (std::int64_t v : {1, 2, 63}) {
    h.record(v);
  }
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 63);
  h.clear();
  std::int64_t big = 1'000'000;
  h.record(big);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), big);
  EXPECT_NEAR(h.percentile(50), static_cast<double>(big), 0.02 * big);
  // p0/p100 are the exact extremes regardless of bucketing.
  EXPECT_EQ(h.percentile(0), static_cast<double>(big));
  EXPECT_EQ(h.percentile(100), static_cast<double>(big));
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);

  auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 1u);
  std::uint64_t total = 0;
  for (const auto& [rep, count] : buckets) total += count;
  EXPECT_EQ(total, h.count());
}

// -------------------------------------------------------------- tracing

TEST(Tracer, ParentChildSpansAndEvents) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  SpanId root = reg.begin_span("cmd.write");
  sim.schedule_in(sim::microseconds(5), [&] {
    reg.add_event(root, "mb.cmd", /*queue depth*/ 2);
    SpanId child = reg.begin_span("relay.mb-1", root);
    sim.schedule_in(sim::microseconds(3), [&, child] {
      reg.end_span(child);
      reg.add_event(root, "complete");
      reg.end_span(root);
    });
  });
  sim.run();

  const Tracer& tracer = reg.tracer();
  auto roots = tracer.spans_named("cmd.write");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_TRUE(roots[0]->ended);
  EXPECT_EQ(roots[0]->start, 0u);
  EXPECT_EQ(roots[0]->end, sim::microseconds(8));
  ASSERT_EQ(roots[0]->events.size(), 2u);
  EXPECT_EQ(roots[0]->events[0].label, "mb.cmd");
  EXPECT_EQ(roots[0]->events[0].at, sim::microseconds(5));
  EXPECT_EQ(roots[0]->events[0].value, 2u);

  auto children = tracer.children_of(root);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name, "relay.mb-1");
  EXPECT_EQ(children[0]->parent, root);
  EXPECT_EQ(children[0]->start, sim::microseconds(5));
  EXPECT_EQ(children[0]->end, sim::microseconds(8));
}

TEST(Tracer, CommandKeysBeginReplaceAndEnd) {
  Tracer tracer;
  const CommandKey key{session_id("iqn.test:volume-1"), 7};
  const Hop hop("mb-1");
  auto labels_of = [&tracer](SpanId id) {
    std::vector<std::string> labels;
    for (const SpanEvent& event : tracer.span(id)->events) {
      labels.push_back(event.label);
    }
    return labels;
  };
  // An unbound key resolves to no span: the target and hops stamp nothing.
  tracer.command_event(key, "target.cmd", 1, 0);
  tracer.enter_hop(key, hop, 1, 0);
  EXPECT_EQ(tracer.spans_started(), 0u);

  SpanId id = tracer.begin_command(key, "cmd.read", 4096, 2);
  // Re-beginning a key (a later command reusing the tag) replaces it.
  SpanId id2 = tracer.begin_command(key, "cmd.read", 512, 3);
  // Ending the replaced command leaves the newer binding alone.
  tracer.end_command(key, id, "failed", 4);
  // The same tag on another session is another command.
  const CommandKey other{session_id("iqn.test:volume-2"), 7};
  tracer.command_event(other, "target.cmd", 4, 0);

  tracer.enter_hop(key, hop, 5, 2);
  tracer.command_event(key, "target.cmd", 6, 512);
  tracer.leave_hop(key, hop, 7, 1);
  tracer.end_command(key, id2, "complete", 8);
  // Ending a command unbinds it: later stamps on the key land nowhere.
  tracer.command_event(key, "target.rsp", 9, 0);
  tracer.enter_hop(key, hop, 9, 0);

  ASSERT_NE(tracer.span(id), nullptr);
  EXPECT_TRUE(tracer.span(id)->ended);
  EXPECT_EQ(labels_of(id), (std::vector<std::string>{"issue", "failed"}));
  EXPECT_TRUE(tracer.children_of(id).empty());

  const Span* root = tracer.span(id2);
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->ended);
  EXPECT_EQ(labels_of(id2), (std::vector<std::string>{"issue", "mb.mb-1.cmd",
                                                      "target.cmd",
                                                      "mb.mb-1.rsp",
                                                      "complete"}));
  auto children = tracer.children_of(id2);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name, "relay.mb-1");
  EXPECT_EQ(children[0]->start, 5u);
  EXPECT_TRUE(children[0]->ended);
  EXPECT_EQ(children[0]->end, 7u);
  EXPECT_EQ(tracer.spans_started(), 3u);
}

TEST(Tracer, RetentionCapDropsSpanDetailNotIds) {
  Tracer tracer(/*max_retained=*/4);
  std::vector<SpanId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(tracer.begin_span("s", /*now=*/i));
    tracer.add_event(ids.back(), "e", i, 0);
    tracer.end_span(ids.back(), i + 1);
  }
  EXPECT_EQ(tracer.spans_started(), 10u);
  EXPECT_EQ(tracer.spans_dropped(), 6u);
  EXPECT_EQ(tracer.spans().size(), 4u);
  // Ids remain unique and monotonic even past the cap.
  EXPECT_EQ(ids.back(), 10u);
  // Dropped spans are invisible to queries; retained ones intact.
  EXPECT_EQ(tracer.span(ids.back()), nullptr);
  ASSERT_NE(tracer.span(ids.front()), nullptr);
  EXPECT_TRUE(tracer.span(ids.front())->ended);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, BoundedRingKeepsNewestOldestFirst) {
  FlightRecorder rec(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    rec.record(static_cast<sim::Time>(i), "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.total_recorded(), 5u);
  auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].what, "event 2");
  EXPECT_EQ(events[2].what, "event 4");
  EXPECT_LE(events[0].at, events[2].at);

  std::ostringstream out;
  rec.dump(out);
  EXPECT_NE(out.str().find("event 4"), std::string::npos);
  EXPECT_EQ(out.str().find("event 1"), std::string::npos);
}

// ------------------------------------------------------------ to_json

TEST(Registry, ToJsonIsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    sim::Simulator sim;
    Registry& reg = sim.telemetry();
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.gauge("depth").set(-3);
    reg.histogram("lat").record(1500);
    reg.record_event("attach vm:vol");
    SpanId id = reg.begin_span("cmd.write");
    reg.add_event(id, "issue", 4096);
    reg.end_span(id);
    return reg.to_json(/*include_spans=*/true);
  };
  std::string first = run();
  EXPECT_EQ(first, run());

  // Name-ordered keys, escaped strings, span payload present.
  EXPECT_LT(first.find("\"a\""), first.find("\"b\""));
  EXPECT_NE(first.find("\"sim_time_ns\""), std::string::npos);
  EXPECT_NE(first.find("\"attach vm:vol\""), std::string::npos);
  EXPECT_NE(first.find("\"cmd.write\""), std::string::npos);
  EXPECT_NE(first.find("\"p99\""), std::string::npos);

  // Without spans the trace section is omitted entirely.
  sim::Simulator sim;
  EXPECT_EQ(sim.telemetry().to_json().find("\"spans\""), std::string::npos);
}

TEST(Registry, ToJsonEscapesControlAndQuoteCharacters) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  reg.record_event("quote \" backslash \\ newline \n tab \t end");
  std::string json = reg.to_json();
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n tab \\t end"),
            std::string::npos);
}

}  // namespace
}  // namespace storm::obs
