#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/buf.hpp"
#include "sim/simulator.hpp"

namespace storm::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

std::string render_json(sim::Time now,
                        const std::map<std::string, std::uint64_t>& counters,
                        const std::map<std::string, std::int64_t>& gauges,
                        const std::map<std::string, Histogram>& hists,
                        const std::vector<FlightRecorder::Event>& events,
                        const std::vector<Span>& spans, bool include_spans) {
  std::string out;
  out += "{\n  \"sim_time_ns\": " + std::to_string(now);

  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : hists) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(hist.count());
    out += ", \"sum\": " + std::to_string(hist.sum());
    out += ", \"min\": " + std::to_string(hist.min());
    out += ", \"max\": " + std::to_string(hist.max());
    out += ", \"mean\": ";
    append_double(out, hist.mean());
    for (double p : {50.0, 90.0, 99.0}) {
      out += ", \"p" + std::to_string(static_cast<int>(p)) + "\": ";
      append_double(out, hist.percentile(p));
    }
    out += "}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"flight_recorder\": [";
  first = true;
  for (const auto& event : events) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"at\": " + std::to_string(event.at) + ", \"what\": ";
    append_json_string(out, event.what);
    out += "}";
  }
  out += first ? "]" : "\n  ]";

  if (include_spans) {
    out += ",\n  \"spans\": [";
    first = true;
    for (const Span& span : spans) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      out += "{\"id\": " + std::to_string(span.id);
      out += ", \"parent\": " + std::to_string(span.parent);
      out += ", \"name\": ";
      append_json_string(out, span.name);
      out += ", \"start\": " + std::to_string(span.start);
      out +=
          ", \"end\": " + std::to_string(span.ended ? span.end : span.start);
      out += ", \"ended\": ";
      out += span.ended ? "true" : "false";
      out += ", \"events\": [";
      bool first_event = true;
      for (const SpanEvent& event : span.events) {
        out += first_event ? "" : ", ";
        first_event = false;
        out += "{\"label\": ";
        append_json_string(out, event.label);
        out += ", \"at\": " + std::to_string(event.at);
        out += ", \"value\": " + std::to_string(event.value) + "}";
      }
      out += "]}";
    }
    out += first ? "]" : "\n  ]";
  }

  out += "\n}\n";
  return out;
}

}  // namespace

Counter& Scope::counter(const std::string& name) const {
  static Counter null_counter;
  if (registry_ == nullptr) return null_counter;
  return registry_->counter(prefix_ + name);
}

Gauge& Scope::gauge(const std::string& name) const {
  static Gauge null_gauge;
  if (registry_ == nullptr) return null_gauge;
  return registry_->gauge(prefix_ + name);
}

Histogram& Scope::histogram(const std::string& name) const {
  static Histogram null_histogram;
  if (registry_ == nullptr) return null_histogram;
  return registry_->histogram(prefix_ + name);
}

Registry::Registry(sim::Executor executor)
    : exec_(executor), copy_baseline_(bufstats::bytes_copied()) {}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

sim::Time Registry::now() const { return exec_.now(); }

SpanId Registry::begin_span(std::string name, SpanId parent) {
  return tracer_.begin_span(std::move(name), exec_.now(), parent);
}

void Registry::add_event(SpanId id, std::string label, std::uint64_t value) {
  tracer_.add_event(id, std::move(label), exec_.now(), value);
}

void Registry::end_span(SpanId id) { tracer_.end_span(id, exec_.now()); }

void Registry::record_event(std::string what) {
  recorder_.record(exec_.now(), std::move(what));
}

std::string Registry::to_json(bool include_spans) const {
  return merged_json({this}, now(), bufstats::bytes_copied() - copy_baseline_,
                     include_spans);
}

std::string Registry::merged_json(
    const std::vector<const Registry*>& registries, sim::Time now,
    std::uint64_t copied_bytes, bool include_spans) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram> hists;
  std::vector<FlightRecorder::Event> events;
  std::vector<Span> spans;
  SpanId id_base = 0;

  for (const Registry* reg : registries) {
    for (const auto& [name, counter] : reg->counters_) {
      counters[name] += counter->value();
    }
    for (const auto& [name, gauge] : reg->gauges_) {
      gauges[name] += gauge->value();
    }
    for (const auto& [name, hist] : reg->histograms_) {
      hists[name].merge(*hist);
    }
    for (FlightRecorder::Event& event : reg->recorder_.events()) {
      events.push_back(std::move(event));
    }
    if (include_spans) {
      for (const Span& span : reg->tracer_.spans()) {
        Span copy = span;
        copy.id += id_base;
        if (copy.parent != 0) copy.parent += id_base;
        spans.push_back(std::move(copy));
      }
      id_base += reg->tracer_.spans_started();
    }
  }
  // The per-process copy tally cannot be split per partition; the
  // caller supplies its own delta.
  counters["net.bytes_copied"] = copied_bytes;

  // Interleave flight-recorder entries by sim-time; stable_sort keeps
  // partition-id order (then intra-registry order) for equal stamps.
  std::stable_sort(
      events.begin(), events.end(),
      [](const FlightRecorder::Event& a, const FlightRecorder::Event& b) {
        return a.at < b.at;
      });

  return render_json(now, counters, gauges, hists, events, spans,
                     include_spans);
}

}  // namespace storm::obs
