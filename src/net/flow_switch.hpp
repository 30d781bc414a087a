// OVS-style flow-table switch: priority-ordered match/action rules
// installed by the StorM SDN controller (paper Fig. 3). Unmatched packets
// fall back to the NORMAL L2 learning pipeline, as in Open vSwitch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/switch.hpp"
#include "obs/metrics.hpp"

namespace storm::net {

/// All fields optional: an empty field is a wildcard.
struct FlowMatch {
  std::optional<int> in_port;
  std::optional<MacAddr> src_mac;
  std::optional<MacAddr> dst_mac;
  std::optional<Ipv4Addr> src_ip;
  std::optional<Ipv4Addr> dst_ip;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;

  bool matches(int in_port_arg, const Packet& pkt) const;
};

enum class FlowActionType {
  kSetDstMac,   // mod_dst_mac — the steering primitive from paper Fig. 3
  kSetSrcMac,
  kOutput,      // emit on an explicit port
  kNormal,      // L2 learning pipeline
  kDrop,
};

struct FlowAction {
  FlowActionType type;
  MacAddr mac{};  // for kSet*Mac
  int port = -1;  // for kOutput

  static FlowAction set_dst_mac(MacAddr mac) {
    return {FlowActionType::kSetDstMac, mac, -1};
  }
  static FlowAction set_src_mac(MacAddr mac) {
    return {FlowActionType::kSetSrcMac, mac, -1};
  }
  static FlowAction output(int port) {
    return {FlowActionType::kOutput, MacAddr{}, port};
  }
  static FlowAction normal() { return {FlowActionType::kNormal, MacAddr{}, -1}; }
  static FlowAction drop() { return {FlowActionType::kDrop, MacAddr{}, -1}; }
};

struct FlowRule {
  int priority = 0;  // higher wins
  FlowMatch match;
  std::vector<FlowAction> actions;
  std::uint64_t cookie = 0;  // controller tag, for targeted removal
  std::uint64_t hits = 0;
};

/// Exact-match fast-path key: every header field a FlowMatch can
/// discriminate on. Two packets with equal keys always select the same
/// rule, so memoizing the scan result per key is exact, wildcards and
/// priorities included.
struct FlowCacheKey {
  int in_port = -1;
  std::uint64_t src_mac = 0;
  std::uint64_t dst_mac = 0;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  bool operator==(const FlowCacheKey&) const = default;
};

struct FlowCacheKeyHash {
  std::size_t operator()(const FlowCacheKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
      h ^= h >> 29;
    };
    mix(static_cast<std::uint64_t>(k.in_port));
    mix(k.src_mac);
    mix(k.dst_mac);
    mix(k.src_ip);
    mix(k.dst_ip);
    mix((static_cast<std::uint64_t>(k.src_port) << 16) | k.dst_port);
    return static_cast<std::size_t>(h);
  }
};

class FlowSwitch : public L2Switch {
 public:
  using L2Switch::L2Switch;

  /// Insert a rule; rules are kept sorted by descending priority
  /// (stable: earlier-installed wins ties).
  void add_rule(FlowRule rule);

  /// Remove all rules carrying `cookie`; returns how many were removed.
  std::size_t remove_rules_by_cookie(std::uint64_t cookie);

  /// Atomically replace every rule carrying `cookie` with `rules` (an
  /// OVS bundle/bundle-commit): no packet ever sees the table between
  /// removal and reinstall, which is what makes failover rule swaps safe
  /// under live traffic. The exact-match cache is revalidated — not
  /// dropped — in the same indivisible update: every memoized key is
  /// re-scanned against the post-swap table before the next packet, so a
  /// cached entry can neither steer into a removed replica nor cost the
  /// unaffected flows their fast path. Returns the number of rules
  /// removed.
  std::size_t swap_rules_by_cookie(std::uint64_t cookie,
                                   std::vector<FlowRule> rules);

  std::size_t rule_count() const { return rules_.size(); }
  const std::vector<FlowRule>& rules() const { return rules_; }

  /// Fast-path statistics (exported as net.flow.cache_{hits,misses}).
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  std::size_t cache_entries() const { return flow_cache_.size(); }

 protected:
  void process(int in_port, Packet pkt) override;

 private:
  void ensure_telemetry();
  /// Any table mutation shifts rule indices and can change which rule any
  /// key selects, so the whole memo is dropped (OVS's megaflow-cache
  /// revalidation collapsed to its safe extreme). Bundle operations use
  /// revalidate_cache() instead, which preserves still-correct entries.
  void invalidate_cache() { flow_cache_.clear(); }
  /// Re-derive every memoized entry against the current table (OVS
  /// revalidator): the cache key carries every header field a FlowMatch
  /// can discriminate on, so recomputing the winning index from a packet
  /// reconstructed off the key is exact. Entries survive with their new
  /// index; hit-rate is untouched by rule swaps.
  void revalidate_cache();
  std::size_t scan_rules(int in_port, const Packet& pkt) const;

  static constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);

  std::vector<FlowRule> rules_;
  // Memoized result of the linear scan: winning rule index, or kNoRule
  // for packets that fall through to NORMAL.
  std::unordered_map<FlowCacheKey, std::size_t, FlowCacheKeyHash>
      flow_cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  // Cached per-switch rule-hit counter ("net.flow.<name>.rule_hits").
  bool telemetry_ready_ = false;
  obs::Counter* tel_rule_hits_ = nullptr;
  obs::Counter* tel_total_rule_hits_ = nullptr;
  obs::Counter* tel_cache_hits_ = nullptr;
  obs::Counter* tel_cache_misses_ = nullptr;
};

}  // namespace storm::net
