// iptables-style NAT with connection tracking.
//
// Rules match the *pre-translation* packet and may rewrite source
// (SNAT / masquerading) and/or destination (DNAT). The first packet of a
// flow that matches a rule creates a conntrack entry; subsequent packets
// (and replies) are translated from conntrack alone. This is what makes
// StorM's atomic volume attachment work: the platform removes the rules
// right after attach, and established flows keep flowing because their
// conntrack entries survive rule removal (paper §III-A).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"

namespace storm::net {

struct NatRule {
  // Match (wildcard when empty). Matches the packet before translation.
  std::optional<Ipv4Addr> match_src_ip;
  std::optional<std::uint16_t> match_src_port;
  std::optional<Ipv4Addr> match_dst_ip;
  std::optional<std::uint16_t> match_dst_port;

  // Rewrites to apply (any subset).
  std::optional<Ipv4Addr> snat_ip;
  std::optional<std::uint16_t> snat_port;
  std::optional<Ipv4Addr> dnat_ip;
  std::optional<std::uint16_t> dnat_port;

  std::uint64_t cookie = 0;

  bool matches(const Packet& pkt) const;
};

class NatEngine {
 public:
  void add_rule(NatRule rule) { rules_.push_back(std::move(rule)); }
  /// Remove every rule tagged `cookie`. By default the conntrack entries
  /// those rules created stay alive — that survival is what makes atomic
  /// volume attachment work (the platform removes the redirect right
  /// after login and the established flow keeps translating). Pass
  /// `flush_conntrack = true` on detach/teardown paths, where leaving
  /// the entries would keep a detached volume's flows translating
  /// forever.
  std::size_t remove_rules_by_cookie(std::uint64_t cookie,
                                     bool flush_conntrack = false);
  std::size_t rule_count() const { return rules_.size(); }

  /// Translate a packet traversing this node's IP layer. Returns true if
  /// any translation was applied (conntrack or rule).
  bool translate(Packet& pkt);

  std::size_t conntrack_size() const { return forward_.size(); }
  void flush_conntrack();
  /// Drop conntrack entries created by rules tagged `cookie`.
  std::size_t flush_conntrack_by_cookie(std::uint64_t cookie);

  /// Wire hit accounting into the telemetry registry (NetNode does this;
  /// an unbound engine just keeps its local counts). `rule_hits` counts
  /// first-packet rule matches (conntrack entry creation), `conntrack_hits`
  /// translations served from established entries.
  void bind_telemetry(obs::Counter* rule_hits, obs::Counter* conntrack_hits) {
    tel_rule_hits_ = rule_hits;
    tel_conntrack_hits_ = conntrack_hits;
  }

  std::uint64_t rule_hits() const { return rule_hits_; }
  std::uint64_t conntrack_hits() const { return conntrack_hits_; }

 private:
  static void apply(Packet& pkt, const FourTuple& to);

  std::uint64_t rule_hits_ = 0;
  std::uint64_t conntrack_hits_ = 0;
  obs::Counter* tel_rule_hits_ = nullptr;
  obs::Counter* tel_conntrack_hits_ = nullptr;
  /// Conntrack value: the rewrite plus the cookie of the rule that
  /// created the entry, so detach can flush exactly its own flows.
  struct Conntrack {
    FourTuple to;
    std::uint64_t cookie = 0;
  };

  std::vector<NatRule> rules_;
  std::map<FourTuple, Conntrack> forward_;  // orig -> translated
  std::map<FourTuple, Conntrack> reverse_;  // reverse(translated) -> reverse(orig)
};

}  // namespace storm::net
