#include "net/nat.hpp"

#include <algorithm>

namespace storm::net {

bool NatRule::matches(const Packet& pkt) const {
  if (match_src_ip && *match_src_ip != pkt.ip.src) return false;
  if (match_src_port && *match_src_port != pkt.tcp.src_port) return false;
  if (match_dst_ip && *match_dst_ip != pkt.ip.dst) return false;
  if (match_dst_port && *match_dst_port != pkt.tcp.dst_port) return false;
  return true;
}

std::size_t NatEngine::remove_rules_by_cookie(std::uint64_t cookie,
                                              bool flush_conntrack) {
  const std::size_t removed = std::erase_if(
      rules_, [cookie](const NatRule& r) { return r.cookie == cookie; });
  if (flush_conntrack) flush_conntrack_by_cookie(cookie);
  return removed;
}

void NatEngine::apply(Packet& pkt, const FourTuple& to) {
  pkt.ip.src = to.src.ip;
  pkt.tcp.src_port = to.src.port;
  pkt.ip.dst = to.dst.ip;
  pkt.tcp.dst_port = to.dst.port;
}

bool NatEngine::translate(Packet& pkt) {
  const FourTuple key = pkt.four_tuple();

  if (auto it = forward_.find(key); it != forward_.end()) {
    ++conntrack_hits_;
    if (tel_conntrack_hits_ != nullptr) tel_conntrack_hits_->add();
    apply(pkt, it->second.to);
    return true;
  }
  if (auto it = reverse_.find(key); it != reverse_.end()) {
    ++conntrack_hits_;
    if (tel_conntrack_hits_ != nullptr) tel_conntrack_hits_->add();
    apply(pkt, it->second.to);
    return true;
  }

  for (const NatRule& rule : rules_) {
    if (!rule.matches(pkt)) continue;
    FourTuple translated = key;
    if (rule.snat_ip) translated.src.ip = *rule.snat_ip;
    if (rule.snat_port) translated.src.port = *rule.snat_port;
    if (rule.dnat_ip) translated.dst.ip = *rule.dnat_ip;
    if (rule.dnat_port) translated.dst.port = *rule.dnat_port;
    if (translated == key) return false;  // no-op rule

    ++rule_hits_;
    if (tel_rule_hits_ != nullptr) tel_rule_hits_->add();
    forward_[key] = Conntrack{translated, rule.cookie};
    reverse_[FourTuple{translated.dst, translated.src}] =
        Conntrack{FourTuple{key.dst, key.src}, rule.cookie};
    apply(pkt, translated);
    return true;
  }
  return false;
}

void NatEngine::flush_conntrack() {
  forward_.clear();
  reverse_.clear();
}

std::size_t NatEngine::flush_conntrack_by_cookie(std::uint64_t cookie) {
  const std::size_t dropped = std::erase_if(
      forward_, [cookie](const auto& e) { return e.second.cookie == cookie; });
  std::erase_if(
      reverse_, [cookie](const auto& e) { return e.second.cookie == cookie; });
  return dropped;
}

}  // namespace storm::net
