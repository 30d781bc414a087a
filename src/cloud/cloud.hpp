// OpenStack-like control plane over the simulated fabric.
//
// Topology (paper Fig. 1): every physical host has two NICs — one on the
// flat *storage network* (a plain L2 switch) and, for compute hosts, an
// Open-vSwitch-style FlowSwitch bridging its local VMs to an instance-
// network backbone FlowSwitch. iSCSI initiators run on the compute hosts
// (not in tenant VMs), one session per attached volume, exactly the
// arrangement StorM's connection attribution depends on.
//
//   storage subnet  10.1.0.0/16   hosts 10.1.0.x, storage hosts 10.1.1.x,
//                                 gateways 10.1.2.x
//   instance subnet 10.2.0.0/16   VMs 10.2.0.x, middle-boxes 10.2.1.x,
//                                 gateways 10.2.2.x
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "block/volume.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/remote_disk.hpp"
#include "iscsi/target.hpp"
#include "net/flow_switch.hpp"
#include "net/node.hpp"
#include "sim/cpu.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace storm::cloud {

struct CloudConfig {
  unsigned compute_hosts = 4;
  unsigned storage_hosts = 1;
  std::uint64_t link_bps = 1'000'000'000ull;  // 1 GbE, as in the testbed
  // Instance-network links (OVS uplinks, backbone, gateway instance side)
  // are bonded dual-1GbE — a middle-box's host NIC carries every spliced
  // flow twice (in and out), so OpenStack deployments bond these.
  std::uint64_t instance_link_bps = 2'000'000'000ull;
  sim::Duration link_delay = sim::microseconds(20);
  std::uint64_t storage_pool_sectors = 8ull * 1024 * 1024;  // 4 GiB/host
  block::DiskProfile disk_profile{};
  unsigned host_cores = 8;
  // Virtio-style per-packet guest copy cost (the paper observes these
  // intra-host copies dominate middle-box routing overhead).
  sim::Duration vm_packet_cost = sim::microseconds(3);
  double vm_ns_per_byte = 0.4;
  // Middle-box VMs pay more per packet: forwarded traffic crosses the
  // virtio boundary twice (in and out), on a single queue ("the
  // virtualization driver ... uses a single thread per VM's virtual
  // interface", §V-A).
  sim::Duration mb_packet_cost = sim::microseconds(2);
  double mb_ns_per_byte = 0.25;
  // TCP window for every stack in the cloud (hosts, storage, guests).
  // Small enough that a flow spanning the whole spliced path is
  // ACK-clocked below line rate — the effect StorM's active relay
  // removes by terminating TCP at the middle-box.
  std::uint32_t tcp_window = 36 * 1024;
};

class Cloud;

/// A guest VM: one instance-network NIC behind its host's OVS, its own
/// vCPUs, and the virtual disks attached to it.
class Vm {
 public:
  Vm(Cloud& cloud, std::string name, std::string tenant, unsigned host_index,
     unsigned vcpus);

  const std::string& name() const { return name_; }
  const std::string& tenant() const { return tenant_; }
  unsigned host_index() const { return host_index_; }
  net::NetNode& node() { return *node_; }
  sim::Cpu& cpu() { return *cpu_; }
  net::Ipv4Addr ip() const { return ip_; }
  net::MacAddr mac() const { return mac_; }

  /// Disks attached so far, in attach order.
  block::BlockDevice* disk(std::size_t index = 0);
  std::size_t disk_count() const { return disks_.size(); }

 private:
  friend class Cloud;
  std::string name_;
  std::string tenant_;
  unsigned host_index_;
  net::Ipv4Addr ip_;
  net::MacAddr mac_;
  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<net::NetNode> node_;
  std::unique_ptr<net::Link> link_;  // virtio link to the host OVS
  std::vector<std::unique_ptr<iscsi::RemoteDisk>> disks_;
};

class ComputeHost {
 public:
  ComputeHost(Cloud& cloud, unsigned index);

  net::NetNode& node() { return *node_; }       // host network namespace
  net::FlowSwitch& ovs() { return *ovs_; }
  sim::Cpu& cpu() { return *cpu_; }
  unsigned index() const { return index_; }
  net::Ipv4Addr storage_ip() const { return storage_ip_; }
  /// Serializes the volume attachments on this host (the paper's mutex):
  /// each login runs alone, so a login-time NAT redirect cannot capture
  /// another attach's connection.
  sim::Mutex& attach_lock() { return attach_lock_; }

 private:
  friend class Cloud;
  unsigned index_;
  net::Ipv4Addr storage_ip_;
  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<net::NetNode> node_;
  std::unique_ptr<net::FlowSwitch> ovs_;
  std::unique_ptr<net::Link> storage_link_;  // host <-> storage switch
  std::unique_ptr<net::Link> uplink_;        // ovs <-> instance backbone
  std::vector<std::unique_ptr<iscsi::Initiator>> initiators_;
  sim::Mutex attach_lock_;
};

class StorageHost {
 public:
  StorageHost(Cloud& cloud, unsigned index);

  net::NetNode& node() { return *node_; }
  sim::Cpu& cpu() { return *cpu_; }
  block::VolumeManager& volumes() { return *volumes_; }
  iscsi::Target& target() { return *target_; }
  net::Ipv4Addr storage_ip() const { return storage_ip_; }

 private:
  friend class Cloud;
  unsigned index_;
  net::Ipv4Addr storage_ip_;
  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<net::NetNode> node_;
  std::unique_ptr<net::Link> storage_link_;
  std::unique_ptr<block::VolumeManager> volumes_;
  std::unique_ptr<iscsi::Target> target_;
};

/// One attached volume as the hypervisor + modified iSCSI login see it:
/// the join of VM <-> IQN (from the hypervisor) and IQN <-> TCP source
/// port (from the patched login path). This is the paper's connection-
/// attribution data.
struct Attachment {
  std::string vm;
  std::string tenant;
  std::string volume;
  std::string iqn;
  unsigned host_index = 0;
  net::Ipv4Addr host_ip;      // initiator side (compute host storage NIC)
  net::Ipv4Addr target_ip;    // storage host
  std::uint16_t source_port = 0;
  iscsi::Initiator* initiator = nullptr;
  iscsi::RemoteDisk* disk = nullptr;
};

class Cloud {
 public:
  Cloud(sim::Simulator& simulator, CloudConfig config);

  Cloud(const Cloud&) = delete;
  Cloud& operator=(const Cloud&) = delete;

  /// The ParallelConfig a partition-aware Cloud wants: one data
  /// partition per host plus the fabric/control partition, lookahead
  /// derived from the wired topology (link_delay as the fallback).
  /// Build the Simulator from this, then hand it to the Cloud:
  ///
  ///   sim::Simulator sim(cloud::Cloud::parallel_config(config, threads));
  ///   cloud::Cloud cloud(sim, config);
  static sim::ParallelConfig parallel_config(const CloudConfig& config,
                                             std::uint32_t threads = 1) {
    sim::ParallelConfig pc;
    pc.partitions = 1 + config.compute_hosts + config.storage_hosts;
    pc.threads = threads;
    pc.lookahead = config.link_delay;
    pc.auto_lookahead = true;
    return pc;
  }

  sim::Simulator& simulator() { return sim_; }

  /// Control-plane executor (partition 0): the shared fabric, the SDN
  /// controller, platform bookkeeping. Data-plane components belong on
  /// host_executor/storage_executor — placement is deliberate now, not
  /// a partition-0 default.
  sim::Executor control_executor() { return sim_.executor(0); }

  /// Host-per-partition placement (0 when the simulator has a single
  /// partition). Partition 0 keeps the shared fabric (storage switch,
  /// instance backbone) and the control plane; data partitions 1..P-1
  /// carry the hosts. Compute host i goes to 1 + (i mod (P-1)), storage
  /// host j to 1 + ((compute_hosts + j) mod (P-1)) — a pure function of
  /// the topology, so placement is deterministic and stable across runs.
  /// Everything a host owns (VMs, virtio links, OVS, NAT, initiators,
  /// CPUs, disks) lands on the host's partition; inter-host links span
  /// partitions and feed the auto-lookahead derivation.
  std::uint32_t host_partition(unsigned index) const;
  std::uint32_t storage_partition(unsigned index) const;
  /// Gateways spread round-robin over the data partitions by creation
  /// ordinal — they carry every spliced flow, so leaving them all on the
  /// fabric partition would serialize the datapath.
  std::uint32_t gateway_partition(unsigned ordinal) const;

  sim::Executor host_executor(unsigned index) {
    return sim_.executor(host_partition(index));
  }
  sim::Executor storage_executor(unsigned index) {
    return sim_.executor(storage_partition(index));
  }

  const CloudConfig& config() const { return config_; }
  std::shared_ptr<net::ArpRegistry> arp() { return arp_; }

  ComputeHost& compute(unsigned index) { return *compute_[index]; }
  StorageHost& storage(unsigned index) { return *storage_[index]; }
  unsigned compute_count() const { return static_cast<unsigned>(compute_.size()); }
  net::L2Switch& storage_switch() { return *storage_switch_; }
  net::FlowSwitch& instance_backbone() { return *backbone_; }

  /// Every FlowSwitch in the instance network (per-host OVSes + backbone);
  /// the SDN controller installs steering rules across these.
  std::vector<net::FlowSwitch*> flow_switches();

  /// Exact-match fast-path statistics aggregated over every FlowSwitch.
  /// Scale-out rule swaps must keep the hit rate intact — the bench gates
  /// on hits / (hits + misses) staying above 99.99%.
  struct FlowCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total == 0.0 ? 1.0 : static_cast<double>(hits) / total;
    }
  };
  FlowCacheStats flow_cache_stats();

  /// Provision a VM on a compute host.
  Vm& create_vm(const std::string& name, const std::string& tenant,
                unsigned host_index, unsigned vcpus = 2);

  /// Provision a middle-box VM: same as a tenant VM but addressed from
  /// the middle-box range and with IP forwarding enabled (the only guest
  /// configuration the paper's steering requires).
  Vm& create_middlebox_vm(const std::string& name, const std::string& tenant,
                          unsigned host_index, unsigned vcpus = 2);

  Vm* find_vm(const std::string& name);

  /// Create a block volume ("cinder create").
  Result<block::Volume*> create_volume(const std::string& name,
                                       std::uint64_t sectors,
                                       unsigned storage_index = 0);

  /// Find a volume by name across storage hosts; returns the volume and
  /// the index of the storage host owning it.
  Result<std::pair<block::Volume*, unsigned>> locate_volume(
      const std::string& name);

  /// Attach a volume to a VM: spin up a host-side initiator, log in, and
  /// expose the volume as a virtual disk. Attachments on one host are
  /// serialized by its attach_lock(). On a partitioned topology the
  /// control-plane steps run at window barriers
  /// (sim::Simulator::at_barrier); `done` fires from barrier context and
  /// may safely touch any partition.
  void attach_volume(Vm& vm, const std::string& volume_name,
                     std::function<void(Status, Attachment)> done);

  // --- the attach, step by step -------------------------------------
  // attach_volume runs these in order, holding the host's attach_lock()
  // from the check to the registry; StorM's platform runs them too, with
  // its NAT redirect around the login (§III-A).

  /// An attach between its steps.
  struct AttachPlan {
    Vm* vm = nullptr;
    block::Volume* volume = nullptr;
    Attachment attachment;  // endpoints; initiator and port after login
  };
  /// Check that the volume exists and is free, and fill in the
  /// attachment's endpoints. Runs at a barrier.
  Result<AttachPlan> prepare_attach(Vm& vm, const std::string& volume_name);
  /// Spin up the host-side initiator and log in. A nonzero `source_port`
  /// is bound as the TCP source port: StorM pins it so per-flow rules can
  /// be installed before the first SYN (our equivalent of the paper's
  /// patched login path, which exposes the port to the platform).
  /// Resumes in the login completion, on the host's partition.
  sim::Task<Status> login(AttachPlan& plan, std::uint16_t source_port);
  /// Expose the logged-in volume to the VM and record the attachment in
  /// the hypervisor registry. Runs at a barrier: the volume's state lives
  /// with its storage host.
  Attachment register_attachment(AttachPlan& plan);

  /// Release an attachment: close any surviving sessions for its IQN,
  /// drop the hypervisor registry row, and mark the volume free for a
  /// fresh attach. This is how a replica whose session died is recycled
  /// before the replication service re-attaches it. Called from a
  /// partition thread of a multi-partition run, the detach is deferred
  /// to the next barrier and this returns OK immediately.
  Status detach_volume(const std::string& vm, const std::string& volume_name);

  /// All completed attachments (the hypervisor registry).
  const std::vector<Attachment>& attachments() const { return attachments_; }
  std::optional<Attachment> find_attachment(const std::string& vm,
                                            const std::string& volume) const;

  /// Create a dual-homed infrastructure node (StorM storage gateways):
  /// one NIC on the storage network, one on the instance backbone.
  net::NetNode& create_gateway(const std::string& name);

  /// Arm packet fault injection on every link in the cloud — existing and
  /// any created later. Pass nullptr to disarm. Labels in the plan's event
  /// trace name the link ("host0.storage", "vm.web1", "gw-t1.instance").
  void set_fault_plan(sim::FaultPlan* plan,
                      sim::PacketFaultProfile profile = {});

  /// Look up a registered link by its fault label (for targeted flaps).
  net::Link* find_link(const std::string& label);

  net::MacAddr next_mac() { return net::MacAddr{next_mac_++}; }

 private:
  friend class Vm;
  friend class ComputeHost;
  friend class StorageHost;

  sim::Task<> attach(Vm& vm, std::string volume_name,
                     std::function<void(Status, Attachment)> done);

  /// Track a link under `label` and apply the current fault plan to it.
  void register_link(net::Link& link, std::string label);

  /// Whether a fault plan may legally observe this link (both ends in
  /// one partition); warns once when a spanning link is excluded.
  bool link_fault_safe(net::Link& link);

  sim::Simulator& sim_;
  CloudConfig config_;
  std::shared_ptr<net::ArpRegistry> arp_;
  std::unique_ptr<net::L2Switch> storage_switch_;
  std::unique_ptr<net::FlowSwitch> backbone_;
  std::vector<std::unique_ptr<ComputeHost>> compute_;
  std::vector<std::unique_ptr<StorageHost>> storage_;
  std::vector<std::unique_ptr<Vm>> vms_;

  struct GatewayNode {
    std::unique_ptr<net::NetNode> node;
    std::unique_ptr<net::Link> storage_link;
    std::unique_ptr<net::Link> instance_link;
  };
  std::vector<GatewayNode> gateways_;

  sim::FaultPlan* fault_plan_ = nullptr;
  sim::PacketFaultProfile fault_profile_;
  bool warned_fault_span_ = false;
  std::vector<std::pair<net::Link*, std::string>> links_;

  std::vector<Attachment> attachments_;

  std::uint64_t next_mac_ = 0x020000000001ull;  // locally administered
  std::uint32_t next_vm_ip_ = 0;
  std::uint32_t next_mb_ip_ = 0;
  std::uint32_t next_gw_ip_ = 0;
};

}  // namespace storm::cloud
