// Cluster: the control plane over N LightVM nodes (paper §6.1 scaled out).
//
// Each node is a full lightvm::Host wired to every other node by a
// point-to-point link (the migration fabric). The cluster adds what a single
// Host cannot express:
//
//  * placement  — a pluggable PlacementPolicy picks the node for each VM,
//  * admission  — per-node memory and vCPU budgets are committed before the
//                 first suspension point, so concurrent Deploys can never
//                 oversubscribe a node,
//  * migration  — cluster-level Migrate() re-homes a VM between nodes and
//                 keeps the accounting straight,
//  * healing    — an opt-in health monitor detects crashed nodes, writes
//                 their budgets off, and re-places (evacuates) their VMs on
//                 the survivors, budget-correct throughout.
//
// Fault tolerance contract: every await in Deploy/Retire/Migrate records the
// target node's generation first. When the health monitor declares a node
// dead it bumps the generation and resets the node's committed budgets, so a
// resuming operation must not release (or re-insert) anything unless the
// generation still matches — otherwise a late rollback would corrupt the
// fresh bookkeeping. Deploys also retry transient toolstack errors with
// exponential backoff, and re-place exactly once when the chosen node dies
// between admission and completion (instead of leaking the reservation).
//
// All nodes share one sim::Engine, so a whole-cluster run is a single
// deterministic event sequence.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cluster/placement.h"
#include "src/core/host.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/sim/sync.h"

namespace cluster {

struct ClusterSpec {
  int num_nodes = 4;
  lightvm::HostSpec node = lightvm::HostSpec::Amd64Core();
  lightvm::Mechanisms mechanisms = lightvm::Mechanisms::LightVm();

  // Migration fabric between each pair of nodes.
  double link_gbps = 10.0;
  lv::Duration link_rtt = lv::Duration::Micros(200);

  // Admission budgets. Zero means "derive from the node spec": all guest
  // memory (node.memory - node.dom0_memory) and `vcpu_overcommit` virtual
  // CPUs per physical guest core.
  lv::Bytes memory_budget;
  int64_t vcpu_budget = 0;
  int64_t vcpu_overcommit = 32;

  // Self-healing knobs (used once StartHealthMonitor() runs).
  lv::Duration health_period = lv::Duration::Millis(10);
  // Attempts per placement for transient (kUnavailable) create failures; the
  // backoff doubles after each failed attempt.
  int create_retries = 3;
  lv::Duration retry_backoff = lv::Duration::Millis(10);
};

// A VM's cluster-wide identity: which node it lives on and its domain id
// there. Migration returns a fresh handle (new node, new domid).
struct VmHandle {
  int node = -1;
  hv::DomainId domid = hv::kInvalidDomain;

  bool operator==(const VmHandle&) const = default;
};

class Cluster {
 public:
  Cluster(sim::Engine* engine, ClusterSpec spec,
          std::unique_ptr<PlacementPolicy> policy);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const { return spec_.num_nodes; }
  const ClusterSpec& spec() const { return spec_; }
  PlacementPolicy& policy() { return *policy_; }
  lightvm::Host& host(int node) { return *nodes_[node].host; }
  // Link between two distinct nodes (undirected; created lazily).
  xnet::Link* link(int a, int b);

  // Current accounting snapshot of one node / all nodes.
  NodeView view(int node) const;
  std::vector<NodeView> views() const;

  // Places `config` with the policy, commits its budget and creates the VM
  // on the chosen node (boot-waited when `wait_boot`). Transient toolstack
  // failures are retried with backoff; if the chosen node dies under the
  // deploy the reservation is released and placement is retried once on the
  // survivors. Fails with kUnavailable when no node admits the VM or the
  // re-placed attempt also loses its node.
  // Every operation mints a causal op (src/obs) under `parent` — the root
  // op id is the exported flow id, so a Deploy's whole story (node jobs,
  // toolstack creates, a crash-triggered re-place, the recovery-loop
  // re-deploy) shares one flow. Callers usually pass nothing (a root op).
  sim::Co<lv::Result<VmHandle>> Deploy(toolstack::VmConfig config, bool wait_boot,
                                       obs::OpRef parent = {});

  // Destroys the VM and releases its budget. Retiring a VM whose node died
  // mid-destroy succeeds (the node's state is gone either way).
  sim::Co<lv::Status> Retire(VmHandle handle, obs::OpRef parent = {});

  // Migrates the VM to `target_node` (admission-checked there) and returns
  // its new handle. A target that is down — crashed, even before the health
  // monitor writes it off — is refused up front, like Deploy never picks it.
  sim::Co<lv::Result<VmHandle>> Migrate(VmHandle handle, int target_node,
                                        obs::OpRef parent = {});

  // --- Self-healing ----------------------------------------------------------

  // Starts the periodic health monitor: every spec.health_period it scans
  // for crashed nodes, writes off their budgets, evacuates their VMs onto
  // the survivors and re-admits rebooted nodes. Also asserts the cluster
  // invariants (admission within budget, no leaked host resources) on every
  // sweep. Opt-in so fault-free runs schedule no extra events. Idempotent.
  void StartHealthMonitor();

  // Crashes / settles-then-reboots one node (fault-injection entry points;
  // detection and recovery stay with the health monitor).
  void CrashNode(int node);
  void RequestReboot(int node);
  bool node_alive(int node) const { return nodes_[node].alive; }

  int64_t vms_deployed() const { return vms_deployed_.value(); }
  int64_t deploy_failures() const { return deploy_failures_; }
  int64_t admission_rejects() const { return admission_rejects_.value(); }
  int64_t migrations() const { return migrations_.value(); }
  // Total VMs currently running across all nodes.
  int64_t total_vms() const;

  // Self-healing bookkeeping (chaos bench + tests).
  int64_t node_failures() const { return node_failures_.value(); }
  int64_t vms_lost() const { return vms_lost_.value(); }
  int64_t vms_recovered() const { return vms_recovered_.value(); }
  int64_t vms_unrecovered() const { return vms_unrecovered_.value(); }
  int64_t deploy_retries() const { return deploy_retries_.value(); }
  int64_t deploy_replacements() const { return deploy_replacements_.value(); }
  int64_t invariant_failures() const { return invariant_failures_.value(); }
  // Detection-to-redeploy latency of every recovered VM, in ms.
  const std::vector<double>& recovery_ms() const { return recovery_ms_; }

  // Admission-budget drift: max |committed - sum of placements| across
  // nodes. Zero at quiescence (no deploys in flight) iff every commit was
  // matched by exactly one release.
  struct Drift {
    lv::Bytes memory;
    int64_t vcpus = 0;
  };
  Drift AdmissionDrift() const;

 private:
  struct Node {
    std::unique_ptr<lightvm::Host> host;
    lv::Bytes memory_committed;
    int64_t vcpus_committed = 0;
    int64_t active_creates = 0;
    bool alive = true;
    // Bumped when the health monitor declares the node dead; guards every
    // budget rollback that crosses a suspension point.
    int64_t generation = 0;
  };
  // Budget held by one placed VM, so Retire/Migrate release exactly what
  // Deploy committed even if the config changes meaning later. The config is
  // kept so a dead node's VMs can be re-placed (evacuated) elsewhere.
  struct Placement {
    lv::Bytes memory;
    int64_t vcpus = 0;
    toolstack::VmConfig config;
    // The Deploy op that placed the VM; an evacuation re-deploys under it
    // so the recovery shares the original flow.
    obs::OpRef op;
  };

  static int64_t Key(VmHandle handle) {
    return (static_cast<int64_t>(handle.node) << 32) | handle.domid;
  }

  sim::Co<void> HealthLoop();
  sim::Co<void> RecoveryLoop();
  sim::Co<void> RebootWhenSettled(int node);
  // Declares `node` dead: bumps its generation, zeroes its budgets, and
  // returns its placements (sorted by domid) with their keys erased.
  std::vector<std::pair<hv::DomainId, Placement>> WriteOffNode(int node);
  void CheckInvariants();

  sim::Engine* engine_;
  ClusterSpec spec_;
  std::unique_ptr<PlacementPolicy> policy_;
  std::vector<Node> nodes_;
  std::unordered_map<int64_t, std::unique_ptr<xnet::Link>> links_;
  std::unordered_map<int64_t, Placement> placements_;
  metrics::Tally vms_deployed_{"cluster.vms_deployed"};
  int64_t deploy_failures_ = 0;
  metrics::Tally admission_rejects_{"cluster.admission_rejects"};
  metrics::Tally migrations_{"cluster.migrations"};
  metrics::Tally node_failures_{"cluster.node_failures"};
  metrics::Tally vms_lost_{"cluster.vms_lost"};
  metrics::Tally vms_recovered_{"cluster.vms_recovered"};
  metrics::Tally vms_unrecovered_{"cluster.vms_unrecovered"};
  metrics::Tally deploy_retries_{"cluster.deploy_retries"};
  metrics::Tally deploy_replacements_{"cluster.deploy_replacements"};
  metrics::Tally invariant_failures_{"cluster.invariant_failures"};
  std::vector<double> recovery_ms_;
  bool monitor_stop_ = false;
  // VMs written off a dead node, waiting for the recovery loop to re-place
  // them. Detection (HealthLoop) only enqueues, so a second node crashing
  // while an evacuation is in flight is still detected on the next sweep.
  struct Evacuee {
    hv::DomainId domid = hv::kInvalidDomain;
    int from_node = -1;
    lv::TimePoint detected;
    toolstack::VmConfig config;
    obs::OpRef op;  // the original Deploy op (causal parent of the re-place)
  };
  std::deque<Evacuee> evac_queue_;
  // Owner-held loop frames (own-and-drain): ~Cluster signals stop and steps
  // the engine until every frame finishes, then ~Co frees them. Declared
  // last so they die before anything they reference.
  std::vector<sim::Co<void>> reboot_waiters_;
  sim::Co<void> monitor_;
  sim::Co<void> recovery_;
};

}  // namespace cluster
