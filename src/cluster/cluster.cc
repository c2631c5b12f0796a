#include "src/cluster/cluster.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/log.h"
#include "src/core/verify.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace cluster {

namespace {

constexpr const char* kMod = "cluster";

}  // namespace

Cluster::Cluster(sim::Engine* engine, ClusterSpec spec,
                 std::unique_ptr<PlacementPolicy> policy)
    : engine_(engine), spec_(spec), policy_(std::move(policy)) {
  LV_CHECK_MSG(spec_.num_nodes > 0, "cluster needs at least one node");
  LV_CHECK_MSG(policy_ != nullptr, "cluster needs a placement policy");
  if (spec_.memory_budget == lv::Bytes()) {
    spec_.memory_budget = spec_.node.memory - spec_.node.dom0_memory;
  }
  if (spec_.vcpu_budget == 0) {
    int64_t guest_cores = spec_.node.cores - spec_.node.dom0_cores;
    spec_.vcpu_budget = spec_.vcpu_overcommit * guest_cores;
  }
  nodes_.resize(spec_.num_nodes);
  for (int i = 0; i < spec_.num_nodes; ++i) {
    nodes_[i].host =
        std::make_unique<lightvm::Host>(engine_, spec_.node, spec_.mechanisms);
    nodes_[i].host->set_obs_node(i);
  }
}

Cluster::~Cluster() {
  // Own-and-drain: the monitor and any reboot waiters may be parked in a
  // sleep or mid-evacuation; step the engine until every frame runs to its
  // stop check, then ~Co frees them with nothing else referencing them.
  monitor_stop_ = true;
  auto pending = [this] {
    if (monitor_.valid() && !monitor_.done()) {
      return true;
    }
    if (recovery_.valid() && !recovery_.done()) {
      return true;
    }
    for (const sim::Co<void>& waiter : reboot_waiters_) {
      if (waiter.valid() && !waiter.done()) {
        return true;
      }
    }
    return false;
  };
  while (pending() && engine_->Step()) {
  }
}

xnet::Link* Cluster::link(int a, int b) {
  LV_CHECK_MSG(a != b, "no self-link");
  if (a > b) {
    std::swap(a, b);
  }
  int64_t key = (static_cast<int64_t>(a) << 32) | static_cast<int64_t>(b);
  auto it = links_.find(key);
  if (it == links_.end()) {
    it = links_
             .emplace(key, std::make_unique<xnet::Link>(engine_, spec_.link_gbps,
                                                        spec_.link_rtt))
             .first;
  }
  return it->second.get();
}

NodeView Cluster::view(int node) const {
  const Node& n = nodes_[node];
  NodeView v;
  v.index = node;
  // A crashed host stops admitting the moment it dies, even before the
  // health monitor's next sweep formally writes it off — otherwise every
  // deploy in the detection window re-picks the same dead (and now
  // least-loaded, since its budget is being released) node twice and fails.
  v.alive = n.alive && !n.host->crashed();
  v.memory_budget = spec_.memory_budget;
  v.memory_committed = n.memory_committed;
  v.vcpu_budget = spec_.vcpu_budget;
  v.vcpus_committed = n.vcpus_committed;
  v.vms = n.host->num_vms();
  v.active_creates = n.active_creates;
  return v;
}

std::vector<NodeView> Cluster::views() const {
  std::vector<NodeView> out;
  out.reserve(nodes_.size());
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    out.push_back(view(i));
  }
  return out;
}

int64_t Cluster::total_vms() const {
  int64_t total = 0;
  for (const Node& node : nodes_) {
    total += node.host->num_vms();
  }
  return total;
}

sim::Co<lv::Result<VmHandle>> Cluster::Deploy(toolstack::VmConfig config,
                                              bool wait_boot, obs::OpRef parent) {
  obs::OpRef op = obs::NewOp(parent);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  trace::Tracer::Get().Flow(trace::kHostTrack, "cluster.deploy", op.root);
  // One re-placement is allowed when the chosen node dies under the deploy:
  // the reservation is released (generation-guarded) and placement runs
  // again over the survivors instead of leaking the budget or failing with
  // a raw node error.
  for (int placement_round = 0;; ++placement_round) {
    int pick = policy_->Pick(views(), config);
    if (pick < 0) {
      admission_rejects_.Inc();
      ++deploy_failures_;
      recorder.Record(0, op, "cluster", "deploy.reject", false);
      co_return lv::Err(lv::ErrorCode::kUnavailable, "no node admits the VM");
    }
    // Commit the budget before the first suspension point: a concurrent
    // Deploy sees this VM's reservation even though the create is in flight.
    Node& node = nodes_[pick];
    Placement placement{config.image.memory, config.vcpus, config, op};
    const int64_t gen = node.generation;
    recorder.Record(pick, op, "cluster", "deploy", true, placement_round);
    node.memory_committed += placement.memory;
    node.vcpus_committed += placement.vcpus;
    ++node.active_creates;

    lv::Result<hv::DomainId> created =
        lv::Err(lv::ErrorCode::kUnavailable, "create not attempted");
    lv::Duration backoff = spec_.retry_backoff;
    for (int attempt = 0; attempt < std::max(1, spec_.create_retries); ++attempt) {
      if (attempt > 0) {
        deploy_retries_.Inc();
        co_await engine_->Sleep(backoff);
        backoff = backoff * 2.0;
        if (node.generation != gen || node.host->crashed()) {
          break;  // the node died while backing off
        }
      }
      created = co_await node.host->node().SubmitCreate(config, wait_boot, op).Get();
      if (created.ok()) {
        break;
      }
      // Retry only transient toolstack errors on a node that is still up;
      // anything else (bad config, out of memory, dead node) is final.
      if (created.error().code != lv::ErrorCode::kUnavailable ||
          node.generation != gen || node.host->crashed()) {
        break;
      }
    }

    const bool node_current = node.generation == gen;
    if (node_current) {
      --node.active_creates;
    }
    if (created.ok() && node_current && !node.host->crashed()) {
      VmHandle handle{pick, *created};
      placements_[Key(handle)] = std::move(placement);
      vms_deployed_.Inc();
      recorder.Record(pick, op, "cluster", "deploy.done", true, *created);
      trace::Tracer::Get().Flow(trace::kHostTrack, "cluster.deploy.done", op.root);
      co_return handle;
    }
    // Failed — or succeeded onto a node that crashed meanwhile, whose settle
    // pass is tearing the VM down again. Release the reservation unless the
    // health monitor already wrote the whole node off.
    if (node_current) {
      node.memory_committed -= placement.memory;
      node.vcpus_committed -= placement.vcpus;
    }
    const bool node_lost = !node_current || node.host->crashed();
    if (node_lost && placement_round == 0) {
      deploy_replacements_.Inc();
      recorder.Record(pick, op, "cluster", "deploy.replace", false);
      continue;
    }
    ++deploy_failures_;
    if (node_lost) {
      // Typed double failure: both the original node and the re-placed one
      // died under this deploy. Leave a post-mortem if a dump path is set.
      recorder.Record(pick, op, "cluster", "deploy.dead", false);
      recorder.MaybeDump();
      co_return lv::Err(lv::ErrorCode::kUnavailable,
                        "target node died during deploy");
    }
    recorder.Record(pick, op, "cluster", "deploy.fail", false);
    co_return created.error();
  }
}

sim::Co<lv::Status> Cluster::Retire(VmHandle handle, obs::OpRef parent) {
  if (handle.node < 0 || handle.node >= spec_.num_nodes) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument, "bad node index");
  }
  auto it = placements_.find(Key(handle));
  if (it == placements_.end()) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM handle");
  }
  obs::OpRef op = obs::NewOp(parent);
  obs::FlightRecorder::Get().Record(handle.node, op, "cluster", "retire", true,
                                    handle.domid);
  trace::Tracer::Get().Flow(trace::kHostTrack, "cluster.retire", op.root);
  // Claim the placement before the first suspension point, so a concurrent
  // evacuation of a dying node cannot resurrect a VM its owner is retiring.
  Placement placement = std::move(it->second);
  placements_.erase(it);
  Node& node = nodes_[handle.node];
  const int64_t gen = node.generation;
  lv::Status destroyed =
      co_await node.host->node().SubmitDestroy(handle.domid, op).Get();
  if (node.generation != gen) {
    // The node died under the destroy: its state (and this VM) is gone and
    // its budgets were written off wholesale. The VM no longer runs, which
    // is what the caller asked for.
    co_return lv::Status::Ok();
  }
  if (!destroyed.ok()) {
    // Still owned by the node (e.g. a concurrent destructive op held the
    // exclusion); hand the placement back.
    placements_[Key(handle)] = std::move(placement);
    co_return destroyed;
  }
  node.memory_committed -= placement.memory;
  node.vcpus_committed -= placement.vcpus;
  co_return lv::Status::Ok();
}

sim::Co<lv::Result<VmHandle>> Cluster::Migrate(VmHandle handle, int target_node,
                                               obs::OpRef parent) {
  if (handle.node < 0 || handle.node >= spec_.num_nodes || target_node < 0 ||
      target_node >= spec_.num_nodes) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument, "bad node index");
  }
  if (target_node == handle.node) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument, "VM already on target node");
  }
  auto it = placements_.find(Key(handle));
  if (it == placements_.end()) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM handle");
  }
  Placement placement = it->second;
  Node& src = nodes_[handle.node];
  Node& dst = nodes_[target_node];
  // Admission on the target, committed up front like Deploy. The source
  // keeps its commitment until the migration succeeds (the guest occupies
  // both nodes while its memory streams). A crashed target is refused even
  // before the health monitor writes it off: its settle pass would reap the
  // arriving copy after the source copy is already gone.
  const bool target_down = !view(target_node).alive;
  if (target_down || dst.memory_committed + placement.memory > spec_.memory_budget ||
      dst.vcpus_committed + placement.vcpus > spec_.vcpu_budget) {
    admission_rejects_.Inc();
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      target_down ? "target node is down" : "target node over budget");
  }
  obs::OpRef op = obs::NewOp(parent);
  obs::FlightRecorder::Get().Record(handle.node, op, "cluster", "migrate", true,
                                    handle.domid);
  trace::Tracer::Get().Flow(trace::kHostTrack, "cluster.migrate", op.root);
  const int64_t src_gen = src.generation;
  const int64_t dst_gen = dst.generation;
  dst.memory_committed += placement.memory;
  dst.vcpus_committed += placement.vcpus;

  lv::Result<hv::DomainId> moved = co_await src.host->node().MigrateVm(
      handle.domid, &dst.host->node(), link(handle.node, target_node));

  if (!moved.ok()) {
    if (dst.generation == dst_gen) {
      dst.memory_committed -= placement.memory;
      dst.vcpus_committed -= placement.vcpus;
    }
    co_return moved.error();
  }
  if (placements_.find(Key(handle)) == placements_.end()) {
    // The source died mid-migration and the health monitor already evacuated
    // this VM to a fresh home; the migrated copy is a duplicate. Retire it
    // and report the migration as failed.
    (void)co_await dst.host->node().SubmitDestroy(*moved).Get();
    if (dst.generation == dst_gen) {
      dst.memory_committed -= placement.memory;
      dst.vcpus_committed -= placement.vcpus;
    }
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      "VM was evacuated while migrating");
  }
  placements_.erase(Key(handle));
  if (src.generation == src_gen) {
    src.memory_committed -= placement.memory;
    src.vcpus_committed -= placement.vcpus;
  }
  if (dst.generation != dst_gen) {
    // The target died while the guest streamed; its settle pass reaps the
    // arrived copy and its budgets were written off.
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      "target node died during migration");
  }
  VmHandle out{target_node, *moved};
  placement.op = op;  // the migrated VM now belongs to the migrate chain
  placements_[Key(out)] = std::move(placement);
  migrations_.Inc();
  obs::FlightRecorder::Get().Record(target_node, op, "cluster", "migrate.done",
                                    true, *moved);
  trace::Tracer::Get().Flow(trace::kHostTrack, "cluster.migrate.done", op.root);
  co_return out;
}

// --- Self-healing -----------------------------------------------------------

void Cluster::StartHealthMonitor() {
  if (monitor_.valid()) {
    return;
  }
  monitor_ = HealthLoop();
  monitor_.Start();
  recovery_ = RecoveryLoop();
  recovery_.Start();
}

void Cluster::CrashNode(int node) { nodes_[node].host->Crash(); }

void Cluster::RequestReboot(int node) {
  reboot_waiters_.push_back(RebootWhenSettled(node));
  reboot_waiters_.back().Start();
}

sim::Co<void> Cluster::RebootWhenSettled(int node) {
  lightvm::Host* host = nodes_[node].host.get();
  // Reboot only after the crash settled AND (when a monitor runs) after the
  // monitor wrote the node off. A reboot sneaking in between two sweeps
  // would make the crash invisible — the node looks healthy again while the
  // VMs its settle pass destroyed are still on the books.
  auto ready = [&] {
    if (!host->crashed()) {
      return true;  // spurious request, nothing to reboot
    }
    if (!host->crash_settled()) {
      return false;
    }
    return !monitor_.valid() || !nodes_[node].alive;
  };
  while (!monitor_stop_ && !ready()) {
    co_await engine_->Sleep(lv::Duration::Millis(1));
  }
  if (monitor_stop_ || !host->crashed()) {
    co_return;
  }
  host->Reboot();
  LV_DEBUG(kMod, "node %d rebooted", node);
}

std::vector<std::pair<hv::DomainId, Cluster::Placement>> Cluster::WriteOffNode(
    int node) {
  Node& n = nodes_[node];
  ++n.generation;
  n.alive = false;
  n.memory_committed = lv::Bytes();
  n.vcpus_committed = 0;
  n.active_creates = 0;
  std::vector<std::pair<hv::DomainId, Placement>> lost;
  for (auto it = placements_.begin(); it != placements_.end();) {
    if (static_cast<int>(it->first >> 32) == node) {
      lost.emplace_back(static_cast<hv::DomainId>(it->first & 0xffffffffll),
                        std::move(it->second));
      it = placements_.erase(it);
    } else {
      ++it;
    }
  }
  // Deterministic evacuation order regardless of hash-map iteration.
  std::sort(lost.begin(), lost.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return lost;
}

void Cluster::CheckInvariants() {
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    Node& node = nodes_[i];
    if (node.memory_committed > spec_.memory_budget ||
        node.vcpus_committed > spec_.vcpu_budget ||
        node.memory_committed < lv::Bytes() || node.vcpus_committed < 0) {
      invariant_failures_.Inc();
      obs::FlightRecorder::Get().Record(i, {}, "cluster", "invariant.budget", false);
      obs::FlightRecorder::Get().MaybeDump();
      LV_ERROR(kMod, "node %d admission out of bounds: mem=%lld vcpus=%lld", i,
               (long long)node.memory_committed.count(),
               (long long)node.vcpus_committed);
    }
    // Leak invariants are only meaningful when the node is not mid-operation
    // (destroys pass domains through transient states) and, after a crash,
    // once the settle pass finished tearing its state down.
    lightvm::Host& host = *node.host;
    if (host.node().jobs_active() == 0 && (!host.crashed() || host.crash_settled())) {
      lv::Status ok = lightvm::VerifyNoLeakedResources(host);
      if (!ok.ok()) {
        invariant_failures_.Inc();
        LV_ERROR(kMod, "node %d leak invariant violated: %s", i,
                 ok.error().message.c_str());
      }
    }
  }
}

sim::Co<void> Cluster::HealthLoop() {
  // Detection only: write dead nodes off and queue their VMs for the
  // recovery loop. The sweep itself never blocks on a redeploy, so a second
  // node crashing during an evacuation is still detected one period later.
  while (!monitor_stop_) {
    for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
      Node& node = nodes_[i];
      if (node.alive && node.host->crashed()) {
        node_failures_.Inc();
        auto lost = WriteOffNode(i);
        vms_lost_.Inc(static_cast<int64_t>(lost.size()));
        lv::TimePoint detected = engine_->now();
        obs::FlightRecorder::Get().Record(i, {}, "cluster", "node.dead", false,
                                          static_cast<int64_t>(lost.size()));
        LV_INFO(kMod, "node %d dead, evacuating %lld VMs", i,
                (long long)lost.size());
        for (auto& [domid, placement] : lost) {
          evac_queue_.push_back(
              Evacuee{domid, i, detected, std::move(placement.config), placement.op});
        }
      } else if (!node.alive && !node.host->crashed()) {
        // The node rebooted (empty); hand it back to the placement policy.
        node.alive = true;
        obs::FlightRecorder::Get().Record(i, {}, "cluster", "node.readmit", true);
        LV_INFO(kMod, "node %d back in service", i);
      }
    }
    CheckInvariants();
    co_await engine_->Sleep(spec_.health_period);
  }
}

sim::Co<void> Cluster::RecoveryLoop() {
  // Drains the evacuation queue one VM at a time. The VM's state died with
  // its node, so evacuation is a fresh placement of the stored config (not a
  // migration), budget-accounted through the regular Deploy path.
  while (!monitor_stop_) {
    if (evac_queue_.empty()) {
      co_await engine_->Sleep(spec_.health_period);
      continue;
    }
    Evacuee ev = std::move(evac_queue_.front());
    evac_queue_.pop_front();
    // Re-deploy under the original Deploy op: the evacuation joins the
    // flow of the operation that placed the VM in the first place.
    obs::FlightRecorder::Get().Record(ev.from_node, ev.op, "cluster", "evacuate",
                                      true, ev.domid);
    auto replaced = co_await Deploy(ev.config, /*wait_boot=*/true, ev.op);
    if (replaced.ok()) {
      vms_recovered_.Inc();
      recovery_ms_.push_back((engine_->now() - ev.detected).ms());
      static metrics::Histogram& recovery =
          metrics::GetHistogram("cluster.recovery_ms", "ms");
      recovery.RecordDuration(engine_->now() - ev.detected);
    } else {
      vms_unrecovered_.Inc();
      LV_WARN(kMod, "evacuation of dom%lld from node %d failed: %s",
              (long long)ev.domid, ev.from_node, replaced.error().message.c_str());
    }
  }
}

Cluster::Drift Cluster::AdmissionDrift() const {
  std::vector<lv::Bytes> memory(nodes_.size());
  std::vector<int64_t> vcpus(nodes_.size(), 0);
  for (const auto& [key, placement] : placements_) {
    size_t node = static_cast<size_t>(key >> 32);
    memory[node] += placement.memory;
    vcpus[node] += placement.vcpus;
  }
  Drift drift;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    lv::Bytes mem_diff = nodes_[i].memory_committed > memory[i]
                             ? nodes_[i].memory_committed - memory[i]
                             : memory[i] - nodes_[i].memory_committed;
    int64_t vcpu_diff = std::abs(nodes_[i].vcpus_committed - vcpus[i]);
    drift.memory = std::max(drift.memory, mem_diff);
    drift.vcpus = std::max(drift.vcpus, vcpu_diff);
  }
  return drift;
}

}  // namespace cluster
