// NodeApi: the VM lifecycle surface of one node — the toolstack selected by
// the Mechanisms matrix, the chaos daemon (split toolstack), the migration
// daemon, and a concurrent-job layer on top.
//
// Lifecycle operations come in two shapes:
//
//  * Synchronous coroutines (CreateVm, DestroyVm, ...): the caller awaits
//    the operation on a Dom0 execution context. These are what Host exposes
//    and what the serial benchmarks drive.
//  * Submitted jobs (SubmitCreate, SubmitDestroy, SubmitMigrate): each spawns
//    a detached coroutine and returns a SharedFuture for its result, so any
//    number of lifecycle operations can be in flight on Dom0's vCPUs at
//    once. Every job gets a node-local id that is threaded into trace track
//    names ("vm:web0#j7") and job metrics.
//
// Destructive operations (destroy / save / migrate) on one domain are
// mutually exclusive: a second such operation while one is in flight fails
// with kUnavailable instead of racing the teardown.
#pragma once

#include <memory>
#include <unordered_set>

#include "src/core/dom0.h"
#include "src/core/mechanisms.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/sim/sync.h"
#include "src/toolstack/chaos.h"
#include "src/toolstack/chaos_daemon.h"
#include "src/toolstack/migration.h"
#include "src/toolstack/xl.h"

namespace lightvm {

// Futures returned by the job layer. Copyable; await with .Get().
using CreateJob = sim::SharedFuture<lv::Result<hv::DomainId>>;
using StatusJob = sim::SharedFuture<lv::Status>;

class NodeApi {
 public:
  NodeApi(Dom0Services::Deps deps, Dom0Services* dom0, const Mechanisms& mechanisms);
  ~NodeApi();
  NodeApi(const NodeApi&) = delete;
  NodeApi& operator=(const NodeApi&) = delete;

  // --- Synchronous lifecycle -------------------------------------------------

  sim::Co<lv::Result<hv::DomainId>> CreateVm(toolstack::VmConfig config);
  // Creates and waits until the guest signals boot completion.
  sim::Co<lv::Result<hv::DomainId>> CreateAndBoot(toolstack::VmConfig config);
  sim::Co<lv::Status> DestroyVm(hv::DomainId domid);
  sim::Co<lv::Result<toolstack::Snapshot>> SaveVm(hv::DomainId domid);
  sim::Co<lv::Result<hv::DomainId>> RestoreVm(toolstack::Snapshot snap);
  // Migrates to `target` over `link`; returns the domain id on the target.
  sim::Co<lv::Result<hv::DomainId>> MigrateVm(hv::DomainId domid, NodeApi* target,
                                              xnet::Link* link);
  sim::Co<void> WaitBooted(hv::DomainId domid);

  // --- Concurrent jobs -------------------------------------------------------

  // `parent` links the job into a causal operation chain (src/obs): the
  // cluster passes its Deploy/Retire/Migrate op so the job — and everything
  // the toolstack does under it — shares the caller's flow id. Callers with
  // no chain pass nothing and the job becomes a root op.
  CreateJob SubmitCreate(toolstack::VmConfig config, bool wait_boot,
                         obs::OpRef parent = {});
  StatusJob SubmitDestroy(hv::DomainId domid, obs::OpRef parent = {});
  StatusJob SubmitMigrate(hv::DomainId domid, NodeApi* target, xnet::Link* link,
                          obs::OpRef parent = {});

  int64_t jobs_started() const { return jobs_started_.value(); }
  int64_t jobs_completed() const { return jobs_completed_.value(); }
  int64_t jobs_failed() const { return jobs_failed_.value(); }
  int64_t jobs_active() const { return jobs_started() - jobs_completed(); }

  // Fail-fast gate (Host::Crash): while false, submitted jobs complete
  // immediately with kUnavailable instead of touching the dead node.
  void set_accepting(bool accepting) { accepting_ = accepting; }
  bool accepting() const { return accepting_; }

  // Flight-recorder ring this node's events land in (the cluster assigns
  // its node index; standalone hosts stay on ring 0).
  void set_obs_node(int node) { obs_node_ = node; }
  int obs_node() const { return obs_node_; }

  // --- Shell pool (split toolstack) -----------------------------------------

  void AddShellFlavor(lv::Bytes memory, bool wants_net, int target);
  // Runs the engine until the shell pool is fully stocked.
  void PrefillShellPool();

  // --- Accessors -------------------------------------------------------------

  toolstack::Toolstack& toolstack() { return *toolstack_; }
  toolstack::ChaosDaemon* chaos_daemon() { return chaos_daemon_.get(); }
  toolstack::MigrationDaemon& migration_daemon() { return *migration_daemon_; }
  guests::Guest* guest(hv::DomainId domid) { return toolstack_->guest(domid); }
  int64_t num_vms() const { return toolstack_->num_vms(); }

  // Execution context for Dom0 work (round-robins the Dom0 cores).
  sim::ExecCtx Dom0Ctx();

 private:
  // Exclusive in-flight guard for destructive per-domain operations. Holds
  // nothing when acquisition failed.
  class VmOpGuard {
   public:
    VmOpGuard(NodeApi* api, hv::DomainId domid)
        : api_(api), domid_(domid), held_(api->inflight_.insert(domid).second) {}
    ~VmOpGuard() {
      if (held_) {
        api_->inflight_.erase(domid_);
      }
    }
    VmOpGuard(const VmOpGuard&) = delete;
    VmOpGuard& operator=(const VmOpGuard&) = delete;
    bool held() const { return held_; }

   private:
    NodeApi* api_;
    hv::DomainId domid_;
    bool held_;
  };

  sim::Co<void> RunCreateJob(int64_t job, obs::OpRef op, toolstack::VmConfig config,
                             bool wait_boot, CreateJob result);
  sim::Co<void> RunDestroyJob(int64_t job, obs::OpRef op, hv::DomainId domid,
                              StatusJob result);
  sim::Co<void> RunMigrateJob(int64_t job, obs::OpRef op, hv::DomainId domid,
                              NodeApi* target, xnet::Link* link, StatusJob result);
  int64_t StartJob();
  void FinishJob(bool ok);

  Dom0Services::Deps deps_;
  Dom0Services* dom0_;
  Mechanisms mechanisms_;
  std::unique_ptr<toolstack::ChaosDaemon> chaos_daemon_;
  std::unique_ptr<toolstack::Toolstack> toolstack_;
  std::unique_ptr<toolstack::MigrationDaemon> migration_daemon_;
  std::unordered_set<hv::DomainId> inflight_;
  bool accepting_ = true;
  int obs_node_ = 0;
  int64_t next_job_ = 0;
  metrics::Tally jobs_started_{"node.jobs.started"};
  metrics::Tally jobs_completed_{"node.jobs.completed"};
  metrics::Tally jobs_failed_{"node.jobs.failed"};
};

}  // namespace lightvm
