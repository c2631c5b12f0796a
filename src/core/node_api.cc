#include "src/core/node_api.h"

#include "src/base/log.h"
#include "src/metrics/metrics.h"
#include "src/sim/run.h"

namespace lightvm {

NodeApi::NodeApi(Dom0Services::Deps deps, Dom0Services* dom0, const Mechanisms& mechanisms)
    : deps_(deps), dom0_(dom0), mechanisms_(mechanisms) {
  toolstack::HostEnv env;
  dom0_->Populate(&env);
  env.page_sharing = mechanisms_.page_sharing;

  toolstack::Costs ts_costs;
  if (mechanisms_.toolstack == ToolstackKind::kXl) {
    toolstack_ = std::make_unique<toolstack::XlToolstack>(env, ts_costs);
  } else {
    if (mechanisms_.split) {
      chaos_daemon_ = std::make_unique<toolstack::ChaosDaemon>(env, ts_costs,
                                                               mechanisms_.noxs);
      chaos_daemon_->Start(Dom0Ctx());
    }
    toolstack_ = std::make_unique<toolstack::ChaosToolstack>(env, ts_costs,
                                                             mechanisms_.noxs,
                                                             chaos_daemon_.get());
  }
  migration_daemon_ =
      std::make_unique<toolstack::MigrationDaemon>(toolstack_.get(), Dom0Ctx());
}

NodeApi::~NodeApi() {
  if (chaos_daemon_) {
    chaos_daemon_->Stop();
  }
}

sim::ExecCtx NodeApi::Dom0Ctx() {
  sim::ExecCtx ctx{deps_.cpu, deps_.placer->NextDom0Core(), sim::kHostOwner};
  ctx.node = obs_node_;
  return ctx;
}

// --- Synchronous lifecycle ------------------------------------------------------

sim::Co<lv::Result<hv::DomainId>> NodeApi::CreateVm(toolstack::VmConfig config) {
  co_return co_await toolstack_->Create(Dom0Ctx(), std::move(config));
}

sim::Co<lv::Result<hv::DomainId>> NodeApi::CreateAndBoot(toolstack::VmConfig config) {
  auto domid = co_await toolstack_->Create(Dom0Ctx(), std::move(config));
  if (!domid.ok()) {
    co_return domid;
  }
  co_await WaitBooted(*domid);
  co_return domid;
}

sim::Co<void> NodeApi::WaitBooted(hv::DomainId domid) {
  guests::Guest* g = toolstack_->guest(domid);
  if (g != nullptr) {
    co_await g->WaitBooted();
  }
}

sim::Co<lv::Status> NodeApi::DestroyVm(hv::DomainId domid) {
  VmOpGuard guard(this, domid);
  if (!guard.held()) {
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      "concurrent lifecycle operation on domain");
  }
  co_return co_await toolstack_->Destroy(Dom0Ctx(), domid);
}

sim::Co<lv::Result<toolstack::Snapshot>> NodeApi::SaveVm(hv::DomainId domid) {
  VmOpGuard guard(this, domid);
  if (!guard.held()) {
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      "concurrent lifecycle operation on domain");
  }
  co_return co_await toolstack_->Save(Dom0Ctx(), domid);
}

sim::Co<lv::Result<hv::DomainId>> NodeApi::RestoreVm(toolstack::Snapshot snap) {
  co_return co_await toolstack_->Restore(Dom0Ctx(), std::move(snap));
}

sim::Co<lv::Result<hv::DomainId>> NodeApi::MigrateVm(hv::DomainId domid, NodeApi* target,
                                                     xnet::Link* link) {
  VmOpGuard guard(this, domid);
  if (!guard.held()) {
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      "concurrent lifecycle operation on domain");
  }
  co_return co_await toolstack::Migrate(toolstack_.get(), Dom0Ctx(), domid,
                                        &target->migration_daemon(), link);
}

// --- Concurrent jobs ------------------------------------------------------------

int64_t NodeApi::StartJob() {
  jobs_started_.Inc();
  static metrics::Gauge& active = metrics::GetGauge("node.jobs.active");
  active.Add(1.0);
  return ++next_job_;
}

void NodeApi::FinishJob(bool ok) {
  jobs_completed_.Inc();
  // Inc(0) on success keeps node.jobs.failed registered, at 0, in every run
  // that finishes a job.
  jobs_failed_.Inc(ok ? 0 : 1);
  static metrics::Gauge& active = metrics::GetGauge("node.jobs.active");
  active.Add(-1.0);
}

CreateJob NodeApi::SubmitCreate(toolstack::VmConfig config, bool wait_boot,
                                obs::OpRef parent) {
  CreateJob result(deps_.engine);
  if (!accepting_) {
    obs::FlightRecorder::Get().Record(obs_node_, obs::NewOp(parent), "node", "create",
                                      false);
    result.Set(lv::Err(lv::ErrorCode::kUnavailable, "node not accepting work"));
    return result;
  }
  int64_t job = StartJob();
  deps_.engine->Spawn(RunCreateJob(job, obs::NewOp(parent), std::move(config), wait_boot,
                                   result));
  return result;
}

StatusJob NodeApi::SubmitDestroy(hv::DomainId domid, obs::OpRef parent) {
  StatusJob result(deps_.engine);
  if (!accepting_) {
    obs::FlightRecorder::Get().Record(obs_node_, obs::NewOp(parent), "node", "destroy",
                                      false, domid);
    result.Set(lv::Err(lv::ErrorCode::kUnavailable, "node not accepting work"));
    return result;
  }
  int64_t job = StartJob();
  deps_.engine->Spawn(RunDestroyJob(job, obs::NewOp(parent), domid, result));
  return result;
}

StatusJob NodeApi::SubmitMigrate(hv::DomainId domid, NodeApi* target, xnet::Link* link,
                                 obs::OpRef parent) {
  StatusJob result(deps_.engine);
  if (!accepting_) {
    obs::FlightRecorder::Get().Record(obs_node_, obs::NewOp(parent), "node", "migrate",
                                      false, domid);
    result.Set(lv::Err(lv::ErrorCode::kUnavailable, "node not accepting work"));
    return result;
  }
  int64_t job = StartJob();
  deps_.engine->Spawn(RunMigrateJob(job, obs::NewOp(parent), domid, target, link, result));
  return result;
}

sim::Co<void> NodeApi::RunCreateJob(int64_t job, obs::OpRef op, toolstack::VmConfig config,
                                    bool wait_boot, CreateJob result) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  recorder.Record(obs_node_, op, "node", "create", true, job);
  sim::ExecCtx ctx = Dom0Ctx().WithJob(job).WithOp(op.id, op.root);
  auto domid = co_await toolstack_->Create(ctx, std::move(config));
  if (domid.ok() && wait_boot) {
    co_await WaitBooted(*domid);
  }
  recorder.Record(obs_node_, op, "node", "create.done", domid.ok(),
                  domid.ok() ? static_cast<int64_t>(*domid) : 0);
  FinishJob(domid.ok());
  result.Set(std::move(domid));
}

sim::Co<void> NodeApi::RunDestroyJob(int64_t job, obs::OpRef op, hv::DomainId domid,
                                     StatusJob result) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  recorder.Record(obs_node_, op, "node", "destroy", true, domid);
  lv::Status destroyed = lv::Status::Ok();
  {
    VmOpGuard guard(this, domid);
    if (!guard.held()) {
      destroyed = lv::Err(lv::ErrorCode::kUnavailable,
                          "concurrent lifecycle operation on domain");
    } else {
      destroyed =
          co_await toolstack_->Destroy(Dom0Ctx().WithJob(job).WithOp(op.id, op.root), domid);
    }
  }
  recorder.Record(obs_node_, op, "node", "destroy.done", destroyed.ok(), domid);
  FinishJob(destroyed.ok());
  result.Set(std::move(destroyed));
}

sim::Co<void> NodeApi::RunMigrateJob(int64_t job, obs::OpRef op, hv::DomainId domid,
                                     NodeApi* target, xnet::Link* link, StatusJob result) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  recorder.Record(obs_node_, op, "node", "migrate", true, domid);
  lv::Status status = lv::Status::Ok();
  {
    VmOpGuard guard(this, domid);
    if (!guard.held()) {
      status = lv::Err(lv::ErrorCode::kUnavailable,
                       "concurrent lifecycle operation on domain");
    } else {
      auto moved = co_await toolstack::Migrate(toolstack_.get(),
                                               Dom0Ctx().WithJob(job).WithOp(op.id, op.root),
                                               domid, &target->migration_daemon(), link);
      if (!moved.ok()) {
        status = lv::Err(moved.error().code, moved.error().message);
      }
    }
  }
  recorder.Record(obs_node_, op, "node", "migrate.done", status.ok(), domid);
  FinishJob(status.ok());
  result.Set(std::move(status));
}

// --- Shell pool -----------------------------------------------------------------

void NodeApi::AddShellFlavor(lv::Bytes memory, bool wants_net, int target) {
  if (chaos_daemon_) {
    chaos_daemon_->AddFlavor(toolstack::ChaosDaemon::Flavor{memory, wants_net, target});
  }
}

void NodeApi::PrefillShellPool() {
  if (!chaos_daemon_) {
    return;
  }
  int64_t target = 0;
  for (const toolstack::ChaosDaemon::Flavor& f : chaos_daemon_->flavors()) {
    target += f.target;
  }
  bool stocked = sim::RunUntilCondition(
      *deps_.engine, [&] { return chaos_daemon_->pool_size() >= target; },
      lv::Duration::Seconds(60));
  if (!stocked) {
    LV_WARN("node", "shell pool not fully stocked (%lld/%lld)",
            (long long)chaos_daemon_->pool_size(), (long long)target);
  }
}

}  // namespace lightvm
