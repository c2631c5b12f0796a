#include "src/toolstack/chaos.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace toolstack {

namespace {
constexpr const char* kMod = "chaos";
}  // namespace

ChaosToolstack::ChaosToolstack(HostEnv env, Costs costs, bool use_noxs, ChaosDaemon* daemon)
    : Toolstack(std::move(env), costs, "chaos", costs.chaos_state_keeping),
      use_noxs_(use_noxs),
      daemon_(daemon) {
  if (!use_noxs_) {
    LV_CHECK_MSG(env_.store != nullptr, "chaos [XS] requires the XenStore");
    client_ = std::make_unique<xs::XsClient>(env_.engine, env_.store, hv::kDom0);
  }
}

ChaosToolstack::~ChaosToolstack() = default;

const char* ChaosToolstack::name() const {
  if (use_noxs_) {
    return split() ? "chaos [NoXS+split] (LightVM)" : "chaos [NoXS]";
  }
  return split() ? "chaos [XS+split]" : "chaos [XS]";
}

sim::Co<lv::Result<Shell>> ChaosToolstack::ObtainShell(sim::ExecCtx ctx,
                                                       const VmConfig& config) {
  if (daemon_ != nullptr) {
    std::optional<Shell> pooled = daemon_->TryTake(config.image.memory,
                                                   config.image.wants_net);
    if (pooled.has_value()) {
      static metrics::Counter& hits = metrics::GetCounter("toolstack.chaos.shell_pool_hits");
      hits.Inc();
      co_return *pooled;
    }
    // Pool miss: fall back to inline preparation (and let the daemon refill).
    static metrics::Counter& misses = metrics::GetCounter("toolstack.chaos.shell_pool_misses");
    misses.Inc();
  }
  co_return co_await PrepareShell(env_, ctx, config.image.memory, config.image.wants_net,
                                  use_noxs_, client_.get());
}

sim::Co<lv::Status> ChaosToolstack::ExecutePhase(sim::ExecCtx ctx, Shell& shell,
                                                 const VmConfig& config, lv::Bytes payload,
                                                 bool is_restore, CreateBreakdown& bd) {
  lv::TimePoint t0 = env_.engine->now();
  trace::Span phase(ctx.track, "create.devices");
  // Device initialization.
  if (use_noxs_) {
    if (shell.net_info.has_value()) {
      (void)co_await env_.hv->DevicePageWrite(ctx, hv::kDom0, shell.domid, *shell.net_info);
    }
    if (shell.sysctl_info.has_value()) {
      (void)co_await env_.hv->DevicePageWrite(ctx, hv::kDom0, shell.domid,
                                              *shell.sysctl_info);
    }
  } else {
    // chaos [XS]: a handful of store records (name with uniqueness check +
    // the minimal guest records), plus the device entries if the shell did
    // not pre-create them.
    lv::Status name_ok = co_await client_->WriteUniqueName(ctx, shell.domid, config.name);
    if (!name_ok.ok()) {
      co_return name_ok;
    }
    std::string base = lv::StrFormat("/local/domain/%lld", (long long)shell.domid);
    lv::Status records = co_await xs::RunTransaction(
        ctx, client_.get(), /*max_retries=*/8, [&](xs::TxnId txn) -> sim::Co<lv::Status> {
          static const char* kRecords[] = {"/vm", "/memory/target", "/console/ring-ref",
                                           "/control/shutdown", "/domid", "/image/kernel"};
          int written = 0;
          for (const char* rec : kRecords) {
            if (written >= costs_.chaos_xenstore_records) {
              break;
            }
            lv::Status s = co_await client_->Write(ctx, base + rec, "x", txn);
            if (!s.ok()) {
              co_return s;
            }
            ++written;
          }
          co_return lv::Status::Ok();
        });
    if (!records.ok()) {
      co_return records;
    }
    if (config.image.wants_net && !shell.xs_devices_precreated &&
        env_.netback != nullptr) {
      lv::Status s = co_await env_.netback->XsToolstackCreate(ctx, client_.get(),
                                                              shell.domid, nullptr);
      if (!s.ok()) {
        co_return s;
      }
      shell.xs_devices_precreated = true;
    }
  }
  phase.End();
  bd.devices += env_.engine->now() - t0;

  // Image build: parse + load the kernel (or the restore stream).
  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.load");
  if (!is_restore) {
    co_await ctx.Work(costs_.image_parse_per_page *
                      static_cast<double>(lv::PagesFor(payload)));
  } else {
    co_await ctx.Work(costs_.snapshot_file_overhead);
  }
  (void)co_await env_.hv->CopyToDomain(ctx, shell.domid, payload);
  phase.End();
  bd.load += env_.engine->now() - t0;
  co_return lv::Status::Ok();
}

sim::Co<lv::Result<hv::DomainId>> ChaosToolstack::BuildDomain(sim::ExecCtx ctx,
                                                              const VmConfig& config,
                                                              CreateBreakdown& bd) {
  const obs::OpRef op{ctx.op, ctx.op_root, 0};
  lv::TimePoint t0 = env_.engine->now();
  trace::Span phase(ctx.track, "create.config");
  co_await ctx.Work(costs_.chaos_config_parse);
  phase.End();
  bd.config = env_.engine->now() - t0;

  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.toolstack");
  co_await ctx.Work(costs_.chaos_state_keeping);
  phase.End();
  bd.toolstack = env_.engine->now() - t0;

  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.hypervisor");
  auto shell = co_await ObtainShell(ctx, config);
  phase.End();
  bd.hypervisor = env_.engine->now() - t0;
  if (!shell.ok()) {
    co_return shell.error();
  }
  // Fault checkpoint (post-shell): a node that died while the shell was being
  // prepared aborts here, rolling the domain back through the same path a
  // failed device phase takes.
  if (env_.faults != nullptr && env_.faults->node_crashed) {
    // A pooled shell arrives with its devices pre-attached (that is the
    // point of the split toolstack), so the rollback must close them too.
    (void)co_await DestroyDevices(ctx, shell->domid, config);
    (void)co_await env_.hv->DomainDestroy(ctx, shell->domid);
    obs::FlightRecorder::Get().Record(ctx.node, op, "toolstack", "vm.rollback", false,
                                      shell->domid);
    co_return lv::Err(lv::ErrorCode::kUnavailable, "node crashed during create");
  }

  lv::Status exec = co_await ExecutePhase(ctx, *shell, config, config.image.kernel_size,
                                          /*is_restore=*/false, bd);
  if (exec.ok() && env_.faults != nullptr && env_.faults->node_crashed) {
    // Fault checkpoint (pre-boot): abort before the guest exists.
    exec = lv::Err(lv::ErrorCode::kUnavailable, "node crashed during create");
  }
  if (!exec.ok()) {
    // ExecutePhase may have attached devices (event channels, backend state)
    // before the abort; tear them down like a regular destroy would, or the
    // leak invariant trips on the next sweep.
    (void)co_await DestroyDevices(ctx, shell->domid, config);
    (void)co_await env_.hv->DomainDestroy(ctx, shell->domid);
    obs::FlightRecorder::Get().Record(ctx.node, op, "toolstack", "vm.rollback", false,
                                      shell->domid);
    co_return exec.error();
  }
  trace::Span boot(ctx.track, "create.boot");
  co_await InstallGuest(ctx, shell->domid, config, shell->core, /*use_store=*/!use_noxs_,
                        /*resume=*/false);
  boot.End();
  LV_DEBUG(kMod, "created dom%lld (%s)", (long long)shell->domid, config.name.c_str());
  co_return shell->domid;
}

sim::Co<lv::Status> ChaosToolstack::DestroyDevices(sim::ExecCtx ctx, hv::DomainId domid,
                                                   const VmConfig& config) {
  if (use_noxs_) {
    if (config.image.wants_net && env_.netback != nullptr &&
        env_.netback->HasDevice(domid)) {
      (void)co_await env_.netback->NoxsDestroy(ctx, domid);
    }
    if (env_.sysctl != nullptr && env_.sysctl->HasDevice(domid)) {
      (void)co_await env_.sysctl->Destroy(ctx, domid);
    }
  } else {
    if (config.image.wants_net && env_.netback != nullptr &&
        env_.netback->HasDevice(domid)) {
      (void)co_await env_.netback->XsToolstackDestroy(ctx, client_.get(), domid, nullptr);
    }
    (void)co_await client_->Rm(ctx, lv::StrFormat("/local/domain/%lld", (long long)domid));
  }
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> ChaosToolstack::SuspendForMigration(sim::ExecCtx ctx,
                                                        hv::DomainId domid) {
  if (use_noxs_) {
    LV_CHECK_MSG(env_.sysctl != nullptr, "noxs suspend requires the sysctl device");
    co_return co_await env_.sysctl->RequestShutdown(ctx, domid,
                                                    hv::ShutdownReason::kSuspend);
  }
  co_return co_await XsSuspend(ctx, client_.get(), domid);
}

sim::Co<lv::Result<hv::DomainId>> ChaosToolstack::PrepareIncoming(sim::ExecCtx ctx,
                                                                  VmConfig config) {
  trace::Span span(ctx.track, "vm.prepare_incoming");
  co_await ctx.Work(costs_.chaos_config_parse);
  auto shell = co_await ObtainShell(ctx, config);
  if (!shell.ok()) {
    co_return shell.error();
  }
  // Record the pending shell; FinishIncoming completes it.
  pending_incoming_.TryEmplace(shell->domid, *shell);
  co_return shell->domid;
}

sim::Co<lv::Status> ChaosToolstack::FinishIncoming(sim::ExecCtx ctx, hv::DomainId domid,
                                                   const Snapshot& snap) {
  trace::Span span(ctx.track, "vm.finish_incoming");
  const Shell* pending = pending_incoming_.Find(domid);
  if (pending == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no pending incoming domain");
  }
  Shell shell = *pending;
  pending_incoming_.Erase(domid);
  // Restores accumulate onto the previous breakdown (matching the historical
  // behavior of writing into the member directly).
  CreateBreakdown bd = breakdown_;
  lv::Status exec = co_await ExecutePhase(ctx, shell, snap.config, snap.memory,
                                          /*is_restore=*/true, bd);
  breakdown_ = bd;
  if (!exec.ok()) {
    co_return exec;
  }
  trace::Span boot(ctx.track, "create.boot");
  co_await InstallGuest(ctx, shell.domid, snap.config, shell.core, /*use_store=*/!use_noxs_,
                        /*resume=*/true);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> ChaosToolstack::TeardownAfterMigration(sim::ExecCtx ctx,
                                                           hv::DomainId domid) {
  const VmConfig* tracked = config_of(domid);
  if (tracked == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM");
  }
  (void)co_await DestroyDevices(ctx, domid, *tracked);
  lv::Status destroyed = co_await env_.hv->DomainDestroy(ctx, domid);
  UntrackVm(domid);
  co_return destroyed;
}

}  // namespace toolstack
