#include "src/toolstack/toolstack.h"

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace toolstack {

namespace {
// Share of a guest's memory that page sharing maps from its flavor's pool.
constexpr double kPageSharingFraction = 0.75;
}  // namespace

sim::Co<lv::Result<Reservation>> ReserveDomain(HostEnv& env, sim::ExecCtx ctx,
                                               lv::Bytes memory, int vcpus,
                                               bool share_pages) {
  auto domid = co_await env.hv->DomainCreate(ctx);
  if (!domid.ok()) {
    co_return domid.error();
  }
  Reservation reserved{*domid, env.placer->NextGuestCore()};
  (void)co_await env.hv->DomainSetMaxMem(ctx, reserved.domid, memory);
  // Note: braced-init-list arguments inside co_await trip GCC 12 (PR105426).
  std::vector<int> cores(vcpus, reserved.core);
  (void)co_await env.hv->VcpuInit(ctx, reserved.domid, std::move(cores));
  lv::Status mem = lv::Status::Ok();
  if (share_pages) {
    std::string key = lv::StrFormat("flavor-%lld", (long long)memory.count());
    mem = co_await env.hv->PopulatePhysmapShared(ctx, reserved.domid, memory, key,
                                                 kPageSharingFraction);
  } else {
    mem = co_await env.hv->PopulatePhysmap(ctx, reserved.domid, memory);
  }
  if (!mem.ok()) {
    (void)co_await env.hv->DomainDestroy(ctx, reserved.domid);
    co_return mem.error();
  }
  co_return reserved;
}

sim::Co<lv::Result<hv::DomainId>> Toolstack::Create(sim::ExecCtx ctx, VmConfig config) {
  // Accumulated locally and committed to breakdown_ at every exit so that
  // overlapping creations (concurrent jobs) do not clobber each other
  // mid-flight; last_breakdown() reports the last creation to finish.
  CreateBreakdown bd;
  // Each creation gets its own trace row; every span below (and every
  // hypercall/store span further down the call chain) records onto it, so
  // the Fig. 5 phase breakdown is derivable from the trace alone. Async
  // jobs get the job id in the row name so overlapping creations of the
  // same VM name stay distinguishable.
  trace::Tracer& tracer = trace::Tracer::Get();
  if (tracer.enabled()) {
    std::string row = ctx.job != 0
                          ? lv::StrFormat("vm:%s#j%lld", config.name.c_str(),
                                          (long long)ctx.job)
                          : lv::StrFormat("vm:%s", config.name.c_str());
    ctx = ctx.OnTrack(tracer.NewTrack(row));
  }
  trace::Span create_span(ctx.track, "vm.create");
  // Join the caller's causal flow (cluster Deploy, NodeApi job): this
  // create's row becomes one step of the operation's arc.
  tracer.Flow(ctx.track, "vm.create", ctx.op_root);
  // Fault checkpoint (entry): injected transient faults and node death are
  // taken before any state is built, so there is nothing to roll back.
  if (env_.faults != nullptr && env_.faults->ShouldFailCreate()) {
    obs::FlightRecorder::Get().Record(ctx.node, obs::OpRef{ctx.op, ctx.op_root, 0},
                                      "toolstack", "vm.create.fault", false);
    co_return lv::Err(lv::ErrorCode::kUnavailable,
                      env_.faults->node_crashed ? "node crashed"
                                                : "injected transient create fault");
  }
  lv::TimePoint create_start = env_.engine->now();
  lv::Result<hv::DomainId> domid = co_await BuildDomain(ctx, config, bd);
  breakdown_ = bd;
  if (domid.ok()) {
    RecordLatency(create_ms_, "create", create_start);
  }
  co_return domid;
}

sim::Co<lv::Status> Toolstack::Destroy(sim::ExecCtx ctx, hv::DomainId domid) {
  trace::Span span(ctx.track, "vm.destroy");
  trace::Tracer::Get().Flow(ctx.track, "vm.destroy", ctx.op_root);
  if (!vms_.Contains(domid)) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM");
  }
  co_await ctx.Work(state_keeping_);
  // Look the VM up again: while the work ran, a concurrent teardown may have
  // removed it.
  guests::Guest* stopping = guest(domid);
  if (stopping == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM");
  }
  stopping->Stop();
  co_return co_await TeardownAfterMigration(ctx, domid);
}

sim::Co<lv::Result<Snapshot>> Toolstack::Save(sim::ExecCtx ctx, hv::DomainId domid) {
  trace::Span span(ctx.track, "vm.save");
  lv::TimePoint save_start = env_.engine->now();
  const VmConfig* tracked = config_of(domid);
  if (tracked == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM");
  }
  VmConfig config = *tracked;
  co_await ctx.Work(state_keeping_);
  lv::Status suspended = co_await SuspendForMigration(ctx, domid);
  if (!suspended.ok()) {
    co_return suspended.error();
  }
  // libxc streams the guest memory to the save file.
  co_await ctx.Work(costs_.snapshot_file_overhead);
  (void)co_await env_.hv->CopyFromDomain(ctx, domid, config.image.memory);
  (void)co_await TeardownAfterMigration(ctx, domid);
  RecordLatency(save_ms_, "save", save_start);
  lv::Bytes memory = config.image.memory;
  co_return Snapshot{std::move(config), memory};
}

sim::Co<lv::Result<hv::DomainId>> Toolstack::Restore(sim::ExecCtx ctx, Snapshot snap) {
  trace::Span span(ctx.track, "vm.restore");
  lv::TimePoint restore_start = env_.engine->now();
  auto domid = co_await PrepareIncoming(ctx, snap.config);
  if (!domid.ok()) {
    co_return domid;
  }
  lv::Status finished = co_await FinishIncoming(ctx, *domid, snap);
  if (!finished.ok()) {
    co_return finished.error();
  }
  RecordLatency(restore_ms_, "restore", restore_start);
  co_return *domid;
}

sim::Co<lv::Status> Toolstack::XsSuspend(sim::ExecCtx ctx, xs::XsClient* client,
                                         hv::DomainId domid) {
  std::string control =
      lv::StrFormat("/local/domain/%lld/control/shutdown", (long long)domid);
  lv::Status req = co_await client->Write(ctx, control, "suspend");
  if (!req.ok()) {
    co_return req;
  }
  while (true) {
    auto info = co_await env_.hv->DomainGetInfo(ctx, domid);
    if (!info.ok()) {
      co_return info.error();
    }
    if (info->state == hv::DomainState::kSuspended) {
      co_return lv::Status::Ok();
    }
    co_await env_.engine->Sleep(lv::Duration::Micros(500));
  }
}

sim::Co<void> Toolstack::InstallGuest(sim::ExecCtx ctx, hv::DomainId domid,
                                      const VmConfig& config, int core, bool use_store,
                                      bool resume) {
  VmRecord record;
  record.config = config;
  record.core = core;
  record.created_at = env_.engine->now();
  record.guest = std::make_unique<guests::Guest>(env_.engine, config.image, domid,
                                                 MakeBootEnv(core, use_store));
  record.guest->set_resume(resume);
  env_.hv->FindDomain(domid)->set_start_fn(record.guest->MakeStartFn());
  TrackVm(domid, std::move(record));
  (void)co_await env_.hv->DomainFinishBuild(ctx, domid);
  (void)co_await env_.hv->DomainUnpause(ctx, domid);
}

guests::BootEnv Toolstack::MakeBootEnv(int core, bool use_store) {
  guests::BootEnv env;
  env.cpu = env_.cpu;
  env.hv = env_.hv;
  env.store = use_store ? env_.store : nullptr;
  env.netback = env_.netback;
  env.blkback = env_.blkback;
  env.sysctl = env_.sysctl;
  env.peers_on_core = [this, core] { return PeersOnCore(core); };
  return env;
}

int64_t Toolstack::PeersOnCore(int core) const {
  auto it = core_population_.find(core);
  return it == core_population_.end() ? 0 : it->second;
}

void Toolstack::TrackVm(hv::DomainId domid, VmRecord record) {
  ++core_population_[record.core];
  vms_.TryEmplace(domid, std::move(record));
}

void Toolstack::UntrackVm(hv::DomainId domid) {
  const VmRecord* vm = vms_.Find(domid);
  if (vm == nullptr) {
    return;
  }
  auto pop = core_population_.find(vm->core);
  if (pop != core_population_.end() && pop->second > 0) {
    --pop->second;
  }
  vms_.Erase(domid);
}

void Toolstack::RecordLatency(metrics::Histogram*& histogram, const char* verb,
                              lv::TimePoint start) {
  if (histogram == nullptr) {
    histogram =
        &metrics::GetHistogram(lv::StrFormat("toolstack.%s.%s_ms", family_, verb), "ms");
  }
  histogram->RecordDuration(env_.engine->now() - start);
}

}  // namespace toolstack
