#include "src/toolstack/xl.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/trace/trace.h"

namespace toolstack {

namespace {
constexpr const char* kMod = "xl";
}  // namespace

XlToolstack::XlToolstack(HostEnv env, Costs costs)
    : Toolstack(std::move(env), costs, "xl", costs.xl_state_keeping) {
  LV_CHECK_MSG(env_.store != nullptr, "xl requires the XenStore");
  client_ = std::make_unique<xs::XsClient>(env_.engine, env_.store, hv::kDom0);
}

XlToolstack::~XlToolstack() = default;

sim::Co<lv::Status> XlToolstack::WriteGuestRecords(sim::ExecCtx ctx, hv::DomainId domid,
                                                   const VmConfig& config) {
  // The unique-name admission write (O(#domains) scan inside the store).
  lv::Status name_ok = co_await client_->WriteUniqueName(ctx, domid, config.name);
  if (!name_ok.ok()) {
    co_return name_ok;
  }
  std::string base = lv::StrFormat("/local/domain/%lld", (long long)domid);
  // Linux guests carry more store state than unikernels (balloon, vfb, rtc).
  int record_count = costs_.xl_xenstore_records;
  if (config.image.kind == guests::GuestKind::kTinyx) {
    record_count = costs_.xl_xenstore_records_tinyx;
  } else if (config.image.kind == guests::GuestKind::kDebian) {
    record_count = costs_.xl_xenstore_records_debian;
  }
  // The remaining records go through a transaction, as libxl does.
  co_return co_await xs::RunTransaction(
      ctx, client_.get(), /*max_retries=*/8, [&](xs::TxnId txn) -> sim::Co<lv::Status> {
        static const char* kRecords[] = {
            "/vm",          "/memory/target", "/memory/static-max", "/console/ring-ref",
            "/console/port", "/console/type",  "/cpu/0/availability", "/control/platform",
            "/control/shutdown", "/data",      "/device",            "/store/port",
            "/store/ring-ref",   "/image/ostype", "/image/kernel",  "/domid",
        };
        int written = 0;
        for (const char* rec : kRecords) {
          if (written >= record_count) {
            break;
          }
          lv::Status s = co_await client_->Write(ctx, base + rec, "x", txn);
          if (!s.ok()) {
            co_return s;
          }
          ++written;
        }
        // Any remainder beyond the named records (libxl writes more).
        for (; written < record_count; ++written) {
          lv::Status s =
              co_await client_->Write(ctx, base + lv::StrFormat("/extra/%d", written), "x",
                                      txn);
          if (!s.ok()) {
            co_return s;
          }
        }
        co_return lv::Status::Ok();
      });
}

sim::Co<lv::Status> XlToolstack::RemoveGuestRecords(sim::ExecCtx ctx, hv::DomainId domid) {
  std::string base = lv::StrFormat("/local/domain/%lld", (long long)domid);
  // libxl removes entries piecemeal before dropping the whole directory.
  for (int i = 0; i < costs_.xl_xenstore_teardown_records; ++i) {
    (void)co_await client_->Read(ctx, base + "/vm");
  }
  co_return co_await client_->Rm(ctx, base);
}

sim::Co<lv::Result<hv::DomainId>> XlToolstack::BuildDomain(sim::ExecCtx ctx,
                                                           const VmConfig& config,
                                                           CreateBreakdown& bd) {
  lv::TimePoint t0 = env_.engine->now();

  // --- Config parsing ----------------------------------------------------------
  trace::Span phase(ctx.track, "create.config");
  co_await ctx.Work(costs_.xl_config_parse);
  phase.End();
  bd.config = env_.engine->now() - t0;

  // --- Toolstack state keeping ---------------------------------------------------
  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.toolstack");
  co_await ctx.Work(costs_.xl_state_keeping);
  int64_t domains = co_await env_.hv->CountDomains(ctx);
  // libxl scans its own records per existing domain (name collisions,
  // /var/lib/xl state).
  co_await ctx.Work(costs_.xl_per_domain_overhead * static_cast<double>(domains));
  phase.End();
  bd.toolstack = env_.engine->now() - t0;

  // --- Hypervisor reservation ---------------------------------------------------
  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.hypervisor");
  auto reserved = co_await ReserveDomain(env_, ctx, config.image.memory, config.vcpus,
                                         /*share_pages=*/false);
  if (!reserved.ok()) {
    co_return reserved.error();
  }
  hv::DomainId domid = reserved->domid;
  phase.End();
  bd.hypervisor = env_.engine->now() - t0;

  // --- XenStore records ------------------------------------------------------------
  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.xenstore");
  lv::Status records = co_await WriteGuestRecords(ctx, domid, config);
  phase.End();
  bd.xenstore = env_.engine->now() - t0;
  if (!records.ok()) {
    (void)co_await env_.hv->DomainDestroy(ctx, domid);
    co_return records.error();
  }

  // --- Devices ----------------------------------------------------------------------
  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.devices");
  co_await ctx.Work(costs_.misc_device_setup);
  if (config.image.wants_net && env_.netback != nullptr) {
    lv::Status s = co_await env_.netback->XsToolstackCreate(ctx, client_.get(), domid,
                                                            env_.bash_hotplug);
    if (!s.ok()) {
      co_return s.error();
    }
  }
  if (config.image.wants_block && env_.blkback != nullptr) {
    lv::Status s = co_await env_.blkback->XsToolstackCreate(ctx, client_.get(), domid,
                                                            env_.bash_hotplug);
    if (!s.ok()) {
      co_return s.error();
    }
  }
  phase.End();
  bd.devices = env_.engine->now() - t0;

  // --- Image build --------------------------------------------------------------------
  t0 = env_.engine->now();
  phase = trace::Span(ctx.track, "create.load");
  int64_t image_pages = lv::PagesFor(config.image.kernel_size);
  co_await ctx.Work(costs_.image_parse_per_page * static_cast<double>(image_pages));
  (void)co_await env_.hv->CopyToDomain(ctx, domid, config.image.kernel_size);
  phase.End();
  bd.load = env_.engine->now() - t0;

  // --- Boot -------------------------------------------------------------------------
  phase = trace::Span(ctx.track, "create.boot");
  co_await InstallGuest(ctx, domid, config, reserved->core, /*use_store=*/true,
                        /*resume=*/false);
  phase.End();
  LV_DEBUG(kMod, "created dom%lld (%s)", (long long)domid, config.name.c_str());
  co_return domid;
}

sim::Co<lv::Result<hv::DomainId>> XlToolstack::PrepareIncoming(sim::ExecCtx ctx,
                                                               VmConfig config) {
  trace::Span span(ctx.track, "vm.prepare_incoming");
  co_await ctx.Work(costs_.xl_config_parse + costs_.xl_state_keeping);
  auto reserved = co_await ReserveDomain(env_, ctx, config.image.memory, config.vcpus,
                                         /*share_pages=*/false);
  if (!reserved.ok()) {
    co_return reserved.error();
  }
  hv::DomainId domid = reserved->domid;
  lv::Status records = co_await WriteGuestRecords(ctx, domid, config);
  if (!records.ok()) {
    (void)co_await env_.hv->DomainDestroy(ctx, domid);
    co_return records.error();
  }
  if (config.image.wants_net && env_.netback != nullptr) {
    (void)co_await env_.netback->XsToolstackCreate(ctx, client_.get(), domid,
                                                   env_.bash_hotplug);
  }
  if (config.image.wants_block && env_.blkback != nullptr) {
    (void)co_await env_.blkback->XsToolstackCreate(ctx, client_.get(), domid,
                                                   env_.bash_hotplug);
  }
  pending_incoming_.TryEmplace(domid, PendingIncoming{std::move(config), reserved->core});
  co_return domid;
}

sim::Co<lv::Status> XlToolstack::FinishIncoming(sim::ExecCtx ctx, hv::DomainId domid,
                                                const Snapshot& snap) {
  trace::Span span(ctx.track, "vm.finish_incoming");
  PendingIncoming* found = pending_incoming_.Find(domid);
  if (found == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no pending incoming domain");
  }
  PendingIncoming pending = std::move(*found);
  pending_incoming_.Erase(domid);
  // Stream the memory image back in.
  co_await ctx.Work(costs_.snapshot_file_overhead);
  (void)co_await env_.hv->CopyToDomain(ctx, domid, snap.memory);
  co_await InstallGuest(ctx, domid, pending.config, pending.core, /*use_store=*/true,
                        /*resume=*/true);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> XlToolstack::SuspendForMigration(sim::ExecCtx ctx, hv::DomainId domid) {
  co_return co_await XsSuspend(ctx, client_.get(), domid);
}

// xl's one device-teardown path: Destroy and Save end here too.
sim::Co<lv::Status> XlToolstack::TeardownAfterMigration(sim::ExecCtx ctx,
                                                        hv::DomainId domid) {
  const VmConfig* tracked = config_of(domid);
  if (tracked == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "unknown VM");
  }
  VmConfig config = *tracked;
  if (config.image.wants_net && env_.netback != nullptr && env_.netback->HasDevice(domid)) {
    (void)co_await env_.netback->XsToolstackDestroy(ctx, client_.get(), domid,
                                                    env_.bash_hotplug);
  }
  if (config.image.wants_block && env_.blkback != nullptr &&
      env_.blkback->HasDevice(domid)) {
    (void)co_await env_.blkback->XsToolstackDestroy(ctx, client_.get(), domid,
                                                    env_.bash_hotplug);
  }
  (void)co_await RemoveGuestRecords(ctx, domid);
  lv::Status destroyed = co_await env_.hv->DomainDestroy(ctx, domid);
  UntrackVm(domid);
  co_return destroyed;
}

}  // namespace toolstack
