#include "src/toolstack/chaos_daemon.h"

#include "src/base/log.h"
#include "src/metrics/metrics.h"
#include "src/toolstack/toolstack.h"
#include "src/trace/trace.h"

namespace toolstack {

namespace {
constexpr const char* kMod = "chaosd";
}  // namespace

sim::Co<lv::Result<Shell>> PrepareShell(HostEnv& env, sim::ExecCtx ctx, lv::Bytes memory,
                                        bool wants_net, bool use_noxs,
                                        xs::XsClient* xs_client) {
  trace::Span span(ctx.track, "shell.prepare");
  Shell shell;
  shell.memory = memory;
  shell.has_net = wants_net;

  // 1-4: hypervisor reservation, compute allocation, memory reservation and
  // preparation (Figure 8, prepare phase).
  auto reserved = co_await ReserveDomain(env, ctx, memory, /*vcpus=*/1, env.page_sharing);
  if (!reserved.ok()) {
    co_return reserved.error();
  }
  shell.domid = reserved->domid;
  shell.core = reserved->core;

  // 5: device pre-creation.
  if (use_noxs) {
    if (wants_net && env.netback != nullptr) {
      auto info = co_await env.netback->NoxsCreate(ctx, shell.domid);
      if (!info.ok()) {
        (void)co_await env.hv->DomainDestroy(ctx, shell.domid);
        co_return info.error();
      }
      shell.net_info = *info;
    }
    if (env.sysctl != nullptr) {
      auto info = co_await env.sysctl->Create(ctx, shell.domid);
      if (info.ok()) {
        shell.sysctl_info = *info;
      }
    }
  } else if (wants_net && env.netback != nullptr && xs_client != nullptr) {
    lv::Status s =
        co_await env.netback->XsToolstackCreate(ctx, xs_client, shell.domid, nullptr);
    if (!s.ok()) {
      (void)co_await env.hv->DomainDestroy(ctx, shell.domid);
      co_return s.error();
    }
    shell.xs_devices_precreated = true;
  }
  co_return shell;
}

ChaosDaemon::ChaosDaemon(HostEnv env, bool use_noxs)
    : env_(std::move(env)), use_noxs_(use_noxs) {
  work_ = std::make_unique<sim::Semaphore>(env_.engine, 0);
  if (!use_noxs_ && env_.store != nullptr) {
    xs_client_ = std::make_unique<xs::XsClient>(env_.engine, env_.store, hv::kDom0);
  }
}

ChaosDaemon::~ChaosDaemon() = default;

void ChaosDaemon::AddFlavor(Flavor flavor) {
  flavors_.push_back(flavor);
  if (running_) {
    for (int i = 0; i < flavor.target; ++i) {
      work_->Release();
    }
  }
}

void ChaosDaemon::Start(sim::ExecCtx daemon_ctx) {
  LV_CHECK_MSG(!running_, "chaos daemon already running");
  running_ = true;
  // Seed the work queue with the total initial deficit.
  int64_t deficit = 0;
  for (const Flavor& f : flavors_) {
    deficit += f.target;
  }
  for (int64_t i = 0; i < deficit; ++i) {
    work_->Release();
  }
  // The refill loop runs on its own trace row so pooled-shell preparation is
  // visibly asynchronous to the creations it feeds.
  daemon_ctx = daemon_ctx.OnTrack(trace::Tracer::Get().NewTrack("chaosd"));
  loop_ = RefillLoop(daemon_ctx);
  loop_.Start();
}

void ChaosDaemon::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  work_->Release();  // Wake the loop so it can observe the stop.
  // Drain: step the engine until the loop frame completes, so that no queued
  // event still references it. A suspended frame cannot be destroyed safely
  // while a wakeup for it is in flight, and resuming it after this daemon
  // dies would touch freed members. Bounded: the wakeup above — or, for a
  // refill already in flight, its completion — leads the loop straight to
  // the running_ check and out. Events for other actors that fire during the
  // drain are safe by construction: Stop() runs while the host's services
  // are still alive, and frames of previously torn-down actors self-
  // terminate via their shared liveness tokens.
  while (!loop_.done() && env_.engine->Step()) {
  }
}

std::optional<ChaosDaemon::Flavor> ChaosDaemon::NextDeficit() const {
  std::optional<Flavor> best;
  int64_t best_deficit = 0;
  for (const Flavor& f : flavors_) {
    int64_t pooled = 0;
    for (const Shell& s : pool_) {
      if (s.memory == f.memory && s.has_net == f.wants_net) {
        ++pooled;
      }
    }
    int64_t deficit = f.target - pooled;
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = f;
    }
  }
  return best;
}

sim::Co<void> ChaosDaemon::RefillLoop(sim::ExecCtx ctx) {
  while (true) {
    co_await work_->Acquire();
    if (!running_) {
      break;
    }
    std::optional<Flavor> flavor = NextDeficit();
    if (!flavor.has_value()) {
      continue;  // Pool already at target.
    }
    trace::Span refill(ctx.track, "chaosd.refill");
    auto shell = co_await PrepareShell(env_, ctx, flavor->memory, flavor->wants_net,
                                       use_noxs_, xs_client_.get());
    refill.End();
    if (shell.ok()) {
      pool_.push_back(*shell);
      shells_built_.Inc();
      static metrics::Gauge& pooled = metrics::GetGauge("toolstack.chaosd.pool_size");
      pooled.Set(static_cast<double>(pool_.size()));
      LV_DEBUG(kMod, "pooled shell dom%lld (%lld pooled)", (long long)shell->domid,
               (long long)pool_.size());
    } else {
      LV_WARN(kMod, "shell preparation failed: %s", shell.error().message.c_str());
    }
  }
}

std::optional<Shell> ChaosDaemon::TryTake(lv::Bytes memory, bool wants_net) {
  for (auto it = pool_.begin(); it != pool_.end(); ++it) {
    if (it->memory == memory && it->has_net == wants_net) {
      Shell shell = *it;
      pool_.erase(it);
      static metrics::Gauge& pooled = metrics::GetGauge("toolstack.chaosd.pool_size");
      pooled.Set(static_cast<double>(pool_.size()));
      if (running_) {
        work_->Release();  // Refill in the background.
      }
      return shell;
    }
  }
  return std::nullopt;
}

}  // namespace toolstack
