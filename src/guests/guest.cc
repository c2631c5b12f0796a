#include "src/guests/guest.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/trace/trace.h"

namespace guests {

namespace {
constexpr const char* kMod = "guest";

// Scheduling-delay model for Linux-style boots: each timer wait pays a small
// linear per-peer delay, plus a super-linear term once the runnable
// population per core exceeds what the scheduler absorbs — this is what
// bends Tinyx's curve away from Docker's past ~250 guests/core (Fig. 11).
constexpr lv::Duration kSchedDelayPerPeer = lv::Duration::Micros(40);
constexpr lv::Duration kSchedDelayCubic = lv::Duration::Nanos(23);  // * peers^3 per boot

// A sleep whose wakeup the Guest can cancel: the parked handle and the
// pending event live in the shared BgState, so Stop()/~Guest can interrupt
// the nap without racing the engine.
struct BgSleep {
  sim::Engine* engine;
  lv::Duration d;
  Guest::BgState* st;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    st->parked = h;
    st->sleep = engine->Schedule(d, h);
  }
  void await_resume() const noexcept { st->parked = nullptr; }
};

}  // namespace

Guest::Guest(sim::Engine* engine, GuestImage image, hv::DomainId domid, BootEnv env)
    : engine_(engine),
      image_(std::move(image)),
      domid_(domid),
      env_(std::move(env)),
      booted_(engine) {}

Guest::~Guest() {
  bg_->stop = true;
  if (bg_loop_.valid() && !bg_loop_.done()) {
    if (bg_->parked) {
      // Parked in a BgSleep: cancel the wakeup; ~Co below frees the frame
      // with nothing left referencing it.
      bg_->sleep.Cancel();
      bg_->parked = nullptr;
    } else {
      // Mid CPU slice: the scheduler still holds the frame's handle, so hand
      // ownership back to the frame; marked detached, it observes `stop`
      // right after the slice and self-destructs without touching this Guest.
      bg_loop_.Release().promise().detached = true;
    }
  }
  // control_watcher_ may be parked on the watch channel; its ~Co destroys
  // the frame safely (the channel awaiter deregisters and cancels wakeups).
}

sim::ExecCtx Guest::Ctx() const {
  return sim::ExecCtx{env_.cpu, boot_core_, static_cast<sim::CpuOwner>(domid_)};
}

hv::Domain::StartFn Guest::MakeStartFn() {
  return [this](hv::Domain& domain) -> sim::Co<void> { co_await Boot(domain); };
}

sim::Co<void> Guest::Boot(hv::Domain& domain) {
  boot_core_ = domain.boot_core();
  running_ = true;
  sim::ExecCtx ctx = Ctx();
  // Each guest boots on its own trace row so concurrently booting guests'
  // device-enumeration spans never interleave on one track.
  trace::Tracer& tracer = trace::Tracer::Get();
  if (tracer.enabled()) {
    ctx = ctx.OnTrack(
        tracer.NewTrack(lv::StrFormat("guest:dom%lld", (long long)domid_)));
  }
  trace::Span boot_span(ctx.track, "guest.boot");

  // Early kernel init: a slice of the guest's boot work before drivers come
  // up (decompression, memory setup, CPU bring-up). Resumed guests only
  // re-establish execution state.
  co_await ctx.Work(resume_ ? lv::Duration::Micros(100) : image_.boot_cpu * 0.2);

  // Device enumeration through the control plane.
  if (env_.store != nullptr) {
    lv::Status s = co_await EnumerateDevicesXenstore(ctx);
    if (!s.ok()) {
      LV_WARN(kMod, "dom%lld xenstore device enumeration failed: %s", (long long)domid_,
              s.error().message.c_str());
    }
  } else {
    lv::Status s = co_await EnumerateDevicesNoxs(ctx);
    if (!s.ok()) {
      LV_WARN(kMod, "dom%lld noxs device enumeration failed: %s", (long long)domid_,
              s.error().message.c_str());
    }
  }

  // Remaining boot work. Linux-style guests block on timers between init
  // phases; each wakeup pays a scheduling delay that grows with the number
  // of co-located guests (Figure 11). Unikernels run straight through.
  lv::Duration remaining = resume_ ? image_.boot_cpu * 0.02 : image_.boot_cpu * 0.8;
  if (!resume_ && image_.boot_wait_phases > 0) {
    lv::Duration per_phase = remaining / static_cast<double>(image_.boot_wait_phases);
    for (int phase = 0; phase < image_.boot_wait_phases; ++phase) {
      co_await ctx.Work(per_phase);
      int64_t peers = env_.peers_on_core ? env_.peers_on_core() : 0;
      if (peers > 0) {
        double p = static_cast<double>(peers);
        lv::Duration delay =
            (kSchedDelayPerPeer * p + kSchedDelayCubic * (p * p * p)) /
            static_cast<double>(image_.boot_wait_phases);
        co_await engine_->Sleep(delay);
      }
    }
  } else {
    co_await ctx.Work(remaining);
  }

  booted_at_ = engine_->now();
  booted_.Trigger();
  LV_DEBUG(kMod, "dom%lld (%s) booted", (long long)domid_, image_.name.c_str());

  if (image_.has_background_tasks()) {
    lv::Duration offset = image_.bg_period * (static_cast<double>(domid_ % 97) / 97.0);
    bg_loop_ = BackgroundLoop(engine_, Ctx(), image_.bg_work, image_.bg_period, offset, bg_);
    bg_loop_.Start();
  }
}

sim::Co<lv::Status> Guest::EnumerateDevicesNoxs(sim::ExecCtx ctx) {
  // Fig. 7b step 3: ask the hypervisor for the device page and map it.
  auto entries = co_await env_.hv->DevicePageRead(ctx, domid_);
  if (!entries.ok()) {
    co_return entries.error();
  }
  for (const hv::DeviceInfo& info : *entries) {
    switch (info.type) {
      case hv::DeviceType::kNet:
        if (env_.netback != nullptr) {
          lv::Status s = co_await env_.netback->NoxsFrontendConnect(ctx, domid_, info);
          if (!s.ok()) {
            co_return s;
          }
        }
        break;
      case hv::DeviceType::kBlock:
        if (env_.blkback != nullptr) {
          lv::Status s = co_await env_.blkback->NoxsFrontendConnect(ctx, domid_, info);
          if (!s.ok()) {
            co_return s;
          }
        }
        break;
      case hv::DeviceType::kSysctl:
        if (env_.sysctl != nullptr) {
          lv::Status s = co_await env_.sysctl->FrontendConnect(
              ctx, domid_, info, [this](hv::ShutdownReason reason) -> sim::Co<void> {
                co_await HandlePowerRequest(reason);
              });
          if (!s.ok()) {
            co_return s;
          }
        }
        break;
      case hv::DeviceType::kConsole:
        break;
    }
  }
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Guest::EnumerateDevicesXenstore(sim::ExecCtx ctx) {
  xs_client_ = std::make_unique<xs::XsClient>(engine_, env_.store, domid_);
  // xenbus probing: the guest reads its own tree (console, memory target,
  // vm path) before touching device directories.
  std::string self = lv::StrFormat("/local/domain/%lld", (long long)domid_);
  (void)co_await xs_client_->Read(ctx, self + "/name");
  (void)co_await xs_client_->Read(ctx, self + "/memory/target");
  (void)co_await xs_client_->Read(ctx, self + "/console/ring-ref");
  (void)co_await xs_client_->Read(ctx, self + "/vm");
  if (image_.wants_net && env_.netback != nullptr) {
    lv::Status s = co_await env_.netback->XsFrontendConnect(ctx, xs_client_.get(), domid_);
    if (!s.ok()) {
      co_return s;
    }
  }
  if (image_.wants_block && env_.blkback != nullptr) {
    lv::Status s = co_await env_.blkback->XsFrontendConnect(ctx, xs_client_.get(), domid_);
    if (!s.ok()) {
      co_return s;
    }
  }
  // Register the control/shutdown watch and spawn the watcher that services
  // xl's save/shutdown requests.
  (void)co_await xs_client_->Watch(ctx, self + "/control/shutdown", "control");
  // Linux guests also watch balloon targets and misc platform nodes; these
  // persist for the VM's lifetime and grow the store's watch list.
  if (image_.kind == GuestKind::kTinyx) {
    (void)co_await xs_client_->Watch(ctx, self + "/memory/target", "balloon");
    (void)co_await xs_client_->Watch(ctx, self + "/control/platform", "platform");
  } else if (image_.kind == GuestKind::kDebian) {
    (void)co_await xs_client_->Watch(ctx, self + "/memory/target", "balloon");
    (void)co_await xs_client_->Watch(ctx, self + "/control/platform", "platform");
    (void)co_await xs_client_->Watch(ctx, self + "/data", "data");
  }
  control_watcher_ = XsControlWatcher();
  control_watcher_.Start();
  co_return lv::Status::Ok();
}

sim::Co<void> Guest::XsControlWatcher() {
  // Drain the registration event, then react to shutdown requests.
  while (running_ && xs_client_) {
    xs::WatchEvent ev = co_await xs_client_->NextWatchEvent();
    if (ev.token == xs::XsClient::kStopToken) {
      break;
    }
    if (ev.token != "control") {
      continue;
    }
    auto value = co_await xs_client_->Read(Ctx(), ev.fired_path);
    if (!value.ok() || value->empty()) {
      continue;
    }
    if (*value == "suspend") {
      co_await HandlePowerRequest(hv::ShutdownReason::kSuspend);
    } else if (*value == "poweroff") {
      co_await HandlePowerRequest(hv::ShutdownReason::kPoweroff);
    }
  }
}

sim::Co<void> Guest::HandlePowerRequest(hv::ShutdownReason reason) {
  sim::ExecCtx ctx = Ctx();
  // Save internal state: flush device rings, quiesce, serialize state.
  // Cost scales mildly with memory (dirty structures to settle).
  lv::Duration save_work =
      lv::Duration::Micros(100) +
      lv::Duration::Nanos(10) * static_cast<double>(lv::PagesFor(image_.memory));
  co_await ctx.Work(save_work);
  running_ = false;
  (void)co_await env_.hv->DomainShutdown(ctx, domid_, reason);
  if (env_.store == nullptr && env_.sysctl != nullptr) {
    // noxs: unbind event channels / device pages, then ack via sysctl.
    co_await env_.sysctl->Ack(ctx, domid_);
  } else if (xs_client_) {
    // xl path: clear the control node to acknowledge.
    (void)co_await xs_client_->Write(ctx,
                                     lv::StrFormat("/local/domain/%lld/control/shutdown",
                                                   (long long)domid_),
                                     "");
  }
}

sim::Co<void> Guest::BackgroundLoop(sim::Engine* engine, sim::ExecCtx ctx,
                                    lv::Duration work, lv::Duration period,
                                    lv::Duration offset,
                                    std::shared_ptr<BgState> st) {
  // Offset start deterministically to avoid phase-locking guests.
  co_await BgSleep{engine, offset, st.get()};
  while (!st->stop) {
    co_await ctx.Work(work);
    if (st->stop) {
      break;
    }
    co_await BgSleep{engine, period, st.get()};
  }
}

sim::Co<void> Guest::Compute(lv::Duration work) { co_await Ctx().Work(work); }

void Guest::Stop() {
  running_ = false;
  bg_->stop = true;
  if (xs_client_) {
    xs_client_->InjectShutdownEvent();
  }
}

}  // namespace guests
