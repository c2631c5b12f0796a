// Guest: the software running inside a domain — kernel init, device
// enumeration (through the XenStore or through the noxs device page),
// Linux-style boot phases with scheduler-contention waits, idle background
// services, and the suspend protocol.
//
// A Guest is installed as the domain's start function; the hypervisor spawns
// it on first unpause. Everything it does costs CPU on the domain's own core
// with the domain as owner, so guest activity shows up in Figures 11 and 15.
#pragma once

#include <functional>
#include <memory>

#include "src/base/result.h"
#include "src/devices/backend.h"
#include "src/devices/sysctl.h"
#include "src/guests/image.h"
#include "src/hv/hypervisor.h"
#include "src/sim/cpu.h"
#include "src/sim/sync.h"
#include "src/xenstore/daemon.h"

namespace guests {

// Everything a guest needs from its host environment to boot.
struct BootEnv {
  sim::CpuScheduler* cpu = nullptr;
  hv::Hypervisor* hv = nullptr;
  // XenStore path (null store selects the noxs path).
  xs::Daemon* store = nullptr;
  xdev::BackendDriver* netback = nullptr;
  xdev::BackendDriver* blkback = nullptr;
  xdev::SysctlBackend* sysctl = nullptr;
  // Number of co-located guests on this guest's core; drives the per-phase
  // scheduling delay of Linux-style boots (Figure 11).
  std::function<int64_t()> peers_on_core;
};

class Guest {
 public:
  Guest(sim::Engine* engine, GuestImage image, hv::DomainId domid, BootEnv env);
  ~Guest();
  Guest(const Guest&) = delete;
  Guest& operator=(const Guest&) = delete;

  const GuestImage& image() const { return image_; }
  hv::DomainId domid() const { return domid_; }

  // The domain start function to install before unpausing.
  hv::Domain::StartFn MakeStartFn();

  // Restore/migration path: the guest re-attaches devices but skips the cold
  // boot work (its state arrived in the memory stream).
  void set_resume(bool resume) { resume_ = resume; }

  bool booted() const { return booted_.triggered(); }
  sim::OneShotEvent& boot_event() { return booted_; }
  sim::Co<void> WaitBooted() { co_await booted_.Wait(); }
  lv::TimePoint booted_at() const { return booted_at_; }

  // Execution context of the guest's vCPU (valid after boot started).
  sim::ExecCtx Ctx() const;

  // Runs `work` of CPU on the guest's core (compute-service jobs, §7.4).
  sim::Co<void> Compute(lv::Duration work);

  // Stops background activity (domain shut down / destroyed / migrating).
  void Stop();
  bool running() const { return running_; }

  // True when the background loop can be torn down without leaking its
  // frame: not started, finished, or parked in a cancellable sleep. A loop
  // mid-CPU-slice must instead be detached (it self-destructs after the
  // slice — which requires the engine to keep stepping). Host's destructor
  // drains until every guest is quiescent before tearing down.
  bool bg_quiescent() const {
    return !bg_loop_.valid() || bg_loop_.done() || bg_->parked != nullptr;
  }

  // Shared with the background-loop frame so Stop()/~Guest can interrupt a
  // parked sleep — or detach a frame that is mid-CPU-slice — without the
  // frame ever touching a possibly-dead Guest.
  struct BgState {
    bool stop = false;
    std::coroutine_handle<> parked;  // set while suspended in a bg sleep
    sim::EventHandle sleep;          // the pending wakeup for `parked`
  };

 private:
  sim::Co<void> Boot(hv::Domain& domain);
  sim::Co<lv::Status> EnumerateDevicesNoxs(sim::ExecCtx ctx);
  sim::Co<lv::Status> EnumerateDevicesXenstore(sim::ExecCtx ctx);
  // Static coroutine: captures everything by value plus the shared BgState,
  // so a frame that must be detached mid-slice (see ~Guest) never
  // dereferences the Guest.
  static sim::Co<void> BackgroundLoop(sim::Engine* engine, sim::ExecCtx ctx,
                                      lv::Duration work, lv::Duration period,
                                      lv::Duration offset,
                                      std::shared_ptr<BgState> st);
  // Handles a sysctl power request: save state, shut down, ack (noxs), or
  // the equivalent control/shutdown dance over the XenStore.
  sim::Co<void> HandlePowerRequest(hv::ShutdownReason reason);
  sim::Co<void> XsControlWatcher();

  sim::Engine* engine_;
  GuestImage image_;
  hv::DomainId domid_;
  BootEnv env_;
  int boot_core_ = 0;
  bool running_ = false;
  bool resume_ = false;
  std::shared_ptr<BgState> bg_ = std::make_shared<BgState>();
  sim::OneShotEvent booted_;
  lv::TimePoint booted_at_;
  std::unique_ptr<xs::XsClient> xs_client_;  // XenStore path only; keeps
                                             // watches alive for the VM's life
  // Owner-held loop frames (own-and-drain, DESIGN §10 "Teardown
  // discipline"). Declared after xs_client_ so the frames die before the
  // watch channel they may be parked on; the channel awaiter's destructor
  // deregisters them on the way out.
  sim::Co<void> control_watcher_;
  sim::Co<void> bg_loop_;
};

}  // namespace guests
