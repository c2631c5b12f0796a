// BackendDriver: a Dom0 split-driver back-end (netback / blkback) supporting
// both connection paths the paper contrasts (Figure 7):
//
//  * XenStore path: the toolstack announces the device by writing entries to
//    the back-end's store directory; the back-end (watching that directory)
//    allocates an event channel and grant reference and writes them back;
//    the booting guest reads them from the store and completes the Xenbus
//    handshake.
//  * noxs path: the toolstack requests the device directly through an ioctl
//    into the noxs kernel module; the back-end returns the communication
//    channel details, the toolstack stores them in the guest's device page
//    via hypercall, and the guest connects through a shared control page —
//    no store, no message-passing protocol.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "src/base/result.h"
#include "src/devices/costs.h"
#include "src/devices/hotplug.h"
#include "src/devices/types.h"
#include "src/hv/hypervisor.h"
#include "src/net/packet.h"
#include "src/net/switch.h"
#include "src/sim/sync.h"
#include "src/xenstore/daemon.h"

namespace xdev {

class BackendDriver {
 public:
  // `sw` may be null for non-network back-ends.
  BackendDriver(sim::Engine* engine, hv::Hypervisor* hv, hv::DeviceType type,
                ControlPages* control_pages, xnet::Switch* sw, const Costs* costs);

  hv::DeviceType type() const { return type_; }

  // Hotplug runner used for udev-triggered setup (chaos paths). When unset,
  // hotplug must be run inline by the toolstack (xl path).
  void set_udev_hotplug(HotplugRunner* runner) { udev_hotplug_ = runner; }

  // --- XenStore path ---------------------------------------------------------

  // Starts the back-end watcher thread with its own store connection.
  void StartXsWatcher(xs::Daemon* store, sim::ExecCtx backend_ctx);
  // Stops the watcher and drains the engine until its frame has completed
  // (own-and-drain; must not be called from inside a coroutine).
  void StopXsWatcher();

  // Toolstack half of device creation: writes front-end + back-end entries
  // in a transaction, then waits for the back-end to reach InitWait. When
  // `inline_hotplug` is non-null the toolstack runs the hotplug script
  // synchronously (xl behaviour); otherwise the back-end fires a udev event.
  sim::Co<lv::Status> XsToolstackCreate(sim::ExecCtx ctx, xs::XsClient* client,
                                        hv::DomainId domid, HotplugRunner* inline_hotplug);
  // Closes the device (Closing -> Closed handshake) and removes the entries.
  // `inline_hotplug` mirrors create: xl runs the teardown script itself.
  sim::Co<lv::Status> XsToolstackDestroy(sim::ExecCtx ctx, xs::XsClient* client,
                                         hv::DomainId domid,
                                         HotplugRunner* inline_hotplug);
  // Guest half: xenbus front-end connect during boot.
  sim::Co<lv::Status> XsFrontendConnect(sim::ExecCtx guest_ctx, xs::XsClient* guest_client,
                                        hv::DomainId domid);

  // --- noxs path --------------------------------------------------------------

  // The chaos toolstack's ioctl (Fig. 7b step 1): back-end sets up the device
  // and returns the channel details for the device page.
  sim::Co<lv::Result<hv::DeviceInfo>> NoxsCreate(sim::ExecCtx ctx, hv::DomainId domid);
  sim::Co<lv::Status> NoxsDestroy(sim::ExecCtx ctx, hv::DomainId domid);
  // Guest front-end connect from the device-page entry (Fig. 7b step 4).
  sim::Co<lv::Status> NoxsFrontendConnect(sim::ExecCtx guest_ctx, hv::DomainId domid,
                                          const hv::DeviceInfo& info);

  // --- Common ------------------------------------------------------------------

  bool HasDevice(hv::DomainId domid) const { return instances_.contains(domid); }
  bool IsConnected(hv::DomainId domid) const;
  int64_t num_devices() const { return static_cast<int64_t>(instances_.size()); }

  // Waits until the front/back handshake completes (both Connected).
  sim::Co<void> WaitConnected(hv::DomainId domid);

  // Guests register their packet receive handler after connecting.
  void SetGuestRx(hv::DomainId domid, std::function<void(const xnet::Packet&)> rx);

 private:
  struct Instance {
    hv::DomainId domid = hv::kInvalidDomain;
    int devid = 0;
    hv::Port event_channel = hv::kInvalidPort;
    hv::GrantRef grant_ref = hv::kInvalidGrant;
    std::shared_ptr<DeviceControlPage> page;  // noxs only
    XenbusState backend_state = XenbusState::kInitialising;
    XenbusState frontend_state = XenbusState::kInitialising;
    bool hotplugged = false;
    bool via_noxs = false;
    std::unique_ptr<sim::OneShotEvent> ready;      // backend reached InitWait
    std::unique_ptr<sim::OneShotEvent> connected;  // both sides Connected
    std::unique_ptr<sim::OneShotEvent> closed;
    std::function<void(const xnet::Packet&)> guest_rx;
  };

  Instance& GetOrCreate(hv::DomainId domid);
  std::string BackendDir(hv::DomainId domid) const;
  std::string FrontendDir(hv::DomainId domid) const;
  const char* Kind() const;  // "vif" or "vbd"

  // Runs hotplug and plumbs the switch port.
  sim::Co<void> DoHotplug(sim::ExecCtx ctx, HotplugRunner* runner, hv::DomainId domid);
  sim::Co<void> UndoHotplug(sim::ExecCtx ctx, HotplugRunner* runner, hv::DomainId domid);

  // Watcher body + reactions (XenStore path).
  sim::Co<void> XsWatcherLoop(sim::ExecCtx ctx);
  sim::Co<void> XsBackendInit(sim::ExecCtx ctx, hv::DomainId domid);
  sim::Co<void> XsBackendOnFrontendConnected(sim::ExecCtx ctx, hv::DomainId domid);
  sim::Co<void> XsBackendClose(sim::ExecCtx ctx, hv::DomainId domid);

  // Shared teardown of channels/grants/pages.
  sim::Co<void> ReleaseResources(sim::ExecCtx ctx, Instance& inst);

  sim::Engine* engine_;
  hv::Hypervisor* hv_;
  hv::DeviceType type_;
  ControlPages* control_pages_;
  xnet::Switch* switch_;
  const Costs* costs_;
  HotplugRunner* udev_hotplug_ = nullptr;
  std::unique_ptr<xs::XsClient> xs_client_;
  sim::ExecCtx backend_ctx_;
  bool watcher_running_ = false;
  std::unordered_map<hv::DomainId, Instance> instances_;
  // Owner-held watcher frame (own-and-drain, ROADMAP item 6). Declared last
  // so the frame dies before the client/channel it may be parked on.
  sim::Co<void> watcher_loop_;
};

}  // namespace xdev
