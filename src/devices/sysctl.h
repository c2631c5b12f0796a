// The sysctl power-control pseudo-device (paper §5.1):
//
// "To support migration without a XenStore, we create a new pseudo-device
//  called sysctl to handle power-related operations and implement it
//  following Xen's split driver model... These two drivers share a device
//  page through which communication happens and an event channel."
//
// The back-end lives in Dom0; the front-end is bound by the guest at boot.
// chaos issues an ioctl to the back-end to request suspend; the front-end
// receives the request over the event channel, saves guest state, unbinds
// its noxs resources, and acknowledges through the shared page.
#pragma once

#include <functional>
#include <memory>

#include "src/base/id_table.h"
#include "src/base/result.h"
#include "src/devices/costs.h"
#include "src/devices/types.h"
#include "src/hv/hypervisor.h"
#include "src/sim/sync.h"

namespace xdev {

class SysctlBackend {
 public:
  SysctlBackend(sim::Engine* engine, hv::Hypervisor* hv, ControlPages* control_pages,
                const Costs* costs);

  // Creates the sysctl device for a domain (noxs path). Returns the device
  // page entry the toolstack installs via hypercall.
  sim::Co<lv::Result<hv::DeviceInfo>> Create(sim::ExecCtx ctx, hv::DomainId domid);
  sim::Co<lv::Status> Destroy(sim::ExecCtx ctx, hv::DomainId domid);

  // Guest side: bind the front-end. `on_power_request` runs in the guest when
  // Dom0 requests a power operation; it must end with the guest acknowledging
  // (hypervisor shutdown + Ack()).
  using PowerHandler = std::function<sim::Co<void>(hv::ShutdownReason)>;
  sim::Co<lv::Status> FrontendConnect(sim::ExecCtx guest_ctx, hv::DomainId domid,
                                      const hv::DeviceInfo& info,
                                      PowerHandler on_power_request);

  // Toolstack side: request a power operation and wait for the guest's ack.
  sim::Co<lv::Status> RequestShutdown(sim::ExecCtx ctx, hv::DomainId domid,
                                      hv::ShutdownReason reason);

  // Called by the guest's power handler once its state is saved.
  sim::Co<void> Ack(sim::ExecCtx guest_ctx, hv::DomainId domid);

  bool HasDevice(hv::DomainId domid) const { return instances_.Contains(domid); }

 private:
  struct Instance {
    hv::DomainId domid = hv::kInvalidDomain;
    hv::Port event_channel = hv::kInvalidPort;
    hv::GrantRef grant_ref = hv::kInvalidGrant;
    std::shared_ptr<SysctlControlPage> page;
    PowerHandler handler;
    std::unique_ptr<sim::OneShotEvent> acked;
  };

  sim::Engine* engine_;
  hv::Hypervisor* hv_;
  ControlPages* control_pages_;
  const Costs* costs_;
  lv::IdTable<Instance> instances_;
};

}  // namespace xdev
