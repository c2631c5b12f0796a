// The chaos daemon: the background half of the split toolstack (paper §5.2).
//
// "The prepare phase is responsible for functionality common to all VMs such
//  as having the hypervisor generate an ID ... and allocating CPU resources
//  to the VM. We offload this functionality to the chaos daemon, which
//  generates a number of VM shells and places them in a pool. The daemon
//  ensures that there is always a certain (configurable) number of shells
//  available."
//
// A shell is a pre-created domain: id, memory reservation, vCPUs, and
// pre-created (but not yet initialized) devices. Shells come in flavors
// keyed by memory size, "similar to OpenStack's flavors".
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/toolstack/env.h"

namespace toolstack {

struct Shell {
  hv::DomainId domid = hv::kInvalidDomain;
  lv::Bytes memory;
  int core = 0;
  bool has_net = false;
  // noxs mode: device-page entries returned by the back-ends at pre-create.
  std::optional<hv::DeviceInfo> net_info;
  std::optional<hv::DeviceInfo> sysctl_info;
  // XenStore mode: back-end entries already written.
  bool xs_devices_precreated = false;
};

// Builds one shell synchronously on `ctx` (used by the daemon in the
// background and by chaos inline when the pool is empty).
sim::Co<lv::Result<Shell>> PrepareShell(HostEnv& env, sim::ExecCtx ctx, lv::Bytes memory,
                                        bool wants_net, bool use_noxs,
                                        xs::XsClient* xs_client);

class ChaosDaemon {
 public:
  struct Flavor {
    lv::Bytes memory;
    bool wants_net = true;
    int target = 4;  // shells to keep pooled
  };

  ChaosDaemon(HostEnv env, bool use_noxs);
  ~ChaosDaemon();

  void AddFlavor(Flavor flavor);
  const std::vector<Flavor>& flavors() const { return flavors_; }

  // Starts the background refill loop on a Dom0 execution context.
  void Start(sim::ExecCtx daemon_ctx);
  void Stop();

  // Takes a pooled shell matching (memory, net), if any; triggers a refill.
  std::optional<Shell> TryTake(lv::Bytes memory, bool wants_net);

  int64_t pool_size() const { return static_cast<int64_t>(pool_.size()); }
  int64_t shells_built() const { return shells_built_.value(); }
  bool use_noxs() const { return use_noxs_; }

 private:
  sim::Co<void> RefillLoop(sim::ExecCtx ctx);
  // The flavor most below target, if any.
  std::optional<Flavor> NextDeficit() const;

  HostEnv env_;
  bool use_noxs_;
  std::vector<Flavor> flavors_;
  std::deque<Shell> pool_;
  std::unique_ptr<xs::XsClient> xs_client_;
  std::unique_ptr<sim::Semaphore> work_;
  bool running_ = false;
  metrics::Tally shells_built_{"toolstack.chaosd.shells_built"};
  // The running RefillLoop frame. Owned (not detached onto the engine) so
  // that teardown with the loop still parked on `work_` destroys the frame
  // instead of leaking it. Declared last: it is destroyed before the
  // semaphore holding its wakeup handle.
  sim::Co<void> loop_;
};

}  // namespace toolstack
