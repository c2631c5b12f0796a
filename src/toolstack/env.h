// HostEnv: the Dom0 runtime a toolstack operates in — hypervisor, store
// daemon (absent in noxs mode), back-ends, hotplug machinery, CPU placement.
// Assembled by core::Host; shared by xl, chaos, the chaos daemon and the
// migration daemon.
#pragma once

#include "src/devices/backend.h"
#include "src/devices/hotplug.h"
#include "src/devices/sysctl.h"
#include "src/faults/hooks.h"
#include "src/hv/hypervisor.h"
#include "src/net/switch.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/xenstore/daemon.h"

namespace toolstack {

struct HostEnv {
  sim::Engine* engine = nullptr;
  sim::CpuScheduler* cpu = nullptr;
  sim::CorePlacer* placer = nullptr;
  hv::Hypervisor* hv = nullptr;
  // XenStore-path machinery (null when the host runs pure noxs).
  xs::Daemon* store = nullptr;
  xdev::BackendDriver* netback = nullptr;
  xdev::BackendDriver* blkback = nullptr;
  xdev::SysctlBackend* sysctl = nullptr;
  xdev::ControlPages* control_pages = nullptr;
  xdev::HotplugRunner* bash_hotplug = nullptr;
  xdev::HotplugRunner* xendevd = nullptr;
  xnet::Switch* sw = nullptr;
  // §9 extension: share read-only pages (75% of each guest's memory) between
  // VMs of the same flavor.
  bool page_sharing = false;
  // Fault-injection hook state (owned by the Host; null only in stripped-down
  // test fixtures). Toolstack checkpoints consult it on every create.
  faults::FaultHooks* faults = nullptr;
};

}  // namespace toolstack
