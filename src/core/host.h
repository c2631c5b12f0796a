// lightvm::Host — the top-level public API of this library.
//
// A Host bundles one physical machine as thin composition: the simulation
// substrate (CPU scheduler, core placer, hypervisor), the Dom0 service
// bundle (Dom0Services: store daemon, back-ends, hotplug, switch) and the
// lifecycle surface (NodeApi: toolstack, chaos daemon, migration daemon,
// concurrent jobs). Benchmarks and examples create Hosts and drive VMs
// through them; the cluster layer composes many NodeApis.
//
//   sim::Engine engine;
//   lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
//                      lightvm::Mechanisms::LightVm());
//   auto domid = host.CreateVm({.name = "web0", .image = guests::DaytimeUnikernel()});
#pragma once

#include <memory>
#include <string>

#include "src/core/dom0.h"
#include "src/core/mechanisms.h"
#include "src/core/node_api.h"
#include "src/faults/hooks.h"
#include "src/faults/injector.h"
#include "src/guests/guest.h"

namespace lightvm {

// Resource counters captured when a fresh Host finishes construction; the
// leak invariants (VerifyNoLeakedResources) compare a quiescent host against
// this.
struct ResourceBaseline {
  int64_t channels = 0;
  int64_t grants = 0;
  int64_t device_pages = 0;
  lv::Bytes memory;
};

struct HostSpec {
  std::string name = "host";
  int cores = 4;
  int dom0_cores = 1;
  lv::Bytes memory = lv::Bytes::GiB(128);
  // Dom0's own memory footprint (kernel + daemons + switch).
  lv::Bytes dom0_memory = lv::Bytes::GiB(1);

  // The paper's testbeds.
  // Intel Xeon E5-1630 v3, 4 cores, 128 GB DDR4 (§6: most experiments).
  static HostSpec Xeon4Core();
  // 4x AMD Opteron 6376, 64 cores, 128 GB DDR3 (§6.1: density test).
  static HostSpec Amd64Core();
  // Intel Xeon E5-2690 v4, 14 cores, 64 GB (§7: use cases).
  static HostSpec Xeon14Core();
};

class Host {
 public:
  Host(sim::Engine* engine, HostSpec spec, Mechanisms mechanisms);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const HostSpec& spec() const { return spec_; }
  const Mechanisms& mechanisms() const { return mechanisms_; }

  // --- VM lifecycle (delegated to the NodeApi) -----------------------------

  sim::Co<lv::Result<hv::DomainId>> CreateVm(toolstack::VmConfig config);
  // Creates and waits until the guest signals boot completion.
  sim::Co<lv::Result<hv::DomainId>> CreateAndBoot(toolstack::VmConfig config);
  sim::Co<lv::Status> DestroyVm(hv::DomainId domid);
  sim::Co<lv::Result<toolstack::Snapshot>> SaveVm(hv::DomainId domid);
  sim::Co<lv::Result<hv::DomainId>> RestoreVm(toolstack::Snapshot snap);
  sim::Co<lv::Status> MigrateVm(hv::DomainId domid, Host* target, xnet::Link* link);

  sim::Co<void> WaitBooted(hv::DomainId domid);

  // --- Fault injection ------------------------------------------------------

  // Crashes the node: new lifecycle submissions fail fast with kUnavailable,
  // in-flight jobs abort at their next toolstack fault checkpoint, and once
  // the job layer drains, a detached settle pass tears every surviving VM
  // down (their state is lost — a dead node keeps nothing). Idempotent.
  void Crash();
  // Brings a crashed node back, empty. Requires the settle pass to have
  // finished (drive the engine until crash_settled()).
  void Reboot();
  bool crashed() const { return crashed_; }
  // True once the post-crash settle pass has torn all VM state down; the
  // leak invariants hold from this point until Reboot().
  bool crash_settled() const { return crash_settled_; }
  faults::FaultHooks& fault_hooks() { return fault_hooks_; }
  // Fault-plan sinks for the kinds one host takes on its own: xenstored
  // restart, hotplug stall and injected create failures. The node index is
  // ignored; crash, reboot and partition need a cluster to heal them.
  faults::FaultTargets fault_targets();
  const ResourceBaseline& resource_baseline() const { return baseline_; }

  // Flight-recorder ring for this host's events (the cluster assigns its
  // node index at construction).
  void set_obs_node(int node) { node_->set_obs_node(node); }
  int obs_node() const { return node_->obs_node(); }

  // Shell-pool configuration (split toolstack). Call before creating VMs.
  void AddShellFlavor(lv::Bytes memory, bool wants_net, int target);
  // Runs the engine until the shell pool is fully stocked.
  void PrefillShellPool();

  // --- Accessors -----------------------------------------------------------------

  sim::Engine& engine() { return *engine_; }
  sim::CpuScheduler& cpu() { return *cpu_; }
  hv::Hypervisor& hv() { return *hv_; }
  Dom0Services& dom0() { return *dom0_; }
  NodeApi& node() { return *node_; }
  xnet::Switch& network_switch() { return dom0_->network_switch(); }
  toolstack::Toolstack& toolstack() { return node_->toolstack(); }
  toolstack::ChaosDaemon* chaos_daemon() { return node_->chaos_daemon(); }
  toolstack::MigrationDaemon& migration_daemon() { return node_->migration_daemon(); }
  xs::Daemon* store() { return dom0_->store(); }
  // Ablation hook: the store daemon's live cost model (null under noxs).
  xs::Costs* store_costs_for_test() { return dom0_->store_costs(); }
  // Ablation hook: the device layer's live cost model (e.g. to zero the
  // unoptimized noxs teardown the paper leaves as future work).
  xdev::Costs* device_costs_for_test() { return dom0_->device_costs(); }
  xdev::BackendDriver& netback() { return dom0_->netback(); }
  xdev::HotplugRunner* xendevd_runner() { return dom0_->xendevd(); }
  guests::Guest* guest(hv::DomainId domid) { return node_->guest(domid); }
  int64_t num_vms() const { return node_->num_vms(); }

  // Execution context for Dom0 work (control-plane callers).
  sim::ExecCtx Dom0Ctx() { return node_->Dom0Ctx(); }

  // Total memory in use: Dom0 baseline + all guest reservations (Fig. 14).
  lv::Bytes MemoryUsed() const;
  // Machine-wide CPU utilization over the current measurement window.
  void StartCpuWindow() { cpu_->StartWindow(); }
  double CpuUtilization() const { return cpu_->WindowUtilization(); }

 private:
  sim::Co<void> SettleCrash();

  sim::Engine* engine_;
  HostSpec spec_;
  Mechanisms mechanisms_;
  // Declared before the services so hooks outlive everything that points at
  // them (env, hotplug runners).
  faults::FaultHooks fault_hooks_;
  bool crashed_ = false;
  bool crash_settled_ = false;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<sim::CorePlacer> placer_;
  std::unique_ptr<hv::Hypervisor> hv_;
  std::unique_ptr<Dom0Services> dom0_;
  std::unique_ptr<NodeApi> node_;
  ResourceBaseline baseline_;
};

// One timed create-and-boot, measured the way the figures plot it:
// create_ms spans the CreateVm call, boot_ms spans unpause to the guest's
// boot signal (600 s horizon). Drives `engine` itself, so call it from
// synchronous code. On failure `ok` is false, `error` says why, and the
// reason is also logged at warning level.
struct CreateTiming {
  hv::DomainId domid = hv::kInvalidDomain;
  double create_ms = 0.0;
  double boot_ms = 0.0;
  bool ok = false;
  std::string error;
};

CreateTiming CreateBootTimed(sim::Engine& engine, Host& host, toolstack::VmConfig config);

}  // namespace lightvm
