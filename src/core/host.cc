#include "src/core/host.h"

#include "src/base/assert.h"
#include "src/base/log.h"
#include "src/obs/obs.h"
#include "src/sim/run.h"

namespace lightvm {

std::string Mechanisms::label() const {
  if (toolstack == ToolstackKind::kXl) {
    return "xl";
  }
  std::string label = "chaos [";
  label += noxs ? "NoXS" : "XS";
  if (split) {
    label += "+split";
  }
  label += "]";
  if (noxs && split) {
    label += " (LightVM)";
  }
  if (page_sharing) {
    label += " +page-sharing";
  }
  return label;
}

HostSpec HostSpec::Xeon4Core() {
  HostSpec spec;
  spec.name = "xeon-e5-1630v3";
  spec.cores = 4;
  spec.dom0_cores = 1;
  spec.memory = lv::Bytes::GiB(128);
  return spec;
}

HostSpec HostSpec::Amd64Core() {
  HostSpec spec;
  spec.name = "amd-opteron-6376";
  spec.cores = 64;
  spec.dom0_cores = 4;
  spec.memory = lv::Bytes::GiB(128);
  return spec;
}

HostSpec HostSpec::Xeon14Core() {
  HostSpec spec;
  spec.name = "xeon-e5-2690v4";
  spec.cores = 14;
  spec.dom0_cores = 1;
  spec.memory = lv::Bytes::GiB(64);
  return spec;
}

Host::Host(sim::Engine* engine, HostSpec spec, Mechanisms mechanisms)
    : engine_(engine), spec_(spec), mechanisms_(mechanisms) {
  cpu_ = std::make_unique<sim::CpuScheduler>(engine_, spec_.cores);
  placer_ = std::make_unique<sim::CorePlacer>(spec_.cores, spec_.dom0_cores);
  hv_ = std::make_unique<hv::Hypervisor>(engine_, spec_.memory);
  Dom0Services::Deps deps{engine_, cpu_.get(), placer_.get(), hv_.get(), &fault_hooks_};
  dom0_ = std::make_unique<Dom0Services>(deps, mechanisms_);
  node_ = std::make_unique<NodeApi>(deps, dom0_.get(), mechanisms_);
  baseline_.channels = hv_->event_channels().open_channels();
  baseline_.grants = hv_->grant_table().active_grants();
  baseline_.device_pages = dom0_->control_pages()->num_pages();
  baseline_.memory = MemoryUsed();
}

// NodeApi (chaos daemon) stops before Dom0Services (watchers, store).
Host::~Host() {
  // Background loops mid-CPU-slice cannot be destroyed (the scheduler holds
  // their raw handles); step the engine until every surviving guest's loop
  // is parked in a cancellable sleep, so teardown frees every frame.
  while (true) {
    bool all_quiescent = true;
    for (hv::DomainId domid : node_->toolstack().TrackedDomains()) {
      guests::Guest* g = node_->guest(domid);
      if (g != nullptr && !g->bg_quiescent()) {
        all_quiescent = false;
        break;
      }
    }
    if (all_quiescent || !engine_->Step()) {
      break;
    }
  }
  node_.reset();
  dom0_.reset();
}

sim::Co<lv::Result<hv::DomainId>> Host::CreateVm(toolstack::VmConfig config) {
  co_return co_await node_->CreateVm(std::move(config));
}

sim::Co<lv::Result<hv::DomainId>> Host::CreateAndBoot(toolstack::VmConfig config) {
  co_return co_await node_->CreateAndBoot(std::move(config));
}

sim::Co<void> Host::WaitBooted(hv::DomainId domid) {
  co_await node_->WaitBooted(domid);
}

sim::Co<lv::Status> Host::DestroyVm(hv::DomainId domid) {
  co_return co_await node_->DestroyVm(domid);
}

sim::Co<lv::Result<toolstack::Snapshot>> Host::SaveVm(hv::DomainId domid) {
  co_return co_await node_->SaveVm(domid);
}

sim::Co<lv::Result<hv::DomainId>> Host::RestoreVm(toolstack::Snapshot snap) {
  co_return co_await node_->RestoreVm(std::move(snap));
}

sim::Co<lv::Status> Host::MigrateVm(hv::DomainId domid, Host* target, xnet::Link* link) {
  auto moved = co_await node_->MigrateVm(domid, target->node_.get(), link);
  if (!moved.ok()) {
    co_return lv::Err(moved.error().code, moved.error().message);
  }
  co_return lv::Status::Ok();
}

void Host::AddShellFlavor(lv::Bytes memory, bool wants_net, int target) {
  node_->AddShellFlavor(memory, wants_net, target);
}

void Host::PrefillShellPool() {
  node_->PrefillShellPool();
}

lv::Bytes Host::MemoryUsed() const {
  return spec_.dom0_memory + hv_->memory().used();
}

// --- Fault injection ------------------------------------------------------------

void Host::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  crash_settled_ = false;
  fault_hooks_.node_crashed = true;
  node_->set_accepting(false);
  obs::FlightRecorder::Get().Record(node_->obs_node(), {}, "host", "crash", false);
  engine_->Spawn(SettleCrash());
}

sim::Co<void> Host::SettleCrash() {
  // Phase 1: let the in-flight job layer drain. Every job either completes
  // its current phase or aborts at its next toolstack fault checkpoint; no
  // frame is ever destroyed mid-flight.
  while (node_->jobs_active() > 0) {
    co_await engine_->Sleep(lv::Duration::Millis(1));
  }
  // Phase 2: tear every surviving VM down through the normal destroy path
  // (the Dom0 daemons keep running in the simulation; a dead node keeps no
  // guest state). Errors are ignored — the state is lost either way.
  for (hv::DomainId domid : node_->toolstack().TrackedDomains()) {
    (void)co_await node_->DestroyVm(domid);
  }
  crash_settled_ = true;
}

faults::FaultTargets Host::fault_targets() {
  faults::FaultTargets targets;
  targets.restart_xenstore = [this](int, lv::Duration downtime) {
    if (store() != nullptr) {
      store()->InjectRestart(downtime);
    }
  };
  targets.stall_hotplug = [this](int, lv::Duration stall, int count) {
    fault_hooks_.hotplug_stall = stall;
    fault_hooks_.stall_next_hotplugs += count;
  };
  targets.fail_creates = [this](int, int count) { fault_hooks_.fail_next_creates += count; };
  return targets;
}

void Host::Reboot() {
  if (!crashed_) {
    return;
  }
  LV_CHECK_MSG(crash_settled_, "Reboot() before the crash settle pass finished");
  crashed_ = false;
  crash_settled_ = false;
  fault_hooks_.node_crashed = false;
  node_->set_accepting(true);
  obs::FlightRecorder::Get().Record(node_->obs_node(), {}, "host", "reboot", true);
}

CreateTiming CreateBootTimed(sim::Engine& engine, Host& host, toolstack::VmConfig config) {
  CreateTiming timing;
  const std::string name = config.name;
  lv::TimePoint t0 = engine.now();
  auto domid = sim::RunToCompletion(engine, host.CreateVm(std::move(config)));
  if (!domid.ok()) {
    timing.error = domid.error().ToString();
  } else {
    timing.domid = *domid;
    timing.create_ms = (engine.now() - t0).ms();
    lv::TimePoint t1 = engine.now();
    guests::Guest* guest = host.guest(*domid);
    if (guest != nullptr) {
      bool booted = sim::RunUntilCondition(engine, [&] { return guest->booted(); },
                                           lv::Duration::Seconds(600));
      if (!booted) {
        timing.error = "boot timed out";
      } else {
        timing.boot_ms = (guest->booted_at() - t1).ms();
      }
    }
  }
  timing.ok = timing.error.empty();
  if (!timing.ok) {
    LV_WARN("host", "create of %s failed: %s", name.c_str(), timing.error.c_str());
  }
  return timing;
}

}  // namespace lightvm
