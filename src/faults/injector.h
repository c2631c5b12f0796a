// FaultInjector: arms a FaultPlan on the engine and fires each event into
// caller-provided sinks.
//
// The injector deliberately knows nothing about Host, Cluster or links — the
// wiring layer (scenario runner, tests) binds FaultTargets to the real
// operations. That keeps lv_faults dependent only on lv_base and lv_sim, and
// lets tests drive the injector against mocks.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/faults/plan.h"
#include "src/sim/engine.h"

namespace faults {

// Sinks for each fault kind. Unbound sinks are skipped (the event is still
// logged, marked "unhandled"), so a wiring may opt out of kinds that do not
// apply to its topology.
struct FaultTargets {
  std::function<void(int node)> crash_node;
  std::function<void(int node)> reboot_node;
  std::function<void(int node, lv::Duration downtime)> restart_xenstore;
  std::function<void(int node, lv::Duration stall, int count)> stall_hotplug;
  std::function<void(int node, int peer, lv::Duration length)> partition_link;
  std::function<void(int node, int count)> fail_creates;
  // Invoked after every injected event (at the same simulated time), e.g. to
  // assert invariants or record recovery bookkeeping.
  std::function<void(const FaultEvent&)> after_inject;
};

class FaultInjector {
 public:
  FaultInjector(sim::Engine* engine, FaultPlan plan, FaultTargets targets)
      : engine_(engine), plan_(std::move(plan)), targets_(std::move(targets)) {}

  // Schedules every plan event relative to the current simulated time.
  // Call at most once.
  void Arm();

  // Deterministic log: one "t=<ns> kind=<k> ..." line per injected event, in
  // plan order. Byte-identical across runs with the same (seed, plan). Slots
  // of events that have not fired yet (run ended early) are empty strings.
  const std::vector<std::string>& log() const { return log_; }
  int64_t injected() const { return injected_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void Inject(const FaultEvent& ev, size_t slot);

  sim::Engine* engine_;
  FaultPlan plan_;
  FaultTargets targets_;
  std::vector<std::string> log_;  // one pre-sized slot per plan event
  int64_t injected_ = 0;
  bool armed_ = false;
};

}  // namespace faults
