#include "src/faults/injector.h"

#include "src/base/assert.h"
#include "src/base/log.h"
#include "src/obs/obs.h"

namespace faults {

namespace {

// Stable flight-recorder verb per fault kind (string literals: the recorder
// stores the pointer, never copies).
const char* FlightVerb(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "crash";
    case FaultKind::kNodeReboot:
      return "reboot";
    case FaultKind::kXsRestart:
      return "xs-restart";
    case FaultKind::kHotplugStall:
      return "hotplug-stall";
    case FaultKind::kLinkPartition:
      return "partition";
    case FaultKind::kCreateFault:
      return "create-fault";
  }
  return "unknown";
}

}  // namespace

void FaultInjector::Arm() {
  LV_CHECK_MSG(!armed_, "FaultInjector armed twice");
  armed_ = true;
  // One log slot per event, claimed at arm time, so the log reads in plan
  // order whatever order the events fire in.
  log_.assign(plan_.events.size(), std::string());
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    engine_->Schedule(ev.at, [this, ev, i] { Inject(ev, i); });
  }
}

void FaultInjector::Inject(const FaultEvent& ev, size_t slot) {
  bool handled = true;
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      if (targets_.crash_node) {
        targets_.crash_node(ev.node);
      } else {
        handled = false;
      }
      break;
    case FaultKind::kNodeReboot:
      if (targets_.reboot_node) {
        targets_.reboot_node(ev.node);
      } else {
        handled = false;
      }
      break;
    case FaultKind::kXsRestart:
      if (targets_.restart_xenstore) {
        targets_.restart_xenstore(ev.node, ev.duration);
      } else {
        handled = false;
      }
      break;
    case FaultKind::kHotplugStall:
      if (targets_.stall_hotplug) {
        targets_.stall_hotplug(ev.node, ev.duration, ev.count);
      } else {
        handled = false;
      }
      break;
    case FaultKind::kLinkPartition:
      if (targets_.partition_link) {
        targets_.partition_link(ev.node, ev.peer, ev.duration);
      } else {
        handled = false;
      }
      break;
    case FaultKind::kCreateFault:
      if (targets_.fail_creates) {
        targets_.fail_creates(ev.node, ev.count);
      } else {
        handled = false;
      }
      break;
  }
  // Log with the actual injection time (arm time + offset), so concatenated
  // logs from one engine run are globally ordered.
  FaultEvent stamped = ev;
  stamped.at = lv::Duration::Nanos(engine_->now().ns());
  std::string line = stamped.ToString();
  if (!handled) {
    line += " unhandled";
  }
  log_[slot] = std::move(line);
  ++injected_;
  // Injections have no causal parent (they come from outside the system);
  // the flight ring still anchors "what hit this node, when".
  obs::FlightRecorder::Get().Record(ev.node, {}, "faults", FlightVerb(ev.kind),
                                    handled, ev.node);
  LV_DEBUG("faults", "%s", line.c_str());
  if (targets_.after_inject) {
    targets_.after_inject(ev);
  }
}

}  // namespace faults
