// Per-host fault-injection hook state.
//
// A Host owns one FaultHooks and threads a pointer to it through the
// toolstack HostEnv and the device hotplug runners. The hot paths only read
// plain flags/counters, so a run with no faults armed pays nothing and the
// event sequence is identical to a build without the hooks.
#pragma once

#include <cstdint>

#include "src/base/time.h"

namespace faults {

struct FaultHooks {
  // Node-level liveness: set by Host::Crash(), cleared by Host::Reboot().
  // While set, toolstack operations abort at their next checkpoint with
  // kUnavailable instead of making further progress on a dead node.
  bool node_crashed = false;

  // Transient toolstack errors: the next N creates fail at the entry
  // checkpoint (before any device state is built) with kUnavailable.
  int fail_next_creates = 0;

  // Hotplug-script stalls: the next N hotplug script runs take an extra
  // `hotplug_stall` (a buggy udev script timing out before it succeeds).
  int stall_next_hotplugs = 0;
  lv::Duration hotplug_stall;

  // Telemetry, asserted on by tests and exported in the scenario runner's
  // churn-storm `faults` series.
  int64_t injected_create_failures = 0;
  int64_t injected_hotplug_stalls = 0;

  // Consumes one scheduled create failure (crash does not consume a token:
  // a dead node fails every create until reboot).
  bool ShouldFailCreate() {
    if (node_crashed) {
      return true;
    }
    if (fail_next_creates > 0) {
      --fail_next_creates;
      ++injected_create_failures;
      return true;
    }
    return false;
  }

  // Extra latency to add to the next hotplug script run, or zero.
  lv::Duration TakeHotplugStall() {
    if (stall_next_hotplugs > 0) {
      --stall_next_hotplugs;
      ++injected_hotplug_stalls;
      return hotplug_stall;
    }
    return lv::Duration();
  }
};

}  // namespace faults
