// XenStore protocol cost model (paper §4.2).
//
// "The protocol used by the XenStore is quite expensive, where each operation
//  requires sending a message and receiving an acknowledgment, each
//  triggering a software interrupt: a single read or write thus triggers at
//  least two, and most often four, software interrupts and multiple domain
//  changes."
//
// Each request therefore pays: client marshalling, two client-side software
// interrupts (send + response delivery), two daemon-side interrupts, base
// daemon processing, access logging to 20 files (rotated every 13,215 lines,
// producing the spikes in Figures 4 and 9), plus effort-proportional terms
// for tree walks, watch-list scans, unique-name comparisons and payload
// bytes. No create path lists a directory, so XS_DIRECTORY's O(#children)
// listing has no term.
#pragma once

#include "src/base/time.h"

namespace xs {

struct Costs {
  // One software interrupt + the associated domain change.
  lv::Duration soft_interrupt = lv::Duration::Micros(8);
  // Interrupts on the requesting side per operation (send + response).
  int client_interrupts = 2;
  // Interrupts on the daemon side per operation.
  int daemon_interrupts = 2;
  // Marshalling a request / unmarshalling a response in the client library.
  lv::Duration client_marshal = lv::Duration::Micros(2);
  // Base processing of one request inside the store daemon.
  lv::Duration daemon_base = lv::Duration::Micros(10);
  // Per tree-node lookup cost.
  lv::Duration per_node = lv::Duration::Nanos(400);
  // Per registered-watch match check on each mutation (O(#watches) scan).
  lv::Duration per_watch_check = lv::Duration::Nanos(1000);
  // Delivering one fired watch event to its watcher (message + interrupt).
  lv::Duration per_watch_fire = lv::Duration::Micros(10);
  // Per existing-guest-name comparison during unique-name admission.
  lv::Duration per_name_check = lv::Duration::Micros(30);
  // Per payload byte (copy in/out of the ring).
  lv::Duration per_byte = lv::Duration::Nanos(10);
  // Extra bookkeeping for transaction begin/commit.
  lv::Duration txn_overhead = lv::Duration::Micros(20);

  // --- Access logging (the spikes) ----------------------------------------
  bool logging_enabled = true;
  int log_files = 20;
  // Appending one line to all log files, per request.
  lv::Duration log_append = lv::Duration::Micros(12);
  int64_t log_rotate_lines = 13215;
  // Rotating a single log file.
  lv::Duration log_rotate_per_file = lv::Duration::Millis(15);
};

}  // namespace xs
