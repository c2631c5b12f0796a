// Causal operation tracing + always-on flight recorder: the third
// observability layer, alongside src/trace (default-off timeline) and
// src/metrics (always-on aggregates).
//
// The three layers answer different questions:
//   - trace:   "where did the time go in THIS run" (timeline; off by default
//              because the buffer grows with the run)
//   - metrics: "how much work of each kind happened, and what did the
//              latency distribution look like" (fixed memory, always on)
//   - obs:     "what is the causal story of ONE operation, across nodes"
//              (OpId chains + a bounded ring of recent events, always on)
//
// OpId propagation contract: the layer that *initiates* an operation mints
// an OpRef (`NewOp`) — `cluster::Deploy/Retire/Migrate` mint roots, NodeApi
// jobs mint children of the submitting cluster op, recovery-loop
// evacuations mint children of the original deploy. The op id and its root
// ride in `sim::ExecCtx` next to the trace track, so the toolstack, device
// hotplug and fault paths can stamp events without new parameters. The
// root id doubles as the Chrome trace_event *flow* id: every span of one
// Deploy — including a crash-triggered re-place on another node — shares
// one flow and renders as a single connected arc in Perfetto.
//
// Flight recorder: a fixed-size per-node ring of structured events (op id,
// layer, verb, outcome, sim timestamp). Recording is one clock read plus a
// ring-slot write, charges no simulated work, and is never disabled — the
// rings are dumped to JSON by `bench::FailRun`, by
// `lightvm::VerifyNoLeakedResources` violations and on typed Deploy
// double-failure errors, so every red CI run carries a "last N events per
// node" post-mortem.
//
// Determinism: events are stamped with *simulated* time (the engine
// attaches a clock, same pattern as Logger/Tracer) and op ids come from a
// plain monotonic counter, so same-seed runs produce byte-identical dumps
// after a `Reset()` (which rewinds the counter too).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace obs {

// Causal identity of one control-plane operation. `id` is unique within
// the process; `root` names the chain the op belongs to (== id for root
// ops) and doubles as the exported flow id. id == 0 means "no operation".
struct OpRef {
  int64_t id = 0;
  int64_t root = 0;
  int64_t parent = 0;  // id of the op this one was minted under (0 = root)

  bool valid() const { return id != 0; }
};

// Mints a fresh operation; a child op inherits the parent's root so the
// whole causal chain shares one flow id.
OpRef NewOp(OpRef parent = {});

// One flight-recorder entry. `layer`/`verb` are string literals (no
// allocation on the record path).
struct FlightEvent {
  lv::TimePoint ts;
  int64_t op = 0;
  int64_t parent = 0;
  int node = 0;
  const char* layer = "";
  const char* verb = "";
  bool ok = true;
  int64_t arg = 0;  // verb-specific detail: domid, count, duration in ms...
};

class FlightRecorder {
 public:
  static FlightRecorder& Get();

  // Events kept per node; older ones are overwritten.
  static constexpr int kRingCapacity = 128;

  // The engine installs a callback so events carry simulated time (the
  // same pattern as Logger::AttachClock / Tracer::AttachClock).
  using NowFn = lv::TimePoint (*)(void* ctx);
  void AttachClock(NowFn fn, void* ctx) {
    now_fn_ = fn;
    now_ctx_ = ctx;
  }
  void DetachClock() {
    now_fn_ = nullptr;
    now_ctx_ = nullptr;
  }

  // Always on; never charges simulated work.
  void Record(int node, const OpRef& op, const char* layer, const char* verb,
              bool ok, int64_t arg = 0);

  // Oldest-to-newest events currently held for `node` (empty if none).
  std::vector<FlightEvent> NodeEvents(int node) const;
  // Events overwritten so far on `node` (total recorded - ring size).
  int64_t Dropped(int node) const;

  // JSON dump of every node's ring, oldest event first. Timestamps are
  // integer nanoseconds — byte-identical across same-seed runs.
  void WriteJson(std::ostream& out) const;
  bool DumpJson(const std::string& path) const;

  // Where MaybeDump() writes; empty disables it. Benches set this from
  // --flight-out; the failure hooks call MaybeDump() so a dump appears
  // exactly when the run goes red.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  void MaybeDump() const;

  // Clears every ring AND rewinds the op-id counter, so a same-seed rerun
  // reproduces a byte-identical dump. The clock and dump path survive.
  void Reset();

 private:
  FlightRecorder() = default;
  lv::TimePoint Now() const { return now_fn_ ? now_fn_(now_ctx_) : lv::TimePoint(); }

  struct Ring {
    std::vector<FlightEvent> slots;  // grows to kRingCapacity, then wraps
    size_t next = 0;
    int64_t total = 0;
  };

  NowFn now_fn_ = nullptr;
  void* now_ctx_ = nullptr;
  std::vector<Ring> rings_;  // indexed by node id
  std::string dump_path_;
};

}  // namespace obs
