// Cross-layer boot tracing: spans, instants and flows keyed to simulated
// time. The control plane (engine, hypervisor, XenStore, toolstacks)
// records onto a process-wide Tracer; src/trace/export.h turns the buffer
// into a Chrome trace_event JSON file (chrome://tracing, Perfetto), and the
// Figure 5 breakdown is derived from the recorded spans rather than
// hand-placed timers.
//
// The trace records *when* things happened, not *how many*: counts
// (hypercalls, pages populated, store ops) live only in the always-on
// metrics registry (src/metrics) and dispatched events in
// sim::Engine::processed_events(), so a traced run pays nothing per counted
// operation.
//
// Clock: like lv::Logger, the Tracer carries no clock of its own — the
// sim::Engine attaches a callback (AttachClock) so every event is stamped
// with *simulated* time. Without a clock attached, events land at t=0.
//
// Threading: the simulation is single-threaded; the Tracer is not
// thread-safe. Coroutines interleave only at suspension points, so span
// nesting is kept per *track* (one track per VM creation, one per daemon),
// never across tracks. A track's spans therefore always nest properly as
// long as one coroutine chain owns the track, which is how the
// instrumentation uses them (the track rides along in sim::ExecCtx).
//
// Overhead: tracing is default-off. Every recording call checks enabled()
// first (a plain bool), records no simulated work ever, and allocates
// nothing when disabled — benchmarks that do not opt in measure identical
// simulated times (acceptance-tested against fig04).
//
// Example:
//   trace::Tracer& tracer = trace::Tracer::Get();
//   tracer.Enable();
//   {
//     trace::Span create(track, "vm.create");
//     {
//       trace::Span phase(track, "create.config");   // nested child
//       ...
//     }
//   }
//   trace::WriteChromeTraceFile(tracer, "trace.json");
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace trace {

// A track is one horizontal row in the exported trace (a Chrome "thread").
// Track 0 always exists and is named "host".
using TrackId = int32_t;
inline constexpr TrackId kHostTrack = 0;

enum class EventType : uint8_t { kBegin, kEnd, kInstant, kFlow };

struct Event {
  EventType type = EventType::kInstant;
  TrackId track = kHostTrack;
  lv::TimePoint ts;
  std::string name;
  int64_t flow = 0;  // Flow id binding causally-linked events (kFlow only).
};

// Aggregate over all closed spans with one name (see Tracer::SpanStats).
struct SpanStat {
  int64_t count = 0;
  lv::Duration total;
};

class Tracer {
 public:
  // The process-wide tracer.
  static Tracer& Get();

  // Runtime on/off switch; default off. Disabling mid-span is safe: a live
  // Span guard still records its end so the buffer stays balanced.
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // The engine installs a callback so events carry simulated time (the
  // same pattern as Logger::AttachClock).
  using NowFn = lv::TimePoint (*)(void* ctx);
  void AttachClock(NowFn fn, void* ctx) {
    now_fn_ = fn;
    now_ctx_ = ctx;
  }
  void DetachClock() {
    end_ = Now();
    now_fn_ = nullptr;
    now_ctx_ = nullptr;
  }

  // Re-bases the clock for a new simulated-time epoch. A fresh sim::Engine
  // restarts simulated time at zero; calling this between engines shifts
  // all subsequent stamps to start where the last engine's clock stopped
  // (at or after every event it stamped), so one exported file stays in a
  // single monotonic time domain across engines (the scenario runner uses
  // one engine per benchmark series).
  void BeginEpoch() { epoch_ = events_.empty() ? lv::Duration() : end_ - lv::TimePoint(); }

  // Registers a named track. Cheap (one string); long-lived components
  // (daemons) register unconditionally, per-VM tracks only when enabled.
  TrackId NewTrack(std::string name);
  const std::vector<std::string>& tracks() const { return track_names_; }

  // --- Recording (all no-ops while disabled, except EndSpan) ---------------

  void BeginSpan(TrackId track, std::string name);
  // Closes the innermost open span on `track`. Records even while disabled
  // so RAII guards opened before Disable() stay balanced.
  void EndSpan(TrackId track);
  void Instant(TrackId track, std::string name);
  // Records a step of flow `id` on `track`. Events sharing an id are
  // exported as one Chrome trace_event flow (a connected arc across
  // tracks); src/obs uses the causal root OpId as the id, so one cluster
  // Deploy — creates, evacuation, re-create on another node — renders as a
  // single arc.
  void Flow(TrackId track, std::string name, int64_t id);

  // --- Queries -------------------------------------------------------------

  const std::vector<Event>& events() const { return events_; }
  // Aggregates every *closed* span by name, across all tracks.
  std::map<std::string, SpanStat> SpanStats() const;
  // Total duration of all closed spans named `name` (zero if none).
  lv::Duration SpanTotal(const std::string& name) const;
  // Names of depth-0 spans begun on `track`, in begin order.
  std::vector<std::string> TopLevelSpans(TrackId track) const;

  // Drops events; tracks and the clock survive. Used by benches to bound
  // memory when tracing long runs (one Clear per sample).
  void Clear();
  // Back to a freshly constructed tracer (tests).
  void Reset();

 private:
  Tracer() = default;
  lv::TimePoint Now() const {
    return (now_fn_ ? now_fn_(now_ctx_) : lv::TimePoint()) + epoch_;
  }

  bool enabled_ = false;
  NowFn now_fn_ = nullptr;
  void* now_ctx_ = nullptr;
  lv::Duration epoch_;  // Stamp shift for the current engine epoch.
  lv::TimePoint end_;   // Clock reading at the last DetachClock.
  std::vector<Event> events_;
  std::vector<std::string> track_names_{"host"};
  // Per-track stack of open-span event indices (drives EndSpan naming).
  std::vector<std::vector<size_t>> open_{{}};
};

// RAII span guard: begins on construction (when tracing is enabled), ends
// on destruction or an explicit End(). Move-only; safe to hold across
// co_await — the end is stamped with the simulated time at resume.
//
// To reuse one guard for consecutive phases, End() it before assigning the
// next span: `phase.End(); phase = Span(track, "next");`. Plain
// `phase = Span(...)` begins the new span before the old one ends (the
// right-hand side is evaluated first), which crosses the begin/end pairs.
class Span {
 public:
  Span() = default;
  // Takes a C string so a disabled tracer costs one branch: the name is
  // copied into a std::string only when the span is recorded.
  Span(TrackId track, const char* name) {
    Tracer& tracer = Tracer::Get();
    if (tracer.enabled()) {
      tracer_ = &tracer;
      track_ = track;
      tracer.BeginSpan(track, name);
    }
  }
  Span(Span&& other) noexcept : tracer_(other.tracer_), track_(other.track_) {
    other.tracer_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      tracer_ = other.tracer_;
      track_ = other.track_;
      other.tracer_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  void End() {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(track_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  TrackId track_ = kHostTrack;
};

}  // namespace trace
