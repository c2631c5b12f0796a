// Unit tests for the trace subsystem: span nesting, simulated-time
// ordering, the Chrome trace_event exporter, and an integration check that a
// full xl domain creation emits the expected span tree while its counts land
// in the metrics registry, not in the trace.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/host.h"
#include "src/guests/image.h"
#include "src/metrics/metrics.h"
#include "src/sim/engine.h"
#include "src/sim/run.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace trace {
namespace {

using lv::Duration;

// The Tracer is a process-wide singleton; every test starts from scratch.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Get().Reset(); }
  void TearDown() override { Tracer::Get().Reset(); }
};

sim::Co<void> NestedSpans(sim::Engine* engine, TrackId track) {
  Span outer(track, "vm.create");
  {
    Span inner(track, "create.config");
    co_await engine->Sleep(Duration::Millis(10));
  }
  {
    Span inner(track, "create.devices");
    co_await engine->Sleep(Duration::Millis(30));
  }
}

TEST_F(TraceTest, SpansNestPerTrackAndAggregate) {
  sim::Engine engine;  // Attaches the simulated clock.
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  TrackId track = tracer.NewTrack("vm:test");
  engine.Spawn(NestedSpans(&engine, track));
  engine.Run();

  auto stats = tracer.SpanStats();
  ASSERT_EQ(stats.count("vm.create"), 1u);
  ASSERT_EQ(stats.count("create.config"), 1u);
  ASSERT_EQ(stats.count("create.devices"), 1u);
  EXPECT_EQ(stats["vm.create"].count, 1);
  EXPECT_DOUBLE_EQ(stats["vm.create"].total.ms(), 40.0);
  EXPECT_DOUBLE_EQ(stats["create.config"].total.ms(), 10.0);
  EXPECT_DOUBLE_EQ(stats["create.devices"].total.ms(), 30.0);
  // Only the outermost span is top-level on the track.
  EXPECT_EQ(tracer.TopLevelSpans(track), (std::vector<std::string>{"vm.create"}));
}

// The toolstacks reuse one guard across consecutive phases via
// `phase.End(); phase = Span(...)` — verify that pattern yields adjacent,
// non-crossing spans.
TEST_F(TraceTest, ReusedGuardYieldsConsecutiveSpans) {
  sim::Engine engine;
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  {
    Span phase(kHostTrack, "phase.a");
    engine.RunUntil(lv::TimePoint() + Duration::Millis(5));
    phase.End();
    phase = Span(kHostTrack, "phase.b");
    engine.RunUntil(lv::TimePoint() + Duration::Millis(20));
  }
  auto stats = tracer.SpanStats();
  EXPECT_DOUBLE_EQ(stats["phase.a"].total.ms(), 5.0);
  EXPECT_DOUBLE_EQ(stats["phase.b"].total.ms(), 15.0);
  // Both are top-level: the pairs do not nest or cross.
  EXPECT_EQ(tracer.TopLevelSpans(kHostTrack),
            (std::vector<std::string>{"phase.a", "phase.b"}));
}

TEST_F(TraceTest, EventsCarrySimulatedTimeInOrder) {
  sim::Engine engine;
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  engine.Schedule(Duration::Millis(1), [&] { tracer.BeginSpan(kHostTrack, "span"); });
  engine.Schedule(Duration::Millis(2), [&] { tracer.EndSpan(kHostTrack); });
  engine.Schedule(Duration::Millis(3), [] {});
  engine.Run();
  // Dispatching an event records nothing by itself: the buffer holds
  // exactly the span's begin and end, stamped with the simulated time they
  // ran at.
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kBegin);
  EXPECT_EQ(events[1].type, EventType::kEnd);
  EXPECT_EQ(events[0].ts.ms(), 1.0);
  EXPECT_EQ(events[1].ts.ms(), 2.0);
  EXPECT_EQ(engine.processed_events(), 3);
}

// Each simulation owns one engine whose clock starts at zero; BeginEpoch
// between engines keeps one recorded buffer in a single monotonic timeline.
TEST_F(TraceTest, BeginEpochPlacesNextEngineAfterTheBuffer) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  {
    sim::Engine engine;
    engine.Schedule(Duration::Millis(4), [] { Span first(kHostTrack, "first"); });
    engine.Run();
  }
  tracer.BeginEpoch();
  {
    sim::Engine engine;
    engine.Schedule(Duration::Millis(1), [] { Span second(kHostTrack, "second"); });
    engine.Run();
  }
  std::vector<double> begin_ts;
  for (const Event& ev : tracer.events()) {
    if (ev.type == EventType::kBegin) {
      begin_ts.push_back(ev.ts.ms());
    }
  }
  EXPECT_EQ(begin_ts, (std::vector<double>{4.0, 5.0}));
  // Clear drops the epoch with the buffer.
  tracer.Clear();
  { Span after_clear(kHostTrack, "after-clear"); }
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].ts.ns(), 0);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  ASSERT_FALSE(tracer.enabled());
  {
    Span span(kHostTrack, "never");
    tracer.Flow(kHostTrack, "never", 1);
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST_F(TraceTest, DisablingMidSpanKeepsTheBufferBalanced) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  {
    Span span(kHostTrack, "half");
    tracer.Disable();
  }  // The guard still records its end.
  int begins = 0;
  int ends = 0;
  for (const Event& ev : tracer.events()) {
    begins += ev.type == EventType::kBegin;
    ends += ev.type == EventType::kEnd;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsTracks) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  TrackId track = tracer.NewTrack("xenstored");
  { Span span(track, "something"); }
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  ASSERT_EQ(tracer.tracks().size(), 2u);
  EXPECT_EQ(tracer.tracks()[1], "xenstored");
  // A new span on the surviving track still records.
  { Span span(track, "after"); }
  auto stats = tracer.SpanStats();
  EXPECT_EQ(stats.count("something"), 0u);
  EXPECT_EQ(stats.count("after"), 1u);
}

// Minimal structural validation of the exporter output; the full JSON parse
// is covered by scripts/check_trace_json.py (registered as a ctest).
TEST_F(TraceTest, ChromeExportIsWellFormed) {
  sim::Engine engine;
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  TrackId track = tracer.NewTrack("vm:\"quoted\"");
  {
    Span span(track, "vm.create");
    engine.RunUntil(lv::TimePoint() + Duration::Millis(1));
  }
  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  std::string json = out.str();

  // Balanced braces/brackets outside string literals.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("vm:\\\"quoted\\\""), std::string::npos);  // Escaped name.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

double CounterValue(const char* name) {
  const metrics::Counter* counter = metrics::Registry::Get().FindCounter(name);
  return counter == nullptr ? 0.0 : counter->value();
}

// Integration: one xl domain creation yields the span tree the Figure 5
// analysis depends on — a single top-level vm.create on the VM's track with
// all six phase spans under it, and a guest.boot on the guest's track. Its
// counts move the registry; the exported trace carries none.
TEST_F(TraceTest, DomainCreationEmitsExpectedSpans) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), lightvm::Mechanisms::Xl());
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  const double hypercalls = CounterValue("hv.hypervisor.hypercalls");
  const double store_ops = CounterValue("xenstore.daemon.ops");
  const double pages = CounterValue("hv.memory.pages_populated");
  const int64_t events = engine.processed_events();

  toolstack::VmConfig config;
  config.name = "web0";
  config.image = guests::DaytimeUnikernel();
  auto domid = sim::RunToCompletion(engine, host.CreateVm(config));
  ASSERT_TRUE(domid.ok());
  guests::Guest* guest = host.guest(*domid);
  ASSERT_NE(guest, nullptr);
  ASSERT_TRUE(sim::RunUntilCondition(engine, [&] { return guest->booted(); },
                                     Duration::Seconds(600)));

  // Find the VM's creation track and the guest's boot track.
  const auto& tracks = tracer.tracks();
  TrackId vm_track = -1;
  TrackId guest_track = -1;
  for (size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i] == "vm:web0") {
      vm_track = static_cast<TrackId>(i);
    } else if (tracks[i].rfind("guest:", 0) == 0) {
      guest_track = static_cast<TrackId>(i);
    }
  }
  ASSERT_NE(vm_track, -1) << "no per-VM track registered";
  ASSERT_NE(guest_track, -1) << "no per-guest track registered";
  EXPECT_EQ(tracer.TopLevelSpans(vm_track), (std::vector<std::string>{"vm.create"}));
  EXPECT_EQ(tracer.TopLevelSpans(guest_track),
            (std::vector<std::string>{"guest.boot"}));

  auto stats = tracer.SpanStats();
  for (const char* phase : {"create.config", "create.toolstack", "create.hypervisor",
                            "create.xenstore", "create.devices", "create.load",
                            "create.boot"}) {
    EXPECT_EQ(stats.count(phase), 1u) << "missing phase span " << phase;
  }
  // The phases partition vm.create up to the boot tail.
  lv::Duration phases = stats["create.config"].total + stats["create.toolstack"].total +
                        stats["create.hypervisor"].total + stats["create.xenstore"].total +
                        stats["create.devices"].total + stats["create.load"].total +
                        stats["create.boot"].total;
  EXPECT_DOUBLE_EQ(phases.ms(), stats["vm.create"].total.ms());
  // Hot-path counts moved, in the registry and the engine.
  EXPECT_GT(CounterValue("hv.hypervisor.hypercalls"), hypercalls);
  EXPECT_GT(CounterValue("xenstore.daemon.ops"), store_ops);
  EXPECT_GT(CounterValue("hv.memory.pages_populated"), pages);
  EXPECT_GT(engine.processed_events(), events);
  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  EXPECT_EQ(out.str().find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace
}  // namespace trace
