// Unit tests for the trace subsystem: span nesting, counter aggregation,
// simulated-time ordering, the Chrome trace_event exporter, and an
// integration check that a full xl domain creation emits the expected span
// tree.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/host.h"
#include "src/guests/image.h"
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

TEST_F(TraceTest, CountersAccumulateRunningTotals) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  Count("hv.hypercalls", 1);
  Count("hv.hypercalls", 1);
  Count("hv.bytes_copied", 4096);
  Count("hv.hypercalls", 1);
  EXPECT_DOUBLE_EQ(tracer.counter_total("hv.hypercalls"), 3.0);
  EXPECT_DOUBLE_EQ(tracer.counter_total("hv.bytes_copied"), 4096.0);
  EXPECT_DOUBLE_EQ(tracer.counter_total("missing"), 0.0);
  // Each sample records the running total at that point.
  std::vector<double> totals;
  for (const Event& ev : tracer.events()) {
    if (ev.type == EventType::kCounter && ev.name == "hv.hypercalls") {
      totals.push_back(ev.value);
    }
  }
  EXPECT_EQ(totals, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_F(TraceTest, EventsCarrySimulatedTimeInOrder) {
  sim::Engine engine;
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  engine.Schedule(Duration::Millis(1), [&] { tracer.Instant(kHostTrack, "first"); });
  engine.Schedule(Duration::Millis(2), [&] { tracer.Instant(kHostTrack, "second"); });
  engine.Schedule(Duration::Millis(3), [&] { Count("tick", 1); });
  engine.Run();
  // The engine's own dispatch counter records too; filter to the instants.
  const auto& events = tracer.events();
  std::vector<double> instant_ts;
  for (const Event& ev : events) {
    if (ev.type == EventType::kInstant) {
      instant_ts.push_back(ev.ts.ms());
    }
  }
  EXPECT_EQ(instant_ts, (std::vector<double>{1.0, 2.0}));
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts.ns(), events[i - 1].ts.ns());
  }
  EXPECT_DOUBLE_EQ(tracer.counter_total("tick"), 1.0);
}

// Each simulation owns one engine whose clock starts at zero; BeginEpoch
// between engines keeps one recorded buffer in a single monotonic timeline.
TEST_F(TraceTest, BeginEpochPlacesNextEngineAfterTheBuffer) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  {
    sim::Engine engine;
    engine.Schedule(Duration::Millis(4), [&] { tracer.Instant(kHostTrack, "first"); });
    engine.Run();
  }
  tracer.BeginEpoch();
  {
    sim::Engine engine;
    engine.Schedule(Duration::Millis(1), [&] { tracer.Instant(kHostTrack, "second"); });
    engine.Run();
  }
  std::vector<double> instant_ts;
  for (const Event& ev : tracer.events()) {
    if (ev.type == EventType::kInstant) {
      instant_ts.push_back(ev.ts.ms());
    }
  }
  EXPECT_EQ(instant_ts, (std::vector<double>{4.0, 5.0}));
  // Clear drops the epoch with the buffer.
  tracer.Clear();
  tracer.Instant(kHostTrack, "after-clear");
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].ts.ns(), 0);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  ASSERT_FALSE(tracer.enabled());
  {
    Span span(kHostTrack, "never");
    Count("never", 1);
    tracer.Instant(kHostTrack, "never");
  }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_TRUE(tracer.counters().empty());
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
  tracer.Instant(track, "something");
  Count("xs.ops", 5);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_DOUBLE_EQ(tracer.counter_total("xs.ops"), 0.0);
  ASSERT_EQ(tracer.tracks().size(), 2u);
  EXPECT_EQ(tracer.tracks()[1], "xenstored");
  // A new span on the surviving track still records.
  { Span span(track, "after"); }
  EXPECT_EQ(tracer.SpanStats().count("after"), 1u);
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
    Count("hv.hypercalls", 2);
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
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

// Integration: one xl domain creation yields the span tree the Figure 5
// analysis depends on — a single top-level vm.create on the VM's track with
// all six phase spans under it, and a guest.boot on the guest's track.
TEST_F(TraceTest, DomainCreationEmitsExpectedSpans) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), lightvm::Mechanisms::Xl());
  Tracer& tracer = Tracer::Get();
  tracer.Enable();

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
  // Hot-path counters moved.
  EXPECT_GT(tracer.counter_total("hv.hypercalls"), 0.0);
  EXPECT_GT(tracer.counter_total("xs.ops"), 0.0);
  EXPECT_GT(tracer.counter_total("hv.pages_populated"), 0.0);
  EXPECT_GT(tracer.counter_total("engine.events"), 0.0);
}

}  // namespace
}  // namespace trace
