// Observability-plane tests: OpId chains stay causally linked across a
// crash-triggered Deploy re-place, the flight recorder's per-node rings
// overwrite oldest-first, and same-seed runs produce byte-identical dumps
// (the recorder is deterministic simulated-time state, not wall-clock).
#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/obs/obs.h"
#include "src/sim/run.h"

namespace obs {
namespace {

using lv::Duration;

toolstack::VmConfig DaytimeConfig(const std::string& name) {
  toolstack::VmConfig config;
  config.name = name;
  config.image = guests::DaytimeUnikernel();
  return config;
}

cluster::ClusterSpec SmallSpec(int nodes) {
  cluster::ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node = lightvm::HostSpec::Xeon4Core();
  spec.mechanisms = lightvm::Mechanisms::LightVm();
  return spec;
}

void Prefill(cluster::Cluster& cl) {
  for (int n = 0; n < cl.num_nodes(); ++n) {
    cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
    cl.host(n).PrefillShellPool();
  }
}

TEST(OpRef, RootsAndChildrenShareOneChain) {
  FlightRecorder::Get().Reset();
  OpRef root = NewOp();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(root.root, root.id);
  EXPECT_EQ(root.parent, 0);

  OpRef child = NewOp(root);
  EXPECT_NE(child.id, root.id);
  EXPECT_EQ(child.root, root.id);
  EXPECT_EQ(child.parent, root.id);

  OpRef grandchild = NewOp(child);
  EXPECT_EQ(grandchild.root, root.id);
  EXPECT_EQ(grandchild.parent, child.id);
}

// Op ids come from one plain counter: consecutive, whatever node the op
// runs on, and rewound by Reset() so same-seed reruns mint the same ids.
TEST(OpRef, ResetRewindsTheOpIdCounter) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Reset();
  OpRef first = NewOp();
  OpRef second = NewOp(first);
  OpRef third = NewOp();
  EXPECT_EQ(first.id, 1);
  EXPECT_EQ(second.id, 2);
  EXPECT_EQ(third.id, 3);
  EXPECT_EQ(third.root, 3);
  recorder.Reset();
  EXPECT_EQ(NewOp().id, 1);
}

// Rings are created on first use for any node index; no up-front sizing.
TEST(FlightRecorderTest, RingsGrowOnDemandForAnyNode) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Reset();
  recorder.Record(5, {}, "test", "far", true, 55);
  recorder.Record(-3, {}, "test", "negative", true, 7);  // clamped to node 0
  ASSERT_EQ(recorder.NodeEvents(5).size(), 1u);
  EXPECT_EQ(recorder.NodeEvents(5)[0].node, 5);
  EXPECT_EQ(recorder.NodeEvents(5)[0].arg, 55);
  for (int node = 1; node < 5; ++node) {
    EXPECT_TRUE(recorder.NodeEvents(node).empty()) << "node " << node;
  }
  ASSERT_EQ(recorder.NodeEvents(0).size(), 1u);
  EXPECT_EQ(recorder.NodeEvents(0)[0].arg, 7);
  EXPECT_TRUE(recorder.NodeEvents(6).empty());

  // The dump lists only nodes that recorded something.
  std::ostringstream out;
  recorder.WriteJson(out);
  std::string json = out.str();
  EXPECT_NE(json.find("\"node\":0,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"node\":5,"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"node\":1,"), std::string::npos) << json;
}

// Events are stamped with the simulated time of the engine that is alive;
// with no engine attached they land at t=0.
TEST(FlightRecorderTest, EventsCarryTheEngineClock) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Reset();
  {
    sim::Engine engine(3);
    engine.Schedule(Duration::Millis(3), [&] {
      recorder.Record(1, {}, "test", "tick", true);
    });
    engine.Run();
  }
  recorder.Record(1, {}, "test", "detached", true);
  std::vector<FlightEvent> events = recorder.NodeEvents(1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts.ns(), Duration::Millis(3).ns());
  EXPECT_EQ(events[1].ts.ns(), 0);
}

TEST(FlightRecorderTest, RingOverwritesOldestFirst) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Reset();
  const int kTotal = FlightRecorder::kRingCapacity + 12;
  for (int i = 0; i < kTotal; ++i) {
    recorder.Record(0, {}, "test", "tick", true, i);
  }
  std::vector<FlightEvent> events = recorder.NodeEvents(0);
  ASSERT_EQ(events.size(), static_cast<size_t>(FlightRecorder::kRingCapacity));
  EXPECT_EQ(recorder.Dropped(0), 12);
  // Oldest surviving event is #12; newest is #kTotal-1; order is stable.
  EXPECT_EQ(events.front().arg, 12);
  EXPECT_EQ(events.back().arg, kTotal - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, events[i - 1].arg + 1);
  }
  // Other nodes are untouched.
  EXPECT_TRUE(recorder.NodeEvents(1).empty());
  EXPECT_EQ(recorder.Dropped(1), 0);
}

// The acceptance scenario for causal tracing: a Deploy whose first placement
// dies mid-create re-places on the survivor. Both node-level create jobs
// must be children of the SAME Deploy op — that shared ancestry is what
// makes the exported trace render the whole story as one connected flow.
TEST(FlightRecorderTest, CausalChainSurvivesCrashTriggeredReplace) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Reset();
  sim::Engine engine(1);
  cluster::Cluster cl(&engine, SmallSpec(2),
                      std::make_unique<cluster::LeastLoaded>());
  Prefill(cl);
  cl.StartHealthMonitor();

  // Crash node 0 (the tie-break pick) while its create job is in flight.
  engine.Schedule(Duration::Micros(200), [&] { cl.CrashNode(0); });
  auto h = sim::RunToCompletion(engine, cl.Deploy(DaytimeConfig("replaced"),
                                                  /*wait_boot=*/true));
  ASSERT_TRUE(h.ok()) << h.error().message;
  EXPECT_EQ(h->node, 1);

  // The cluster-layer "deploy" record on the first pick names the Deploy op.
  int64_t deploy_op = 0;
  for (const FlightEvent& ev : recorder.NodeEvents(0)) {
    if (std::string_view(ev.layer) == "cluster" &&
        std::string_view(ev.verb) == "deploy") {
      deploy_op = ev.op;
    }
  }
  ASSERT_NE(deploy_op, 0);

  // Each node ran one create job; both jobs are distinct ops minted under
  // the one Deploy.
  auto find_create = [&](int node) -> FlightEvent {
    for (const FlightEvent& ev : recorder.NodeEvents(node)) {
      if (std::string_view(ev.layer) == "node" &&
          std::string_view(ev.verb) == "create") {
        return ev;
      }
    }
    return FlightEvent{};
  };
  FlightEvent first = find_create(0);
  FlightEvent second = find_create(1);
  ASSERT_NE(first.op, 0);
  ASSERT_NE(second.op, 0);
  EXPECT_NE(first.op, second.op);
  EXPECT_EQ(first.parent, deploy_op);
  EXPECT_EQ(second.parent, deploy_op);

  // The crash itself and the re-place decision are on the record too.
  bool saw_crash = false;
  bool saw_replace = false;
  for (const FlightEvent& ev : recorder.NodeEvents(0)) {
    if (std::string_view(ev.layer) == "host" &&
        std::string_view(ev.verb) == "crash") {
      saw_crash = true;
    }
    if (std::string_view(ev.verb) == "deploy.replace") {
      saw_replace = true;
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_replace);
}

TEST(FlightRecorderTest, SameSeedDumpsAreByteIdentical) {
  auto run_once = [](std::string* dump) {
    FlightRecorder& recorder = FlightRecorder::Get();
    recorder.Reset();
    sim::Engine engine(7);
    cluster::Cluster cl(&engine, SmallSpec(2),
                        std::make_unique<cluster::LeastLoaded>());
    Prefill(cl);
    cl.StartHealthMonitor();
    engine.Schedule(Duration::Micros(200), [&] { cl.CrashNode(0); });
    std::vector<cluster::VmHandle> handles;
    for (int i = 0; i < 3; ++i) {
      auto h = sim::RunToCompletion(
          engine, cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true));
      ASSERT_TRUE(h.ok()) << h.error().message;
      handles.push_back(*h);
    }
    for (const cluster::VmHandle& h : handles) {
      ASSERT_TRUE(sim::RunToCompletion(engine, cl.Retire(h)).ok());
    }
    std::ostringstream out;
    recorder.WriteJson(out);
    *dump = out.str();
  };

  std::string dump1;
  std::string dump2;
  run_once(&dump1);
  run_once(&dump2);
  EXPECT_FALSE(dump1.empty());
  EXPECT_EQ(dump1, dump2);
}

// MaybeDump with no configured path must be a no-op (the always-on recorder
// may never create files unless a dump path was armed).
TEST(FlightRecorderTest, MaybeDumpWithoutPathIsANoOp) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Reset();
  recorder.set_dump_path("");
  recorder.Record(0, {}, "test", "tick", true);
  recorder.MaybeDump();  // must not crash or write anywhere
  EXPECT_EQ(recorder.Dropped(0), 0);
}

}  // namespace
}  // namespace obs
