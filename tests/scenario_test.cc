// Scenario layer: strict spec parsing, the determinism contract of the
// runner, and paper fidelity of the fig04-equivalent spec against a direct
// Host loop with identical measurement semantics.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/core/host.h"
#include "src/obs/obs.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"
#include "src/sim/engine.h"
#include "src/sim/run.h"
#include "src/toolstack/config.h"
#include "src/xenstore/policy.h"
#include "src/xenstore/store.h"

namespace {

// --- JSON reader ------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  auto v = lv::json::Parse(R"({
    // comments are allowed
    "s": "hi", "i": 42, "f": -2.5e1, "b": true, "n": null,
    "a": [1, 2, 3],
    "o": { "nested": "yes" },
  })");
  ASSERT_TRUE(v.ok()) << v.error().ToString();
  EXPECT_EQ(v->Get("s")->AsString(), "hi");
  EXPECT_EQ(v->Get("i")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(v->Get("f")->AsDouble(), -25.0);
  EXPECT_TRUE(v->Get("b")->AsBool());
  EXPECT_TRUE(v->Get("n")->is_null());
  EXPECT_EQ(v->Get("a")->AsArray().size(), 3u);
  EXPECT_EQ(v->Get("o")->Get("nested")->AsString(), "yes");
  EXPECT_EQ(v->Get("missing"), nullptr);
}

TEST(Json, RejectsDuplicateKeys) {
  auto v = lv::json::Parse(R"({"a": 1, "a": 2})");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().ToString().find("duplicate key"), std::string::npos);
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(lv::json::Parse(R"({"a": 1} extra)").ok());
  EXPECT_FALSE(lv::json::Parse(R"([1, 2)").ok());
  EXPECT_FALSE(lv::json::Parse("").ok());
}

TEST(Json, ErrorsCarryLineAndColumn) {
  auto v = lv::json::Parse("{\n  \"a\": @\n}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().ToString().find("line 2 column 8"), std::string::npos)
      << v.error().ToString();
}

// --- Spec parsing -----------------------------------------------------------

TEST(Spec, RoundTripAllFields) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "title": "a title", "seed": 7,
    "mechanisms": "lightvm",
    "topology": { "nodes": 4, "host": { "preset": "amd64" } },
    "shell_pool": { "image": "daytime", "target": 12 },
    "workload": {
      "kind": "fleet-deploy", "image": "daytime", "vms": 100,
      "concurrency": 4, "policies": ["first-fit", "least-loaded"]
    },
    "output": { "sample_points": 9 }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->name, "t");
  EXPECT_EQ(spec->title, "a title");
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->topology.nodes, 4);
  EXPECT_EQ(spec->topology.host.preset, "amd64");
  ASSERT_TRUE(spec->shell_pool.has_value());
  EXPECT_EQ(spec->shell_pool->image, "daytime");
  EXPECT_EQ(spec->shell_pool->target, 12);
  EXPECT_EQ(spec->workload.kind, scenario::WorkloadKind::kFleetDeploy);
  EXPECT_EQ(spec->workload.vms, 100);
  EXPECT_EQ(spec->workload.concurrency, 4);
  EXPECT_EQ(spec->workload.policies,
            (std::vector<std::string>{"first-fit", "least-loaded"}));
  EXPECT_EQ(spec->sample_points, 9);
}

TEST(Spec, DefaultsApply) {
  auto spec = scenario::ParseSpec(R"({
    "name": "d",
    "workload": {
      "kind": "sequential-boots",
      "guests": [ { "image": "daytime", "count": 3 } ]
    }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->seed, 1u);
  EXPECT_EQ(spec->mechanisms, "lightvm");
  EXPECT_EQ(spec->topology.nodes, 1);
  EXPECT_EQ(spec->topology.host.preset, "xeon4");
  EXPECT_FALSE(spec->shell_pool.has_value());
  EXPECT_EQ(spec->sample_points, 25);
  ASSERT_EQ(spec->workload.guests.size(), 1u);
  // series defaults to the image name, name_prefix to "<series>-".
  EXPECT_EQ(spec->workload.guests[0].series, "daytime");
  EXPECT_EQ(spec->workload.guests[0].name_prefix, "daytime-");
}

TEST(Spec, UnknownTopLevelKeyRejected) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "wokload": {},
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.error().ToString().find("unknown key 'wokload'"),
            std::string::npos)
      << spec.error().ToString();
}

TEST(Spec, UnknownNestedKeyRejected) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t",
    "workload": { "kind": "churn-storm", "operations": 10, "max_live": 5,
                  "opps": 3 }
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.error().ToString().find("key 'opps'"), std::string::npos)
      << spec.error().ToString();

  // A key older specs carried is rejected like any other unknown key.
  auto stale = scenario::ParseSpec(R"({
    "name": "t", "topology": { "nodes": 4, "shards": 4 },
    "workload": { "kind": "fleet-deploy", "vms": 10,
                  "policies": ["least-loaded"] }
  })");
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.error().ToString().find("key 'shards'"), std::string::npos)
      << stale.error().ToString();

  // So is each key older specs could carry to override a preset's cores,
  // the link, a pool's network appetite or a deploy's boot wait (the size
  // keys are in NumbersOutOfRangeRejected).
  const std::string boots = R"("workload": { "kind": "sequential-boots",
                               "guests": [ { "image": "daytime", "count": 1 } ] })";
  const std::string fleet = R"("workload": { "kind": "fleet-deploy", "vms": 4 })";
  const std::pair<std::string, std::string> removed[] = {
      {"cores", R"("host": { "cores": 8 }, )" + boots},
      {"dom0_cores", R"("host": { "dom0_cores": 2 }, )" + boots},
      {"link_gbps", R"("topology": { "nodes": 2, "link_gbps": 1 }, )" + fleet},
      {"link_rtt_us", R"("topology": { "nodes": 2, "link_rtt_us": 5000 }, )" + fleet},
      {"wants_net", R"("shell_pool": { "image": "daytime", "wants_net": false }, )" + boots},
      {"wait_boot", R"("topology": { "nodes": 2 }, "workload": {
                         "kind": "fleet-deploy", "vms": 4, "wait_boot": false })"},
  };
  for (const auto& [key, body] : removed) {
    auto spec = scenario::ParseSpec(R"({"name": "t", )" + body + "}");
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_NE(spec.error().ToString().find("key '" + key + "'"), std::string::npos)
        << spec.error().ToString();
  }
}

TEST(Spec, ShellPoolRequiresSplitToolstack) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "mechanisms": "xl",
    "shell_pool": { "image": "daytime" },
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.error().ToString().find("shell_pool"), std::string::npos);
}

TEST(Spec, MultiNodeOnlyForFleetDeploy) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "topology": { "nodes": 3 },
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })");
  EXPECT_FALSE(spec.ok());

  auto fleet = scenario::ParseSpec(R"({
    "name": "t",
    "workload": { "kind": "fleet-deploy", "vms": 10,
                  "policies": ["first-fit"] }
  })");
  EXPECT_FALSE(fleet.ok());  // fleet-deploy on a single node

  // A host named twice, once per spelling, runs on neither.
  auto twice = scenario::ParseSpec(R"({
    "name": "t", "topology": { "nodes": 2, "host": { "preset": "amd64" } },
    "host": { "preset": "xeon4" },
    "workload": { "kind": "fleet-deploy", "vms": 4 }
  })");
  ASSERT_FALSE(twice.ok());
  EXPECT_NE(twice.error().ToString().find("topology.host, not both"), std::string::npos)
      << twice.error().ToString();
}

// The `host` shorthand names the host whichever side of `topology` it is
// written on.
TEST(Spec, HostShorthandSurvivesALaterTopology) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "host": { "preset": "amd64" }, "topology": { "nodes": 2 },
    "workload": { "kind": "fleet-deploy", "vms": 4 }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->topology.host.preset, "amd64");
  EXPECT_EQ(spec->topology.nodes, 2);
}

TEST(Spec, UnknownNamesRejected) {
  EXPECT_FALSE(scenario::ParseSpec(R"({
    "name": "t", "mechanisms": "qemu",
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })").ok());
  EXPECT_FALSE(scenario::ParseSpec(R"({
    "name": "t",
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "no-such-image", "count": 1 } ] }
  })").ok());
  EXPECT_FALSE(scenario::ParseSpec(R"({
    "name": "t", "topology": { "nodes": 2 },
    "workload": { "kind": "fleet-deploy", "vms": 10,
                  "policies": ["best-effort"] }
  })").ok());
}

// Numbers are checked against what their field can hold: an integer that
// would wrap, or a time that would overflow a Duration or round to zero,
// is rejected at parse time instead of wrapping or aborting the run.
TEST(Spec, NumbersOutOfRangeRejected) {
  auto expect_rejected = [](const std::string& text, const std::string& why) {
    auto spec = scenario::ParseSpec(text);
    ASSERT_FALSE(spec.ok()) << "accepted: " << text;
    EXPECT_NE(spec.error().ToString().find(why), std::string::npos)
        << spec.error().ToString();
  };
  auto boots = [](const std::string& count, const std::string& output) {
    return R"({"name": "t", "workload": { "kind": "sequential-boots",
               "guests": [ { "image": "daytime", "count": )" +
           count + " } ] }" + output + "}";
  };
  auto fleet = [](const std::string& faults) {
    return R"({"name": "t", "topology": { "nodes": 2 },
               "workload": { "kind": "fleet-deploy", "vms": 4 },
               "faults": )" +
           faults + "}";
  };

  // 2^32 + 3 guests must not boot 3, 2^32 + 10 rows must not print 10.
  expect_rejected(boots("4294967299", ""), "count: out of range");
  expect_rejected(boots("1", R"(, "output": { "sample_points": 4294967306 })"),
                  "sample_points: out of range");
  // A horizon that rounds to 0 ns, and times no Duration can hold.
  expect_rejected(fleet(R"({"random": {"events": 2, "horizon_ms": 1e-7}})"),
                  "horizon_ms: must be > 0");
  expect_rejected(fleet(R"({"random": {"events": 2, "horizon_ms": 1e300}})"),
                  "horizon_ms: out of range");
  expect_rejected(fleet(R"({"events": [{"at_ms": 1e300, "kind": "node-crash", "node": 1}]})"),
                  "at_ms: out of range");

  // The host is a preset and an image is used as registered, so a size key
  // is unknown whatever its value.
  auto host = [](const std::string& field) {
    return R"({"name": "t", "topology": { "nodes": 2, "host": { )" + field +
           R"( } }, "workload": { "kind": "fleet-deploy", "vms": 4 } })";
  };
  auto padded = [](const std::string& mib) {
    return R"({"name": "t", "workload": { "kind": "sequential-boots",
               "guests": [ { "image": "daytime", "count": 1, "pad_to_mib": )" +
           mib + " } ] } }";
  };
  expect_rejected(host(R"("memory_gib": 1e300)"), "unknown key 'memory_gib'");
  expect_rejected(host(R"("memory_gib": 1e400)"), "unknown key 'memory_gib'");
  expect_rejected(host(R"("memory_gib": 8589934592)"), "unknown key 'memory_gib'");
  expect_rejected(host(R"("memory_gib": -4)"), "unknown key 'memory_gib'");
  expect_rejected(host(R"("memory_gib": 8589934591)"), "unknown key 'memory_gib'");
  expect_rejected(host(R"("dom0_memory_gib": 1e300)"), "unknown key 'dom0_memory_gib'");
  expect_rejected(host(R"("dom0_memory_gib": -1)"), "unknown key 'dom0_memory_gib'");
  expect_rejected(padded("1e300"), "unknown key 'pad_to_mib'");
  expect_rejected(padded("1e400"), "unknown key 'pad_to_mib'");
  expect_rejected(padded("-1"), "unknown key 'pad_to_mib'");
  expect_rejected(padded("16"), "unknown key 'pad_to_mib'");

  // An explicit random-plan seed of 0 is a seed, not "use the spec seed".
  auto zero = scenario::ParseSpec(
      fleet(R"({"random": {"events": 2, "horizon_ms": 100, "seed": 0}})"));
  ASSERT_TRUE(zero.ok()) << zero.error().ToString();
  EXPECT_EQ(zero->faults->random_seed, std::optional<uint64_t>(0));
  auto unset = scenario::ParseSpec(fleet(R"({"random": {"events": 2, "horizon_ms": 100}})"));
  ASSERT_TRUE(unset.ok()) << unset.error().ToString();
  EXPECT_FALSE(unset->faults->random_seed.has_value());
}

// --- Runner determinism -----------------------------------------------------

// The churn storm exercises every nondeterminism hazard at once: concurrent
// jobs, RNG-driven decisions, quantile summaries. Same spec + same seed must
// produce byte-identical tables and identical point streams.
TEST(Runner, SameSeedByteIdentical) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "mechanisms": "lightvm",
    "host": { "preset": "xeon14" },
    "shell_pool": { "image": "daytime", "target": 8 },
    "workload": { "kind": "churn-storm", "image": "daytime",
                  "operations": 60, "concurrency": 4, "max_live": 12,
                  "destroy_fraction": 0.4 }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();

  auto run_once = [&](std::string* table,
                      std::vector<std::string>* points) {
    std::ostringstream out;
    auto result = scenario::Run(
        *spec, {}, out,
        [&](const std::string& series,
            const std::vector<std::pair<std::string, double>>& row) {
          std::ostringstream p;
          p << series;
          for (const auto& [col, val] : row) {
            p << " " << col << "=" << val;
          }
          points->push_back(p.str());
        });
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    *table = out.str();
  };

  std::string table1, table2;
  std::vector<std::string> points1, points2;
  run_once(&table1, &points1);
  run_once(&table2, &points2);
  EXPECT_EQ(table1, table2);
  EXPECT_EQ(points1, points2);
  EXPECT_FALSE(points1.empty());
}

// The fleet path: concurrent deploys over a multi-node cluster on one
// engine, run twice from the same spec, must print the same tables and
// stream the same points.
TEST(Runner, FleetSameSeedByteIdentical) {
  auto spec = scenario::ParseSpec(R"({
    "name": "t", "mechanisms": "lightvm",
    "topology": { "nodes": 3, "host": { "preset": "xeon4" } },
    "workload": { "kind": "fleet-deploy", "image": "daytime", "vms": 24,
                  "concurrency": 4, "policies": ["least-loaded", "first-fit"] }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();

  std::string tables[2];
  std::vector<std::string> points[2];
  for (int i = 0; i < 2; ++i) {
    std::ostringstream out;
    auto result = scenario::Run(
        *spec, {}, out,
        [&](const std::string& series,
            const std::vector<std::pair<std::string, double>>& row) {
          std::ostringstream p;
          p << series;
          for (const auto& [col, val] : row) {
            p << " " << col << "=" << val;
          }
          points[i].push_back(p.str());
        });
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    tables[i] = out.str();
  }
  EXPECT_EQ(tables[0], tables[1]);
  EXPECT_EQ(points[0], points[1]);
  EXPECT_FALSE(points[0].empty());
  EXPECT_NE(tables[0].find("least-loaded"), std::string::npos) << tables[0];
  EXPECT_NE(tables[0].find("first-fit"), std::string::npos) << tables[0];
}

TEST(Runner, DifferentSeedDiverges) {
  const char* kTemplate = R"({
    "name": "t", "seed": %d, "mechanisms": "lightvm",
    "host": { "preset": "xeon14" },
    "shell_pool": { "image": "daytime", "target": 8 },
    "workload": { "kind": "churn-storm", "image": "daytime",
                  "operations": 60, "concurrency": 4, "max_live": 12,
                  "destroy_fraction": 0.4 }
  })";
  char buf[512];
  std::string tables[2];
  for (int seed : {1, 2}) {
    snprintf(buf, sizeof(buf), kTemplate, seed);
    auto spec = scenario::ParseSpec(buf);
    ASSERT_TRUE(spec.ok()) << spec.error().ToString();
    std::ostringstream out;
    auto result = scenario::Run(*spec, {}, out);
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    tables[seed - 1] = out.str();
  }
  EXPECT_NE(tables[0], tables[1]);
}

// --- Chaos fleet runs ---------------------------------------------------------

// Runs `spec_text` and returns its stdout; every `faults` point lands in
// `faults` (column -> value).
std::string RunChaosSpec(const std::string& spec_text,
                         std::map<std::string, double>* faults) {
  auto spec = scenario::ParseSpec(spec_text);
  EXPECT_TRUE(spec.ok()) << spec.error().ToString();
  if (!spec.ok()) {
    return "";
  }
  std::ostringstream out;
  auto result = scenario::Run(
      *spec, {}, out,
      [&](const std::string& series,
          const std::vector<std::pair<std::string, double>>& row) {
        if (series == "faults") {
          faults->insert(row.begin(), row.end());
        }
      });
  EXPECT_TRUE(result.ok()) << result.error().ToString();
  return out.str();
}

// Both nodes die before any deploy lands: the run has no deploy latencies
// at all and must report zeros, not abort on an empty sample set.
TEST(Runner, FleetWithNoSuccessfulDeployReportsZeros) {
  std::map<std::string, double> faults;
  std::string table = RunChaosSpec(R"({
    "name": "t", "mechanisms": "lightvm", "topology": { "nodes": 2 },
    "workload": { "kind": "fleet-deploy", "vms": 4, "policies": ["least-loaded"] },
    "faults": { "events": [ { "at_ms": 0, "kind": "node-crash", "node": 0 },
                            { "at_ms": 0, "kind": "node-crash", "node": 1 } ] }
  })", &faults);
  EXPECT_NE(table.find("deploys_failed=4"), std::string::npos) << table;
  EXPECT_NE(table.find("vms=0 "), std::string::npos) << table;
  EXPECT_NE(table.find("deploy_ms: p50=0.00 p90=0.00 p99=0.00 max=0.00"),
            std::string::npos)
      << table;
  EXPECT_EQ(faults["injected"], 2.0);
}

// A fault planned long after the fleet is deployed (past the runner's 30 s
// settle window) still fires before the ledger is read: node 1 is crashed
// at 10 ms and rebooted at 60 s, and ends the run up again.
TEST(Runner, LateFaultsFireBeforeTheLedgerIsRead) {
  obs::FlightRecorder::Get().Reset();
  std::map<std::string, double> faults;
  std::string table = RunChaosSpec(R"({
    "name": "t", "mechanisms": "lightvm", "topology": { "nodes": 2 },
    "workload": { "kind": "fleet-deploy", "vms": 8, "policies": ["least-loaded"] },
    "faults": { "events": [ { "at_ms": 10, "kind": "node-crash", "node": 1 },
                            { "at_ms": 60000, "kind": "node-reboot", "node": 1 } ] }
  })", &faults);
  EXPECT_EQ(faults["injected"], 2.0) << table;
  EXPECT_NE(table.find("## faults (2 injected)"), std::string::npos) << table;

  // Node 1's last host-level event is the reboot that followed its crash.
  std::vector<obs::FlightEvent> events = obs::FlightRecorder::Get().NodeEvents(1);
  std::string last_host_verb;
  for (const obs::FlightEvent& ev : events) {
    if (std::string(ev.layer) == "host") {
      last_host_verb = ev.verb;
    }
  }
  EXPECT_EQ(last_host_verb, "reboot");
}

// --- Store policy plumbing and the byte-identity guard ----------------------
// Figures 4/9 depend on the faithful O(n) legacy store; the indexed fast
// path must stay strictly opt-in. These tests pin the default at every layer
// and prove an explicit "legacy" field changes nothing, byte for byte.

TEST(Spec, XenstorePolicyParsedAndValidated) {
  auto spec = scenario::ParseSpec(R"({
    "name": "p", "mechanisms": "chaos-xs", "xenstore_policy": "indexed",
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->xenstore_policy, xs::StorePolicy::kIndexed);

  auto unknown = scenario::ParseSpec(R"({
    "name": "p", "mechanisms": "chaos-xs", "xenstore_policy": "btree",
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().ToString().find("unknown policy 'btree'"),
            std::string::npos)
      << unknown.error().ToString();

  // A storeless preset has no xenstored to index.
  auto storeless = scenario::ParseSpec(R"({
    "name": "p", "mechanisms": "lightvm", "xenstore_policy": "indexed",
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "image": "daytime", "count": 1 } ] }
  })");
  ASSERT_FALSE(storeless.ok());
  EXPECT_NE(storeless.error().ToString().find("no xenstored"), std::string::npos)
      << storeless.error().ToString();
}

TEST(StorePolicyGuard, EveryDefaultIsLegacy) {
  EXPECT_EQ(xs::CurrentStorePolicy(), xs::StorePolicy::kLegacy);
  EXPECT_EQ(lightvm::Mechanisms{}.xs_policy, xs::StorePolicy::kLegacy);
  EXPECT_EQ(lightvm::Mechanisms::Xl().xs_policy, xs::StorePolicy::kLegacy);
  EXPECT_EQ(lightvm::Mechanisms::ChaosXs().xs_policy, xs::StorePolicy::kLegacy);
  EXPECT_EQ(lightvm::Mechanisms::ChaosXsSplit().xs_policy, xs::StorePolicy::kLegacy);
  EXPECT_EQ(lightvm::Mechanisms::LightVm().xs_policy, xs::StorePolicy::kLegacy);
  EXPECT_EQ(xs::Store().policy(), xs::StorePolicy::kLegacy);
  scenario::Spec spec;
  EXPECT_EQ(spec.xenstore_policy, xs::StorePolicy::kLegacy);
  // The scope restores the previous policy on exit.
  {
    xs::StorePolicyScope scope(xs::StorePolicy::kIndexed);
    EXPECT_EQ(xs::CurrentStorePolicy(), xs::StorePolicy::kIndexed);
    EXPECT_EQ(xs::Store().policy(), xs::StorePolicy::kIndexed);
  }
  EXPECT_EQ(xs::CurrentStorePolicy(), xs::StorePolicy::kLegacy);
}

TEST(Runner, ExplicitLegacyPolicyIsByteIdenticalAndIndexedIsFaster) {
  const char* kTemplate = R"({
    "name": "p", "mechanisms": "chaos-xs",%s
    "host": { "preset": "xeon4" },
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "series": "uni", "image": "daytime",
                                "count": 40 } ] }
  })";

  auto run_once = [&](const char* policy_field, std::string* table,
                      double* last_create_ms) {
    char buf[512];
    snprintf(buf, sizeof(buf), kTemplate, policy_field);
    auto spec = scenario::ParseSpec(buf);
    ASSERT_TRUE(spec.ok()) << spec.error().ToString();
    std::ostringstream out;
    auto result = scenario::Run(
        *spec, {}, out,
        [&](const std::string&,
            const std::vector<std::pair<std::string, double>>& row) {
          std::map<std::string, double> cols(row.begin(), row.end());
          if (static_cast<int>(cols.at("n")) == 40) {
            *last_create_ms = cols.at("create_ms");
          }
        });
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    *table = out.str();
  };

  std::string implicit, legacy, indexed;
  double implicit_ms = 0.0, legacy_ms = 0.0, indexed_ms = 0.0;
  run_once("", &implicit, &implicit_ms);
  run_once(" \"xenstore_policy\": \"legacy\",", &legacy, &legacy_ms);
  run_once(" \"xenstore_policy\": \"indexed\",", &indexed, &indexed_ms);

  // Spelling out the default changes nothing, byte for byte.
  EXPECT_EQ(implicit, legacy);
  EXPECT_EQ(implicit_ms, legacy_ms);
  // The indexed run annotates its header and creates VMs faster.
  EXPECT_NE(indexed, implicit);
  EXPECT_NE(indexed.find("xenstore_policy=indexed"), std::string::npos);
  EXPECT_EQ(implicit.find("xenstore_policy"), std::string::npos);
  EXPECT_LT(indexed_ms, implicit_ms);
}

// --- Paper fidelity ---------------------------------------------------------

// A scaled-down fig04 spec must agree with a direct Host loop that uses the
// figures' measurement semantics (create spans CreateVm, boot spans unpause
// -> boot signal) and naming ("<series>-<i>"). The full-scale
// scenarios/fig04_instantiation.json runs in CI's perf-gate job and its
// fast variant is diffed against the committed baselines; this test keeps
// the semantics enforced at unit-test cost.
TEST(Runner, Fig04SemanticsMatchDirectHostLoop) {
  constexpr int kCount = 40;

  auto spec = scenario::ParseSpec(R"({
    "name": "fig04-mini", "mechanisms": "xl",
    "host": { "preset": "xeon4" },
    "workload": { "kind": "sequential-boots",
                  "guests": [ { "series": "unikernel", "image": "daytime",
                                "count": 40 } ] }
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();

  std::map<int, std::pair<double, double>> scenario_ms;  // n -> (create, boot)
  std::ostringstream out;
  auto result = scenario::Run(
      *spec, {}, out,
      [&](const std::string& series,
          const std::vector<std::pair<std::string, double>>& row) {
        ASSERT_EQ(series, "unikernel");
        std::map<std::string, double> cols(row.begin(), row.end());
        scenario_ms[static_cast<int>(cols.at("n"))] = {cols.at("create_ms"),
                                                       cols.at("boot_ms")};
      });
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  ASSERT_EQ(scenario_ms.size(), static_cast<size_t>(kCount));

  // Direct loop, written out independently of lightvm::CreateBootTimed
  // (which both the runner and the fig* binaries call).
  auto host_spec = scenario::ResolveHostSpec({});
  ASSERT_TRUE(host_spec.ok());
  auto mechanisms = scenario::MechanismsByName("xl");
  ASSERT_TRUE(mechanisms.ok());
  sim::Engine engine(1);
  lightvm::Host host(&engine, *host_spec, *mechanisms);
  auto image = toolstack::ImageByName("daytime");
  ASSERT_TRUE(image.ok());
  for (int i = 1; i <= kCount; ++i) {
    toolstack::VmConfig config;
    config.name = "unikernel-" + std::to_string(i);
    config.image = *image;
    lv::TimePoint t0 = engine.now();
    auto domid = sim::RunToCompletion(engine, host.CreateVm(std::move(config)));
    ASSERT_TRUE(domid.ok()) << domid.error().ToString();
    double create_ms = (engine.now() - t0).ms();
    lv::TimePoint t1 = engine.now();
    guests::Guest* guest = host.guest(*domid);
    ASSERT_NE(guest, nullptr);
    ASSERT_TRUE(sim::RunUntilCondition(engine, [&] { return guest->booted(); },
                                       lv::Duration::Seconds(600)));
    double boot_ms = (guest->booted_at() - t1).ms();

    const auto& [scn_create, scn_boot] = scenario_ms.at(i);
    EXPECT_NEAR(scn_create, create_ms, create_ms * 0.01)
        << "create_ms diverges at n=" << i;
    EXPECT_NEAR(scn_boot, boot_ms, boot_ms * 0.01)
        << "boot_ms diverges at n=" << i;
  }
}

}  // namespace
