// Declarative scenario specs: experiments as data instead of hand-coded
// benchmark binaries.
//
// A spec describes one full-system experiment — topology (how many nodes,
// which host preset), the mechanism configuration, the guest mix and the
// workload that drives it — and `scenario::Run` (runner.h) executes it over
// the same Host / NodeApi / Cluster control plane the fig* binaries use.
// Figure 4, Figure 10, fleet density and the chaos storm exist only as
// committed specs under scenarios/; each was proven point-for-point equal
// to the dedicated binary it replaced before that binary was deleted.
//
// Parsing is strict: unknown keys, duplicate keys, wrong types and
// out-of-range values are errors, not warnings. A spec that silently
// ignored a typo'd field would run a different experiment than the one the
// author wrote down.
//
// Field reference (every key, defaults, units): EXPERIMENTS.md §"Scenario
// specs".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/result.h"
#include "src/base/units.h"
#include "src/core/host.h"
#include "src/core/mechanisms.h"
#include "src/faults/plan.h"
#include "src/obs/slo.h"
#include "src/xenstore/policy.h"

namespace scenario {

// One machine. `preset` names the paper testbeds ("xeon4", "amd64",
// "xeon14").
struct HostSpecConfig {
  std::string preset = "xeon4";
};

// How many machines, and what each looks like. nodes == 1 runs workloads on
// a bare Host; nodes > 1 builds a cluster::Cluster.
struct TopologyConfig {
  int nodes = 1;
  HostSpecConfig host;
};

// Pre-created domain shells (split toolstack). `image` names the registry
// flavor whose memory size and network appetite the shells match.
struct ShellPoolConfig {
  std::string image;
  int target = 8;
};

// One entry of the guest mix for sequential-boots workloads: either a VM
// image from the registry or a container/process runtime baseline.
struct GuestGroupConfig {
  std::string series;        // series name in tables + BENCH json
  std::string image;         // VM registry name ("daytime", "tinyx", ...)
  std::string runtime;       // "docker" | "process" (mutually exclusive)
  int count = 0;
  std::string name_prefix;   // VM naming: <prefix><i>; default "<series>-"
};

// Declarative fault injection (chaos runs): an explicit event list, a seeded
// random plan, or both — merged and time-sorted before arming. Applies to
// churn-storm (single node) and fleet-deploy (cluster) workloads.
struct FaultsConfig {
  faults::FaultPlan plan;               // explicit `events` entries
  int random_events = 0;                // > 0: append FaultPlan::Random(...)
  lv::Duration random_horizon;          // horizon of the random plan
  std::optional<uint64_t> random_seed;  // unset = the spec seed
};

// Workload kinds.
enum class WorkloadKind {
  kSequentialBoots,  // boot group after group, measuring create/boot per VM
  kChurnStorm,       // concurrent create/destroy jobs through NodeApi
  kFleetDeploy,      // cluster-wide deploys through placement + admission
};

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kSequentialBoots;

  // sequential-boots
  std::vector<GuestGroupConfig> guests;

  // churn-storm + fleet-deploy
  std::string image = "daytime";
  int concurrency = 8;

  // churn-storm
  int operations = 0;
  int max_live = 0;              // force destroys once this many VMs run
  double destroy_fraction = 0.0; // probability an op is a destroy

  // fleet-deploy (every deploy waits for its guest to boot)
  int vms = 0;
  std::vector<std::string> policies;  // placement policies to sweep
};

struct Spec {
  std::string name;
  std::string title;
  uint64_t seed = 1;
  std::string mechanisms = "lightvm";  // xl | chaos-xs | chaos-xs-split |
                                       // chaos-noxs | lightvm | lightvm-shared
  // Store implementation for presets that run a xenstored: "legacy" keeps
  // the faithful O(n) paper behaviour (default), "indexed" opts into the
  // fast path. Rejected for storeless presets.
  xs::StorePolicy xenstore_policy = xs::StorePolicy::kLegacy;
  TopologyConfig topology;
  std::optional<ShellPoolConfig> shell_pool;
  WorkloadConfig workload;
  std::optional<FaultsConfig> faults;
  // Declarative SLO gates, evaluated against the metrics registry after the
  // workload by `scenario_runner --check` (obs/slo.h has the key reference).
  std::optional<obs::SloConfig> slo;
  int sample_points = 25;  // printed rows per series (full data in BENCH json)
};

// Parses a spec from JSON text / a file. Strict: every key must be known,
// required fields present, values in range.
lv::Result<Spec> ParseSpec(std::string_view text);
lv::Result<Spec> LoadSpecFile(const std::string& path);

// Resolution helpers shared with the runner and tests.
lv::Result<lightvm::HostSpec> ResolveHostSpec(const HostSpecConfig& config);
lv::Result<lightvm::Mechanisms> MechanismsByName(const std::string& name);
const char* WorkloadKindName(WorkloadKind kind);

}  // namespace scenario
