// Fleet density: the cluster-scale version of the paper's §6.1 density
// argument. Boots thousands of daytime unikernels across N LightVM nodes
// through the cluster control plane — placement policy + admission control +
// concurrent create jobs — and compares placement policies on tail latency
// and makespan.
//
//   fleet_density [--vms=4000] [--nodes=4] [--concurrency=8] [--seed=1]
//                 [--policy=all|first-fit|least-loaded|memory-balance]
//                 [--json=<file>] [--flight-out=<file>]
//
// Runs are deterministic: the same seed gives byte-identical output
// (placement hash included, so any divergence is loud).
#include <cstdio>
#include <cstring>

#include "bench/common.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"

namespace {

struct FleetState {
  sim::Engine* engine = nullptr;
  cluster::Cluster* cl = nullptr;
  int total = 0;
  int next = 0;
  int done = 0;
  std::vector<int> node;
  std::vector<double> deploy_ms;
};

// One creation worker: pulls the next VM index off the shared counter and
// deploys it boot-to-boot. `concurrency` workers run at once, so up to that
// many create jobs are in flight across the cluster.
sim::Co<void> Worker(FleetState* st) {
  while (st->next < st->total) {
    int i = st->next++;
    toolstack::VmConfig config;
    config.name = lv::StrFormat("fleet%d", i);
    config.image = guests::DaytimeUnikernel();
    lv::TimePoint t0 = st->engine->now();
    auto handle = co_await st->cl->Deploy(std::move(config), /*wait_boot=*/true);
    if (!handle.ok()) {
      bench::FailRun(lv::StrFormat("deploy of vm %d failed: %s", i,
                                   handle.error().message.c_str()));
    }
    st->node[static_cast<size_t>(i)] = handle->node;
    st->deploy_ms[static_cast<size_t>(i)] = (st->engine->now() - t0).ms();
    ++st->done;
  }
}

void RunPolicy(const std::string& policy_name, int vms, int nodes, int concurrency,
               uint64_t seed) {
  sim::Engine engine(seed);
  cluster::ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node = lightvm::HostSpec::Amd64Core();
  spec.mechanisms = lightvm::Mechanisms::LightVm();
  auto policy = cluster::MakePolicy(policy_name);
  if (policy == nullptr) {
    bench::FailRun("unknown placement policy: " + policy_name);
  }
  cluster::Cluster cl(&engine, spec, std::move(policy));
  for (int n = 0; n < nodes; ++n) {
    cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
    cl.host(n).PrefillShellPool();
  }

  FleetState st;
  st.engine = &engine;
  st.cl = &cl;
  st.total = vms;
  st.node.assign(static_cast<size_t>(vms), -1);
  st.deploy_ms.assign(static_cast<size_t>(vms), 0.0);

  lv::TimePoint start = engine.now();
  for (int w = 0; w < concurrency; ++w) {
    engine.Spawn(Worker(&st));
  }
  bool finished = sim::RunUntilCondition(engine, [&] { return st.done >= st.total; },
                                         lv::Duration::Seconds(7200));
  if (!finished) {
    bench::FailRun(lv::StrFormat("%s: fleet stalled at %d/%d VMs",
                                 policy_name.c_str(), st.done, st.total));
  }
  double makespan_s = (engine.now() - start).secs();

  std::vector<int64_t> per_node(static_cast<size_t>(nodes), 0);
  lv::Samples lat;
  uint64_t placement_hash = 1469598103934665603ull;  // FNV offset basis.
  for (int i = 0; i < vms; ++i) {
    ++per_node[static_cast<size_t>(st.node[static_cast<size_t>(i)])];
    lat.Add(st.deploy_ms[static_cast<size_t>(i)]);
    placement_hash ^= static_cast<uint64_t>(st.node[static_cast<size_t>(i)]) +
                      static_cast<uint64_t>(i) * 31ull;
    placement_hash *= 1099511628211ull;  // FNV prime.
    bench::Point(policy_name, {{"i", static_cast<double>(i)},
                               {"node", static_cast<double>(st.node[static_cast<size_t>(i)])},
                               {"deploy_ms", st.deploy_ms[static_cast<size_t>(i)]}});
  }
  int64_t jobs_started = 0;
  int64_t jobs_failed = 0;
  for (int n = 0; n < nodes; ++n) {
    jobs_started += cl.host(n).node().jobs_started();
    jobs_failed += cl.host(n).node().jobs_failed();
  }

  std::printf("\n## policy: %s\n", policy_name.c_str());
  std::printf("placement:");
  for (int n = 0; n < nodes; ++n) {
    std::printf(" node%d=%lld", n, (long long)per_node[static_cast<size_t>(n)]);
  }
  std::printf("  hash=%016llx\n", (unsigned long long)placement_hash);
  std::printf("deploy_ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f\n", lat.Quantile(0.5),
              lat.Quantile(0.9), lat.Quantile(0.99), lat.max());
  std::printf("makespan_s=%.2f  vms=%lld  jobs_started=%lld  jobs_failed=%lld  "
              "admission_rejects=%lld\n",
              makespan_s, (long long)cl.total_vms(), (long long)jobs_started,
              (long long)jobs_failed, (long long)cl.admission_rejects());
  bench::Point("summary", {{"deploy_p50_ms", lat.Quantile(0.5)},
                           {"deploy_p99_ms", lat.Quantile(0.99)},
                           {"deploy_max_ms", lat.max()},
                           {"makespan_s", makespan_s},
                           {"vms", static_cast<double>(cl.total_vms())},
                           {"jobs_failed", static_cast<double>(jobs_failed)}});
}

}  // namespace

int main(int argc, char** argv) {
  int vms = 4000;
  int nodes = 4;
  int concurrency = 8;
  uint64_t seed = 1;
  std::string policy = "all";
  std::vector<char*> report_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--vms=", 6) == 0) {
      vms = std::atoi(arg + 6);
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      nodes = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--concurrency=", 14) == 0) {
      concurrency = std::atoi(arg + 14);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--policy=", 9) == 0) {
      policy = arg + 9;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      report_args.push_back(argv[i]);
    } else if (std::strncmp(arg, "--flight-out=", 13) == 0) {
      // Arms the always-on flight recorder's post-mortem dump: written only
      // when the run fails (FailRun, invariant violation).
      obs::FlightRecorder::Get().set_dump_path(arg + 13);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--vms=N] [--nodes=N] [--concurrency=N] [--seed=N] "
                   "[--policy=all|first-fit|least-loaded|memory-balance] "
                   "[--json=<file>] [--flight-out=<file>]\n",
                   argv[0]);
      return 2;
    }
  }
  int report_argc = static_cast<int>(report_args.size());
  bench::Report::Get().Init(report_argc, report_args.data(), "fleet_density");
  bench::Header("Fleet density",
                "cluster-wide unikernel density with concurrent create jobs",
                lv::StrFormat("%d daytime unikernels, %d nodes (64-core model), "
                              "concurrency %d, seed %llu",
                              vms, nodes, concurrency, (unsigned long long)seed));
  bench::Report::Get().Config("vms", static_cast<double>(vms));
  bench::Report::Get().Config("nodes", static_cast<double>(nodes));
  bench::Report::Get().Config("concurrency", static_cast<double>(concurrency));
  bench::Report::Get().Config("seed", static_cast<double>(seed));
  bench::Report::Get().Config("policy", policy);

  if (policy == "all") {
    for (const char* p : {"first-fit", "least-loaded", "memory-balance"}) {
      RunPolicy(p, vms, nodes, concurrency, seed);
    }
  } else {
    RunPolicy(policy, vms, nodes, concurrency, seed);
  }
  bench::Footnote("deploys commit node budgets before the first suspension point, so "
                  "no interleaving of create jobs can oversubscribe a node");
  bench::Report::Get().Write();
  return 0;
}
