// scenario_runner — executes a declarative scenario spec (scenarios/*.json)
// over the same control plane the fig* binaries drive. One binary, many
// experiments: the spec describes topology, mechanisms, guest mix and
// workload; the runner prints deterministic tables and emits the same
// schema-versioned BENCH_<name>.json artifacts as the fig* binaries.
// Figure 4, Figure 10, fleet density and the chaos storm run only this way.
//
//   scenario_runner <spec.json> [--json=<file>] [--trace-out=<file>]
//                   [--metrics-out=<file>] [--flight-out=<file>] [--check]
//
//   --json         machine-readable results (lightvm-bench/1 schema)
//   --trace-out    Chrome trace_event JSON of the final engine epoch
//   --metrics-out  metrics-registry snapshot at end of run
//   --flight-out   flight-recorder dump, written only when the run fails
//   --check        parse + validate the spec; when the spec carries an `slo`
//                  section, additionally run it, writing the outputs above
//                  as a plain run does, and fail (non-zero exit) on any
//                  violated bound
//
// An output flag with an empty file name is a usage error (exit 2), and so
// is any output flag on a parse-only --check, which would write nothing.
//
// Examples:
//   scenario_runner scenarios/fig04_instantiation.json --json=BENCH_fig04.json
//   scenario_runner scenarios/churn_storm.json --trace-out=churn_trace.json
//   scenario_runner scenarios/ci/chaos_ci.json --check --flight-out=flight.json
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <spec.json> [--json=<file>] [--trace-out=<file>] "
               "[--metrics-out=<file>] [--flight-out=<file>] [--check]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  scenario::RunOptions options;
  bool check_only = false;
  std::vector<char*> report_args{argv[0]};
  bool wants_output = false;
  // The file name of `--<flag>=<file>`; an empty one would write nothing.
  auto file_of = [&](const char* arg) {
    const char* file = std::strchr(arg, '=') + 1;
    if (*file == '\0') {
      Usage(argv[0]);
    }
    wants_output = true;
    return file;
  };
  for (int i = 1; i < argc; ++i) {
    char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      file_of(arg);
      report_args.push_back(arg);
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      options.trace_out = file_of(arg);
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      options.metrics_out = file_of(arg);
    } else if (std::strncmp(arg, "--flight-out=", 13) == 0) {
      options.flight_out = file_of(arg);
    } else if (std::strcmp(arg, "--check") == 0) {
      check_only = true;
    } else if (arg[0] == '-') {
      Usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      Usage(argv[0]);
    }
  }
  if (spec_path.empty()) {
    Usage(argv[0]);
  }

  auto spec = scenario::LoadSpecFile(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "invalid scenario: %s\n", spec.error().message.c_str());
    return 1;
  }
  // Specs without SLOs stay parse-only under --check (cheap validation of
  // even the largest committed specs). A spec that declares SLOs is a gate:
  // run it and enforce every bound.
  if (check_only && !spec->slo.has_value()) {
    if (wants_output) {
      Usage(argv[0]);
    }
    std::printf("OK: %s (workload=%s, nodes=%d, seed=%llu)\n", spec->name.c_str(),
                scenario::WorkloadKindName(spec->workload.kind), spec->topology.nodes,
                (unsigned long long)spec->seed);
    return 0;
  }
  options.enforce_slo = check_only;

  int report_argc = static_cast<int>(report_args.size());
  bench::Report::Get().Init(report_argc, report_args.data(), spec->name);
  bench::Report::Get().SetTitle(
      spec->title.empty() ? spec->name : spec->title,
      lv::StrFormat("scenario %s: %s on %s, %d node(s), seed %llu",
                    spec_path.c_str(), scenario::WorkloadKindName(spec->workload.kind),
                    spec->topology.host.preset.c_str(), spec->topology.nodes,
                    (unsigned long long)spec->seed));
  bench::Report::Get().Config("seed", static_cast<double>(spec->seed));
  bench::Report::Get().Config("mechanisms", spec->mechanisms);
  bench::Report::Get().Config("workload", scenario::WorkloadKindName(spec->workload.kind));
  bench::Report::Get().Config("host_preset", spec->topology.host.preset);
  bench::Report::Get().Config("nodes", static_cast<double>(spec->topology.nodes));
  bench::Report::Get().Config("spec", spec_path);

  lv::Status result = scenario::Run(
      *spec, options, std::cout,
      [](const std::string& series,
         const std::vector<std::pair<std::string, double>>& row) {
        bench::Report::Get().Point(series, row);
      });
  if (!result.ok()) {
    if (!check_only) {
      bench::FailRun(result.error().message);
    }
    std::fprintf(stderr, "FAIL: %s: %s\n", spec->name.c_str(), result.error().message.c_str());
    return 1;
  }
  bench::Report::Get().Write();
  if (check_only) {
    std::printf("OK: %s (workload=%s, nodes=%d, seed=%llu, slo bounds met)\n",
                spec->name.c_str(), scenario::WorkloadKindName(spec->workload.kind),
                spec->topology.nodes, (unsigned long long)spec->seed);
  }
  return 0;
}
