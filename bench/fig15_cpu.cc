// Figure 15: machine-wide CPU utilization with idle guests — unikernels and
// containers idle near zero, Tinyx's background tasks cost ~1%, Debian's
// out-of-the-box services reach ~25% of the machine at 1000 VMs.
#include <cstdio>

#include "bench/common.h"
#include "src/container/container.h"

namespace {

constexpr int kSamplePoints[] = {1, 100, 200, 400, 600, 800, 1000};

void VmSeries(const char* label, guests::GuestImage image) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                     lightvm::Mechanisms::LightVm());
  std::printf("\n## %s\n", label);
  std::printf("%-8s %s\n", "n", "cpu_util_pct");
  int created = 0;
  for (int target : kSamplePoints) {
    while (created < target) {
      lightvm::CreateTiming t = lightvm::CreateBootTimed(
          engine, host, bench::Config(lv::StrFormat("%s%d", label, created), image));
      if (!t.ok) {
        bench::FailRun(lv::StrFormat("%s: vm creation failed at n=%d", label, created));
      }
      ++created;
    }
    // Measure utilization over a 5 s idle window (iostat + xentop style).
    host.StartCpuWindow();
    engine.RunFor(lv::Duration::Seconds(5));
    bench::Point(label, {{"n", static_cast<double>(target)},
                         {"cpu_util_pct", host.CpuUtilization() * 100.0}});
    std::printf("%-8d %.2f\n", target, host.CpuUtilization() * 100.0);
  }
}

void DockerSeries() {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 4);
  hv::MemoryPool memory(lv::Bytes::GiB(128));
  container::DockerRuntime docker(&engine, &memory);
  sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
  std::printf("\n## docker\n");
  std::printf("%-8s %s\n", "n", "cpu_util_pct");
  int created = 0;
  for (int target : kSamplePoints) {
    while (created < target) {
      if (!sim::RunToCompletion(engine, docker.Run(ctx, container::MinimalContainer()))
               .ok()) {
        bench::FailRun(lv::StrFormat("docker: container run failed at n=%d", created));
      }
      ++created;
    }
    cpu.StartWindow();
    engine.RunFor(lv::Duration::Seconds(5));
    bench::Point("docker", {{"n", static_cast<double>(target)},
                            {"cpu_util_pct", cpu.WindowUtilization() * 100.0}});
    std::printf("%-8d %.2f\n", target, cpu.WindowUtilization() * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig15_cpu");
  bench::Header("Figure 15", "CPU utilization with idle guests",
                "4-core Xeon model; iostat for Dom0 + xentop for guests");
  VmSeries("debian", guests::DebianVm());
  VmSeries("tinyx", guests::TinyxNoop());
  VmSeries("unikernel", guests::NoopUnikernel());
  DockerSeries();
  bench::Footnote("paper anchors at 1000 guests: Debian ~25%, Tinyx ~1%, unikernel a "
                  "fraction of a percent above Docker, Docker lowest");
  bench::Report::Get().Write();
  return 0;
}
