// Figure 11: boot times for unikernel and Tinyx guests versus Docker
// containers. Tinyx tracks Docker up to ~750 guests (~250 per core), then
// CPU contention from the guests' background tasks inflates boot times;
// idle unikernels and containers stay flat.
#include <cstdio>

#include "bench/common.h"
#include "src/container/container.h"

namespace {

void VmSeries(const char* label, guests::GuestImage image, int total) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                     lightvm::Mechanisms::LightVm());
  host.AddShellFlavor(image.memory, image.wants_net, 8);
  host.PrefillShellPool();
  std::printf("\n## %s over LightVM\n", label);
  std::printf("%-8s %s\n", "n", "boot_ms");
  for (int i = 1; i <= total; ++i) {
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("%s%d", label, i), image));
    if (!t.ok) {
      break;
    }
    bench::Point(label, {{"n", static_cast<double>(i)}, {"boot_ms", t.boot_ms}});
    if (lv::SampleRow(i, total)) {
      std::printf("%-8d %.1f\n", i, t.boot_ms);
    }
  }
}

void DockerSeries(int total) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 4);
  hv::MemoryPool memory(lv::Bytes::GiB(128));
  container::DockerRuntime docker(&engine, &memory);
  sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
  std::printf("\n## Docker\n");
  std::printf("%-8s %s\n", "n", "run_ms");
  for (int i = 1; i <= total; ++i) {
    lv::TimePoint t0 = engine.now();
    auto id = sim::RunToCompletion(engine, docker.Run(ctx, container::MinimalContainer()));
    if (!id.ok()) {
      break;
    }
    bench::Point("docker",
                 {{"n", static_cast<double>(i)}, {"run_ms", (engine.now() - t0).ms()}});
    if (lv::SampleRow(i, total)) {
      std::printf("%-8d %.1f\n", i, (engine.now() - t0).ms());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig11_boot_times");
  bench::Header("Figure 11", "boot times: unikernel vs Tinyx vs Docker",
                "4-core Xeon model, LightVM toolstack for the VMs");
  VmSeries("unikernel", guests::DaytimeUnikernel(), 1000);
  VmSeries("tinyx", guests::TinyxNoop(), 1000);
  DockerSeries(1000);
  bench::Footnote("paper shape: unikernel flat ~ms; Tinyx close to Docker until ~750 "
                  "guests (250/core) then grows with per-core contention; Docker flat");
  bench::Report::Get().Write();
  return 0;
}
