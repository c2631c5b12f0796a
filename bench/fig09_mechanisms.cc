// Figure 9: creation times for 1000 daytime unikernels under every
// combination of the LightVM mechanisms — the paper's central ablation.
#include <cstdio>

#include "bench/common.h"

namespace {

void Series(lightvm::Mechanisms mechanisms, int total) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), mechanisms);
  if (mechanisms.split) {
    host.AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
    host.PrefillShellPool();
  }
  std::printf("\n## %s\n", mechanisms.label().c_str());
  std::printf("%-8s %-14s %-10s %s\n", "n", "create_ms", "boot_ms", "create+boot_ms");
  for (int i = 1; i <= total; ++i) {
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("vm%d", i), guests::DaytimeUnikernel()));
    if (!t.ok) {
      break;
    }
    bench::Point(mechanisms.label(), {{"n", static_cast<double>(i)},
                                      {"create_ms", t.create_ms},
                                      {"boot_ms", t.boot_ms}});
    if (lv::SampleRow(i, total)) {
      std::printf("%-8d %-14.2f %-10.2f %.2f\n", i, t.create_ms, t.boot_ms,
                  t.create_ms + t.boot_ms);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig09_mechanisms");
  bench::Header("Figure 9", "creation times across the mechanism matrix",
                "daytime unikernel x1000, 4-core Xeon model (1 Dom0 + 3 guest cores)");
  Series(lightvm::Mechanisms::Xl(), 1000);
  Series(lightvm::Mechanisms::ChaosXs(), 1000);
  Series(lightvm::Mechanisms::ChaosXsSplit(), 1000);
  Series(lightvm::Mechanisms::ChaosNoxs(), 1000);
  Series(lightvm::Mechanisms::LightVm(), 1000);

  // The paper's minimum point: a noop unikernel with no devices, all
  // optimizations on.
  {
    sim::Engine engine;
    lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                       lightvm::Mechanisms::LightVm());
    host.AddShellFlavor(guests::NoopUnikernel().memory, false, 4);
    host.PrefillShellPool();
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config("noop", guests::NoopUnikernel()));
    std::printf("\n# noop unikernel, no devices, all optimizations: %.2f ms "
                "(paper: 2.3 ms)\n",
                t.create_ms + t.boot_ms);
    bench::Point("noop_minimum", {{"create_ms", t.create_ms}, {"boot_ms", t.boot_ms}});
  }
  bench::Footnote("paper anchors: xl ~100ms -> ~1s with log-rotation spikes; chaos[XS] "
                  "15->80ms; chaos[XS+split] max ~25ms; chaos[NoXS] 8-15ms; LightVM "
                  "4 -> 4.1ms");
  bench::Report::Get().Write();
  return 0;
}
