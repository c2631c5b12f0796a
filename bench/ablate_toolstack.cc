// Ablation: split-toolstack pool sizing and hotplug mechanism.
//
// (a) How large must the shell pool be to absorb a burst of create requests?
// (b) How much of xl's device phase is just the bash hotplug script?
#include <cstdio>

#include "bench/common.h"
#include "src/base/stats.h"

namespace {

// Fires a burst of `burst` back-to-back creates against a LightVM host with
// the given pool target and reports mean/max create latency.
void PoolSweep() {
  std::printf("\n## shell-pool sizing under a burst of 16 creates\n");
  std::printf("%-12s %-12s %s\n", "pool_target", "mean_ms", "max_ms");
  for (int target : {0, 1, 4, 8, 16}) {
    sim::Engine engine;
    lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                       lightvm::Mechanisms::LightVm());
    if (target > 0) {
      host.AddShellFlavor(guests::DaytimeUnikernel().memory, true, target);
      host.PrefillShellPool();
    }
    lv::Samples lat;
    for (int i = 0; i < 16; ++i) {
      lightvm::CreateTiming t = lightvm::CreateBootTimed(
          engine, host,
          bench::Config(lv::StrFormat("burst%d", i), guests::DaytimeUnikernel()));
      if (!t.ok) {
        bench::FailRun(lv::StrFormat("pool_sweep: create %d failed (target=%d)", i,
                                     target));
      }
      lat.Add(t.create_ms);
    }
    bench::Point("pool_sweep", {{"pool_target", static_cast<double>(target)},
                                {"mean_ms", lat.mean()},
                                {"max_ms", lat.max()}});
    std::printf("%-12d %-12.2f %.2f\n", target, lat.mean(), lat.max());
  }
}

// chaos [XS] with bash scripts vs xendevd: isolates §5.3's contribution.
void HotplugSweep() {
  std::printf("\n## hotplug mechanism (xl toolstack, first create)\n");
  std::printf("%-14s %s\n", "mechanism", "create_ms");
  for (bool use_xendevd : {false, true}) {
    sim::Engine engine;
    lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), lightvm::Mechanisms::Xl());
    if (use_xendevd) {
      // Swap xl's inline bash script for the xendevd binary daemon.
      host.toolstack().env().bash_hotplug = host.xendevd_runner();
    }
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config("vm0", guests::DaytimeUnikernel()));
    bench::Point(use_xendevd ? "hotplug_xendevd" : "hotplug_bash",
                 {{"create_ms", t.create_ms}});
    std::printf("%-14s %.2f\n", use_xendevd ? "xendevd" : "bash-scripts", t.create_ms);
  }
}

// Migration with the paper's future-work item done: optimized noxs device
// destruction (§6.2 notes it "remain[s] as future work").
void NoxsTeardownSweep() {
  std::printf("\n## noxs device teardown (migration of one daytime VM)\n");
  std::printf("%-22s %s\n", "variant", "migrate_ms");
  for (bool optimized : {false, true}) {
    sim::Engine engine;
    lightvm::Host src(&engine, lightvm::HostSpec::Xeon4Core(),
                      lightvm::Mechanisms::ChaosNoxs());
    lightvm::Host dst(&engine, lightvm::HostSpec::Xeon4Core(),
                      lightvm::Mechanisms::ChaosNoxs());
    if (optimized) {
      src.device_costs_for_test()->noxs_teardown_extra = lv::Duration();
      dst.device_costs_for_test()->noxs_teardown_extra = lv::Duration();
    }
    xnet::Link link(&engine, 10.0, lv::Duration::MillisF(0.2));
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, src, bench::Config("mig", guests::DaytimeUnikernel()));
    if (!t.ok) {
      bench::FailRun("noxs_teardown: vm creation failed");
    }
    lv::TimePoint t0 = engine.now();
    lv::Status s = sim::RunToCompletion(engine, src.MigrateVm(t.domid, &dst, &link));
    if (!s.ok()) {
      bench::FailRun(lv::StrFormat("noxs_teardown: migration failed: %s",
                                   s.error().message.c_str()));
    }
    bench::Point(optimized ? "teardown_optimized" : "teardown_unoptimized",
                 {{"migrate_ms", (engine.now() - t0).ms()}});
    std::printf("%-22s %.1f\n", optimized ? "optimized (future work)" : "unoptimized",
                (engine.now() - t0).ms());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "ablate_toolstack");
  bench::Header("Ablation: toolstack mechanisms",
                "shell-pool sizing and hotplug mechanism contributions", "4-core model");
  PoolSweep();
  HotplugSweep();
  NoxsTeardownSweep();
  bench::Footnote("an empty pool degrades to inline preparation (chaos [NoXS] "
                  "latency); the bash script alone is most of xl's device phase");
  bench::Report::Get().Write();
  return 0;
}
