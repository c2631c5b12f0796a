// Figure 12: save (checkpoint) and restore times for the daytime unikernel
// as a function of the number of running VMs.
//
// Paper protocol: "at every run of the test we start 10 guests and randomly
// pick 10 guests to be checkpointed", growing the population to 1000. Two
// cores Dom0, two cores guests, ramdisk.
#include <cstdio>

#include "bench/common.h"
#include "src/base/stats.h"

namespace {

void Series(lightvm::Mechanisms mechanisms, int total) {
  sim::Engine engine;
  lightvm::HostSpec spec = lightvm::HostSpec::Xeon4Core();
  spec.dom0_cores = 2;  // "We assign two cores to Dom0 and the remaining two
                        //  to the VMs" (§6.2).
  lightvm::Host host(&engine, spec, mechanisms);
  if (mechanisms.split) {
    host.AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
    host.PrefillShellPool();
  }
  std::printf("\n## %s\n", mechanisms.label().c_str());
  std::printf("%-8s %-12s %s\n", "n", "save_ms", "restore_ms");

  std::vector<hv::DomainId> running;
  int created = 0;
  for (int round = 0; round * 10 < total; ++round) {
    // Start 10 more guests.
    for (int i = 0; i < 10; ++i) {
      lightvm::CreateTiming t = lightvm::CreateBootTimed(
          engine, host,
          bench::Config(lv::StrFormat("ck%d", created++), guests::DaytimeUnikernel()));
      if (!t.ok) {
        bench::FailRun(lv::StrFormat("%s: vm creation failed at n=%zu",
                                     mechanisms.label().c_str(), running.size()));
      }
      running.push_back(t.domid);
    }
    // Checkpoint 10 random guests, then restore them.
    lv::Accumulator save_ms;
    lv::Accumulator restore_ms;
    for (int i = 0; i < 10; ++i) {
      size_t victim = static_cast<size_t>(
          engine.rng().Uniform(0, static_cast<int64_t>(running.size()) - 1));
      hv::DomainId domid = running[victim];
      running.erase(running.begin() + static_cast<long>(victim));

      lv::TimePoint t0 = engine.now();
      auto snap = sim::RunToCompletion(engine, host.SaveVm(domid));
      if (!snap.ok()) {
        bench::FailRun(lv::StrFormat("%s: save failed at n=%zu: %s",
                                     mechanisms.label().c_str(), running.size(),
                                     snap.error().message.c_str()));
      }
      save_ms.Add((engine.now() - t0).ms());

      t0 = engine.now();
      auto restored = sim::RunToCompletion(engine, host.RestoreVm(*snap));
      if (!restored.ok()) {
        bench::FailRun(lv::StrFormat("%s: restore failed at n=%zu: %s",
                                     mechanisms.label().c_str(), running.size(),
                                     restored.error().message.c_str()));
      }
      restore_ms.Add((engine.now() - t0).ms());
      running.push_back(*restored);
    }
    bench::Point(mechanisms.label(), {{"n", static_cast<double>(running.size())},
                                      {"save_ms", save_ms.mean()},
                                      {"restore_ms", restore_ms.mean()}});
    std::printf("%-8zu %-12.1f %.1f\n", running.size(), save_ms.mean(),
                restore_ms.mean());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig12_checkpoint");
  bench::Header("Figure 12", "checkpointing: save and restore times vs number of VMs",
                "daytime unikernel, 10 random victims per round, ramdisk, 2+2 cores");
  Series(lightvm::Mechanisms::Xl(), 1000);
  Series(lightvm::Mechanisms::ChaosXs(), 1000);
  Series(lightvm::Mechanisms::LightVm(), 1000);
  bench::Footnote("paper anchors: LightVM ~30ms save / ~20ms restore flat; xl 128ms "
                  "save / 550ms restore, growing with n");
  bench::Report::Get().Write();
  return 0;
}
