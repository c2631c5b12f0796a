// Figure 13: migration times for the daytime unikernel vs the number of
// running VMs. Protocol per the paper: 10 guests are migrated per round and
// replaced with 10 fresh ones so the source population keeps growing.
#include <cstdio>

#include "bench/common.h"
#include "src/base/stats.h"

namespace {

void Series(lightvm::Mechanisms mechanisms, int total) {
  sim::Engine engine;
  lightvm::HostSpec spec = lightvm::HostSpec::Xeon4Core();
  spec.dom0_cores = 2;
  lightvm::Host src(&engine, spec, mechanisms);
  lightvm::Host dst(&engine, spec, mechanisms);
  if (mechanisms.split) {
    for (lightvm::Host* h : {&src, &dst}) {
      h->AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
      h->PrefillShellPool();
    }
  }
  // Hosts are connected back-to-back on a 10 Gbps datacenter link.
  xnet::Link link(&engine, /*gbps=*/10.0, lv::Duration::MillisF(0.2));

  std::printf("\n## %s\n", mechanisms.label().c_str());
  std::printf("%-8s %s\n", "n", "migrate_ms");

  std::vector<hv::DomainId> running;
  int created = 0;
  for (int round = 0; round * 10 < total; ++round) {
    for (int i = 0; i < 10; ++i) {
      lightvm::CreateTiming t = lightvm::CreateBootTimed(
          engine, src,
          bench::Config(lv::StrFormat("mg%d", created++), guests::DaytimeUnikernel()));
      if (!t.ok) {
        bench::FailRun(lv::StrFormat("%s: vm creation failed at n=%zu",
                                     mechanisms.label().c_str(), running.size()));
      }
      running.push_back(t.domid);
    }
    lv::Accumulator migrate_ms;
    for (int i = 0; i < 10; ++i) {
      size_t victim = static_cast<size_t>(
          engine.rng().Uniform(0, static_cast<int64_t>(running.size()) - 1));
      hv::DomainId domid = running[victim];
      // Swap-and-pop: O(1) instead of shifting the (growing) tail each round.
      running[victim] = running.back();
      running.pop_back();
      lv::TimePoint t0 = engine.now();
      lv::Status s = sim::RunToCompletion(engine, src.MigrateVm(domid, &dst, &link));
      if (!s.ok()) {
        bench::FailRun(lv::StrFormat("%s: migration failed at n=%zu: %s",
                                     mechanisms.label().c_str(), running.size(),
                                     s.error().message.c_str()));
      }
      migrate_ms.Add((engine.now() - t0).ms());
    }
    // Replace the migrated guests so the source population is back to size.
    for (int i = 0; i < 10; ++i) {
      lightvm::CreateTiming t = lightvm::CreateBootTimed(
          engine, src,
          bench::Config(lv::StrFormat("mg%d", created++), guests::DaytimeUnikernel()));
      if (!t.ok) {
        bench::FailRun(lv::StrFormat("%s: vm creation failed at n=%zu",
                                     mechanisms.label().c_str(), running.size()));
      }
      running.push_back(t.domid);
    }
    bench::Point(mechanisms.label(), {{"n", static_cast<double>(running.size())},
                                      {"migrate_ms", migrate_ms.mean()}});
    std::printf("%-8zu %.1f\n", running.size(), migrate_ms.mean());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig13_migration");
  bench::Header("Figure 13", "migration times vs number of running VMs",
                "daytime unikernel, 10 migrations per round, two hosts, 10 Gbps link");
  Series(lightvm::Mechanisms::Xl(), 600);
  Series(lightvm::Mechanisms::ChaosXs(), 600);
  Series(lightvm::Mechanisms::ChaosNoxs(), 600);
  Series(lightvm::Mechanisms::LightVm(), 600);
  bench::Footnote("paper anchors: LightVM ~60ms flat; chaos[XS] slightly better at low n "
                  "(noxs device destruction unoptimized); xl grows to seconds");
  bench::Report::Get().Write();
  return 0;
}
