// Ablation for the paper's §9 "Memory sharing" open issue, implemented as a
// SnowFlock-style page-sharing extension: VMs created from the same image
// flavor share its read-only pages copy-on-write.
//
// Two questions: how much total memory does sharing save at scale, and how
// many more VMs fit on a small-memory edge box?
#include <cstdio>

#include "bench/common.h"

namespace {

void MemoryAtScale() {
  std::printf("\n## total memory for N daytime unikernels (3.6 MB each)\n");
  std::printf("%-8s %-16s %-16s %s\n", "n", "baseline_mb", "shared_mb", "saving");
  for (int n : {100, 500, 1000}) {
    double used[2];
    for (bool sharing : {false, true}) {
      sim::Engine engine;
      lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                         sharing ? lightvm::Mechanisms::LightVmShared()
                                 : lightvm::Mechanisms::LightVm());
      for (int i = 0; i < n; ++i) {
        lightvm::CreateTiming t = lightvm::CreateBootTimed(
            engine, host,
            bench::Config(lv::StrFormat("vm%d", i), guests::DaytimeUnikernel()));
        if (!t.ok) {
          bench::FailRun(lv::StrFormat("memory_at_scale: create %d/%d failed "
                                       "(sharing=%d)", i, n, sharing ? 1 : 0));
        }
      }
      used[sharing ? 1 : 0] = (host.MemoryUsed() - host.spec().dom0_memory).mib();
    }
    bench::Point("memory_at_scale", {{"n", static_cast<double>(n)},
                                     {"baseline_mb", used[0]},
                                     {"shared_mb", used[1]},
                                     {"saving_x", used[0] / used[1]}});
    std::printf("%-8d %-16.0f %-16.0f %.1fx\n", n, used[0], used[1], used[0] / used[1]);
  }
}

void DensityOnEdgeBox() {
  std::printf("\n## max daytime unikernels on a 2 GB edge box\n");
  std::printf("%-12s %s\n", "mode", "max_vms");
  for (bool sharing : {false, true}) {
    sim::Engine engine;
    lightvm::HostSpec spec = lightvm::HostSpec::Xeon4Core();
    spec.memory = lv::Bytes::GiB(2);
    spec.dom0_memory = lv::Bytes::MiB(256);
    lightvm::Host host(&engine, spec,
                       sharing ? lightvm::Mechanisms::LightVmShared()
                               : lightvm::Mechanisms::LightVm());
    int booted = 0;
    for (int i = 0; i < 5000; ++i) {
      toolstack::VmConfig config;
      config.name = lv::StrFormat("edge%d", i);
      config.image = guests::DaytimeUnikernel();
      auto domid = sim::RunToCompletion(engine, host.CreateVm(config));
      if (!domid.ok()) {
        break;
      }
      ++booted;
    }
    bench::Point(sharing ? "edge_density_shared" : "edge_density_baseline",
                 {{"max_vms", static_cast<double>(booted)}});
    std::printf("%-12s %d\n", sharing ? "shared" : "baseline", booted);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "ablate_memory_sharing");
  bench::Header("Ablation: page sharing (§9 extension)",
                "memory de-duplication between VMs of the same image flavor",
                "75% of each VM's pages shared copy-on-write against a template");
  MemoryAtScale();
  DensityOnEdgeBox();
  bench::Footnote("the paper lists memory de-duplication (as in SnowFlock) as an "
                  "optimization avenue; with mostly-idle unikernels the saving "
                  "approaches the shared fraction");
  bench::Report::Get().Write();
  return 0;
}
