// Figure 14: scalability of memory usage for different VM types, containers
// and processes — the hard bound on density.
#include <cstdio>

#include "bench/common.h"
#include "src/container/container.h"

namespace {

void VmSeries(const char* label, guests::GuestImage image, int total) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                     lightvm::Mechanisms::LightVm());
  std::printf("\n## %s\n", label);
  std::printf("%-8s %s\n", "n", "memory_mb");
  for (int i = 1; i <= total; ++i) {
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("%s%d", label, i), image));
    if (!t.ok) {
      std::printf("# out of memory at n=%d\n", i);
      break;
    }
    bench::Point(label,
                 {{"n", static_cast<double>(i)}, {"memory_mb", host.MemoryUsed().mib()}});
    if (lv::SampleRow(i, total)) {
      std::printf("%-8d %.0f\n", i, host.MemoryUsed().mib());
    }
  }
}

void DockerSeries(int total) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 4);
  hv::MemoryPool memory(lv::Bytes::GiB(128));
  container::DockerRuntime docker(&engine, &memory);
  sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
  std::printf("\n## docker-micropython\n");
  std::printf("%-8s %s\n", "n", "memory_mb");
  for (int i = 1; i <= total; ++i) {
    if (!sim::RunToCompletion(engine, docker.Run(ctx, container::MicropythonContainer()))
             .ok()) {
      break;
    }
    bench::Point("docker-micropython",
                 {{"n", static_cast<double>(i)}, {"memory_mb", docker.MemoryUsed().mib()}});
    if (lv::SampleRow(i, total)) {
      std::printf("%-8d %.0f\n", i, docker.MemoryUsed().mib());
    }
  }
}

void ProcessSeries(int total) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 4);
  hv::MemoryPool memory(lv::Bytes::GiB(128));
  container::ProcessRuntime procs(&engine, &memory);
  sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
  std::printf("\n## micropython process\n");
  std::printf("%-8s %s\n", "n", "memory_mb");
  for (int i = 1; i <= total; ++i) {
    (void)sim::RunToCompletion(engine, procs.ForkExec(ctx));
    bench::Point("process",
                 {{"n", static_cast<double>(i)}, {"memory_mb", procs.MemoryUsed().mib()}});
    if (lv::SampleRow(i, total)) {
      std::printf("%-8d %.0f\n", i, procs.MemoryUsed().mib());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig14_memory");
  bench::Header("Figure 14", "total memory usage vs number of guests",
                "Micropython workload in each environment, 128 GB host");
  VmSeries("debian-micropython", guests::DebianMicropython(), 1000);
  VmSeries("tinyx-micropython", guests::TinyxMicropython(), 1000);
  DockerSeries(1000);
  VmSeries("minipython-unikernel", guests::MinipythonUnikernel(), 1000);
  ProcessSeries(1000);
  bench::Footnote("paper anchors at 1000 guests: Debian ~114 GB, Tinyx ~27 GB, Docker "
                  "~5 GB, Minipython close to Docker, processes lowest");
  bench::Report::Get().Write();
  return 0;
}
