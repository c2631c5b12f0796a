// Figure 16c: high-density TLS termination — aggregate handshake throughput
// as the number of termination endpoints grows, for bare-metal processes,
// Tinyx VMs (Linux TCP stack) and the axtls/lwip unikernel.
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/guests/apps.h"

namespace {

constexpr lv::Duration kWarmup = lv::Duration::Seconds(8);
constexpr lv::Duration kMeasure = lv::Duration::Seconds(5);
constexpr int kCounts[] = {1, 100, 250, 500, 750, 1000};

struct LoopState {
  int64_t served = 0;
  bool stop = false;
};

// One apachebench client per endpoint, closed loop.
sim::Co<void> ClientLoop(guests::TlsServer* server, LoopState* state) {
  while (!state->stop) {
    co_await server->HandleRequest();
    ++state->served;
  }
}

// Bare metal: N processes on the 14 cores, same RSA-1024 handshake cost as
// Tinyx (the Linux stack is the common denominator).
sim::Co<void> ProcessLoop(sim::CpuScheduler* cpu, int core, LoopState* state) {
  while (!state->stop) {
    co_await cpu->Run(core, guests::TinyxTls().tls_handshake_cpu);
    ++state->served;
  }
}

double MeasureVmSeries(const guests::GuestImage& image, int n) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon14Core(),
                     lightvm::Mechanisms::LightVm());
  host.AddShellFlavor(image.memory, true, 8);
  host.PrefillShellPool();
  // Boot the whole population first; only then start the measured clients.
  std::vector<std::unique_ptr<guests::TlsServer>> servers;
  std::vector<std::unique_ptr<LoopState>> states;
  for (int i = 0; i < n; ++i) {
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("tls%d", i), image));
    if (!t.ok) {
      bench::FailRun(lv::StrFormat("tls: create %d/%d failed", i, n));
    }
    servers.push_back(std::make_unique<guests::TlsServer>(host.guest(t.domid)));
  }
  for (int i = 0; i < n; ++i) {
    states.push_back(std::make_unique<LoopState>());
    engine.Spawn(ClientLoop(servers[static_cast<size_t>(i)].get(), states.back().get()));
  }
  // Warm up so slow (lwip) requests are in steady state, then measure.
  engine.RunFor(kWarmup);
  for (auto& s : states) {
    s->served = 0;
  }
  engine.RunFor(kMeasure);
  int64_t total = 0;
  for (auto& s : states) {
    total += s->served;
    s->stop = true;
  }
  engine.RunFor(lv::Duration::Seconds(2));  // Drain loops.
  return static_cast<double>(total) / kMeasure.secs();
}

double MeasureBareMetal(int n) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 14);
  std::vector<std::unique_ptr<LoopState>> states;
  for (int i = 0; i < n; ++i) {
    states.push_back(std::make_unique<LoopState>());
    engine.Spawn(ProcessLoop(&cpu, i % 14, states.back().get()));
  }
  engine.RunFor(kWarmup);
  for (auto& s : states) {
    s->served = 0;
  }
  engine.RunFor(kMeasure);
  int64_t total = 0;
  for (auto& s : states) {
    total += s->served;
    s->stop = true;
  }
  engine.RunFor(lv::Duration::Seconds(2));
  return static_cast<double>(total) / kMeasure.secs();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig16c_tls");
  bench::Header("Figure 16c", "TLS termination throughput vs number of endpoints",
                "RSA-1024 handshakes, 14-core Xeon model, closed-loop clients");
  std::printf("%-10s %-14s %-12s %s\n", "endpoints", "bare_metal", "tinyx",
              "unikernel");
  for (int n : kCounts) {
    double bare = MeasureBareMetal(n);
    double tinyx = MeasureVmSeries(guests::TinyxTls(), n);
    double uni = MeasureVmSeries(guests::TlsUnikernel(), n);
    bench::Point("tls", {{"endpoints", static_cast<double>(n)},
                         {"bare_metal_rps", bare},
                         {"tinyx_rps", tinyx},
                         {"unikernel_rps", uni}});
    std::printf("%-10d %-14.0f %-12.0f %.0f\n", n, bare, tinyx, uni);
  }
  bench::Footnote("paper shape: ~1400 req/s for bare metal and Tinyx (Linux stack); "
                  "the lwip unikernel reaches ~1/5 of that; throughput rises with "
                  "endpoints until the CPUs saturate");
  bench::Report::Get().Write();
  return 0;
}
