// Figure 16a: personal firewalls for 1000 mobile users on one MEC machine.
//
// N ClickOS firewall VMs each service one client capped at 10 Mbps (typical
// busy-cell 4G speed). Throughput grows linearly until the guest cores
// saturate, then contention curbs it; one client runs ping instead of iperf
// to measure the added latency (round-robin scheduling across VMs).
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/base/stats.h"

namespace {

constexpr double kClientMbps = 10.0;
constexpr lv::Bytes kFrame = lv::Bytes::Count(1500);
constexpr lv::Duration kWindow = lv::Duration::Millis(10);
constexpr lv::Duration kMeasure = lv::Duration::Seconds(2);

// Interrupt/batching amortization: per-packet cost shrinks under load, as
// NAPI-style polling kicks in (this is what lets the paper's aggregate
// throughput keep growing past the linear region).
double BatchFactor(int active_vms) {
  return 1.0 / (1.0 + 0.0007 * static_cast<double>(active_vms));
}

struct GenState {
  int64_t bytes = 0;
  bool stop = false;
};

// Closed-loop 10 Mbps client: each 10 ms window's worth of packets is
// processed by the firewall VM; if the vCPU can't keep up, the next window
// starts late (throughput drops).
sim::Co<void> TrafficGen(sim::Engine* engine, guests::Guest* guest, int active_vms,
                         GenState* state) {
  double pkts_per_window =
      kClientMbps * 1e6 / 8.0 / static_cast<double>(kFrame.count()) * kWindow.secs();
  lv::Duration window_work = guest->image().per_packet_cpu *
                             (pkts_per_window * BatchFactor(active_vms));
  while (!state->stop) {
    lv::TimePoint t0 = engine->now();
    co_await guest->Ctx().Work(window_work);
    state->bytes += static_cast<int64_t>(pkts_per_window) * kFrame.count();
    lv::Duration elapsed = engine->now() - t0;
    if (elapsed < kWindow) {
      co_await engine->Sleep(kWindow - elapsed);
    }
  }
}

// The ping client: one request per 100 ms through its own firewall VM.
sim::Co<void> PingProbe(sim::Engine* engine, guests::Guest* guest, lv::Samples* rtts,
                        GenState* state) {
  while (!state->stop) {
    lv::TimePoint t0 = engine->now();
    // Up + down passes through the firewall.
    co_await guest->Ctx().Work(guest->image().per_packet_cpu * 2.0);
    rtts->AddDuration(engine->now() - t0);
    co_await engine->Sleep(lv::Duration::Millis(100));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig16a_firewall");
  bench::Header("Figure 16a", "personal firewalls: throughput + RTT vs active clients",
                "ClickOS firewall VMs, 10 Mbps per client, 14-core Xeon model");
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon14Core(),
                     lightvm::Mechanisms::LightVm());
  host.AddShellFlavor(guests::ClickOsFirewall().memory, true, 8);
  host.PrefillShellPool();

  // Boot the full population of 1000 firewalls once.
  std::vector<guests::Guest*> guests;
  for (int i = 0; i < 1000; ++i) {
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("fw%d", i), guests::ClickOsFirewall()));
    if (!t.ok) {
      return 1;
    }
    guests.push_back(host.guest(t.domid));
  }

  std::printf("%-10s %-18s %-12s %s\n", "clients", "throughput_gbps", "rtt_ms_avg",
              "rtt_ms_max");
  for (int active : {1, 100, 250, 500, 750, 1000}) {
    std::vector<std::unique_ptr<GenState>> states;
    lv::Samples rtts;
    // Client 0 pings; clients 1..active-1 run iperf.
    for (int i = 0; i < active; ++i) {
      states.push_back(std::make_unique<GenState>());
      if (i == 0) {
        engine.Spawn(PingProbe(&engine, guests[static_cast<size_t>(i)], &rtts,
                               states.back().get()));
      } else {
        engine.Spawn(TrafficGen(&engine, guests[static_cast<size_t>(i)], active,
                                states.back().get()));
      }
    }
    lv::TimePoint t0 = engine.now();
    engine.RunFor(kMeasure);
    int64_t total_bytes = 0;
    for (auto& s : states) {
      total_bytes += s->bytes;
      s->stop = true;
    }
    engine.RunFor(lv::Duration::Millis(200));  // Drain generators.
    double secs = (engine.now() - t0 - lv::Duration::Millis(200)).secs();
    double gbps = static_cast<double>(total_bytes) * 8.0 / secs / 1e9;
    bench::Point("firewall", {{"clients", static_cast<double>(active)},
                              {"throughput_gbps", gbps},
                              {"rtt_ms_avg", rtts.empty() ? 0.0 : rtts.mean()},
                              {"rtt_ms_max", rtts.empty() ? 0.0 : rtts.max()}});
    std::printf("%-10d %-18.2f %-12.2f %.2f\n", active, gbps,
                rtts.empty() ? 0.0 : rtts.mean(), rtts.empty() ? 0.0 : rtts.max());
  }
  bench::Footnote("paper shape: linear to 2.5 Gbps at 250 clients, then contention "
                  "curbs growth (~4 Gbps at 1000); RTT negligible at low load, tens of "
                  "ms at 1000 (round-robin across VMs)");
  bench::Report::Get().Write();
  return 0;
}
