// Ablation: which XenStore mechanisms cost what? Toggles access logging
// (the rotation spikes), the O(#watches) match scan and the O(#domains)
// unique-name check, then measures chaos[XS] creation times at n=500.
//
// This isolates the individual contributions the paper attributes to the
// store in §4.2.
#include <cstdio>

#include "bench/common.h"

namespace {

struct Variant {
  const char* name;
  xs::Costs costs;
};

double MeasureAt500(const xs::Costs& store_costs) {
  sim::Engine engine;
  // Build a host manually so we can inject store costs.
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                     lightvm::Mechanisms::ChaosXs());
  // Reconfigure the store daemon's cost model before any traffic.
  // (The daemon is already running; costs are read per-op.)
  *host.store_costs_for_test() = store_costs;
  double last = 0.0;
  for (int i = 1; i <= 500; ++i) {
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("vm%d", i), guests::DaytimeUnikernel()));
    if (!t.ok) {
      bench::FailRun(lv::StrFormat("create %d/500 failed", i));
    }
    last = t.create_ms;
  }
  return last;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "ablate_xenstore");
  bench::Header("Ablation: XenStore mechanisms",
                "chaos [XS] creation time of the 500th daytime unikernel",
                "each row disables one cost source inside the store");
  Variant variants[] = {
      {"baseline", xs::Costs{}},
      {"no-access-logging", [] {
         xs::Costs c;
         c.logging_enabled = false;
         return c;
       }()},
      {"free-watch-scan", [] {
         xs::Costs c;
         c.per_watch_check = lv::Duration();
         c.per_watch_fire = lv::Duration();
         return c;
       }()},
      {"free-name-check", [] {
         xs::Costs c;
         c.per_name_check = lv::Duration();
         return c;
       }()},
      {"cheap-interrupts", [] {
         xs::Costs c;
         c.soft_interrupt = lv::Duration::Micros(1);
         return c;
       }()},
  };
  std::printf("%-20s %s\n", "variant", "create_ms_at_500");
  for (const Variant& v : variants) {
    double create_ms = MeasureAt500(v.costs);
    bench::Point(v.name, {{"create_ms_at_500", create_ms}});
    std::printf("%-20s %.2f\n", v.name, create_ms);
  }
  bench::Footnote("the watch scan and name check drive the growth; logging adds the "
                  "rotation spikes; the interrupt count sets the per-op floor");
  bench::Report::Get().Write();
  return 0;
}
