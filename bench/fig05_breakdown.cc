// Figure 5: breakdown of the xl VM-creation overhead into the paper's six
// categories — the XenStore interaction and device creation dominate, with
// the store's share growing superlinearly.
//
// The per-phase numbers are derived from the trace subsystem (the
// create.config / create.toolstack / ... spans the toolstack opens around
// each phase), and cross-checked against the toolstack's own end-to-end
// timers: the two must agree within 1% or the bench fails.
#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "src/trace/trace.h"

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig05_breakdown");
  bench::Header("Figure 5", "xl creation-time breakdown vs number of running guests",
                "daytime unikernel x1000 under xl, categories as in the paper");
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), lightvm::Mechanisms::Xl());
  trace::Tracer& tracer = trace::Tracer::Get();
  tracer.Enable();
  std::printf("%-8s %-10s %-10s %-12s %-10s %-10s %-10s %s\n", "n", "config", "tstack",
              "hypervisor", "xenstore", "devices", "load", "total_ms");
  const int kTotal = 1000;
  for (int i = 1; i <= kTotal; ++i) {
    // One trace window per creation keeps the buffer bounded and makes the
    // SpanTotal queries below cover exactly this sample.
    tracer.Clear();
    lightvm::CreateTiming t = lightvm::CreateBootTimed(
        engine, host, bench::Config(lv::StrFormat("vm%d", i), guests::DaytimeUnikernel()));
    if (!t.ok) {
      break;
    }
    if (lv::SampleRow(i, kTotal)) {
      lv::Duration config = tracer.SpanTotal("create.config");
      lv::Duration tstack = tracer.SpanTotal("create.toolstack");
      lv::Duration hypervisor = tracer.SpanTotal("create.hypervisor");
      lv::Duration xenstore = tracer.SpanTotal("create.xenstore");
      lv::Duration devices = tracer.SpanTotal("create.devices");
      lv::Duration load = tracer.SpanTotal("create.load");
      lv::Duration total = config + tstack + hypervisor + xenstore + devices + load;
      const toolstack::CreateBreakdown& bd = host.toolstack().last_breakdown();
      if (std::abs(total.ms() - bd.total().ms()) > 0.01 * bd.total().ms()) {
        std::fprintf(stderr,
                     "FAIL: trace-derived total %.3fms disagrees with toolstack "
                     "timers %.3fms by more than 1%%\n",
                     total.ms(), bd.total().ms());
        return 1;
      }
      bench::Point("breakdown", {{"n", static_cast<double>(i)},
                                 {"config_ms", config.ms()},
                                 {"toolstack_ms", tstack.ms()},
                                 {"hypervisor_ms", hypervisor.ms()},
                                 {"xenstore_ms", xenstore.ms()},
                                 {"devices_ms", devices.ms()},
                                 {"load_ms", load.ms()},
                                 {"total_ms", total.ms()}});
      std::printf("%-8d %-10.2f %-10.2f %-12.2f %-10.2f %-10.2f %-10.2f %.1f\n", i,
                  config.ms(), tstack.ms(), hypervisor.ms(), xenstore.ms(), devices.ms(),
                  load.ms(), total.ms());
    }
  }
  bench::Footnote("paper shape: devices ~constant and dominant at low n; xenstore grows "
                  "superlinearly and dominates at high n; everything else negligible");
  bench::Report::Get().Write();
  return 0;
}
