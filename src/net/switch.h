// Dom0 software switch (the paper's Open vSwitch / Linux bridge).
//
// Ports are added by the hotplug machinery (bash scripts under xl, xendevd
// under LightVM). Forwarding charges per-packet CPU to the switch's Dom0
// context. The bridge has a finite packet-processing capacity; when the
// offered load exceeds it the bridge drops packets — the paper observes
// exactly this in the just-in-time instantiation use case ("our Linux bridge
// is overloaded and starts dropping packets (mostly ARP packets)", §7.2).
#pragma once

#include <functional>
#include <map>
#include <string>

#include "src/base/result.h"
#include "src/metrics/metrics.h"
#include "src/net/packet.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"

namespace xnet {

class Switch {
 public:
  struct Costs {
    // Per-packet forwarding cost on the Dom0 core (lookup + queueing).
    lv::Duration per_packet = lv::Duration::Micros(2);
    // Per-port cost of a broadcast (ARP floods every port).
    lv::Duration per_broadcast_port = lv::Duration::Micros(1);
    // Adding/removing a port (FIB update); the expensive part — running the
    // hotplug script or xendevd — is charged by the caller.
    lv::Duration port_update = lv::Duration::Micros(50);
    // Sustained packet-processing capacity. Beyond this the bridge drops.
    double capacity_pps = 300000.0;
  };

  struct Stats {
    int64_t forwarded = 0;
    int64_t broadcasts = 0;
    int64_t dropped_no_port = 0;
    int64_t dropped_overload = 0;
  };

  // A port's receive handler. Runs as a scheduled event; implementations
  // spawn their own coroutines for non-trivial work.
  using RxHandler = std::function<void(const Packet&)>;

  explicit Switch(sim::Engine* engine) : Switch(engine, Costs{}) {}
  Switch(sim::Engine* engine, Costs costs);

  // Port management (used by hotplug script / xendevd).
  lv::Status AddPort(const std::string& name, RxHandler handler);
  lv::Status RemovePort(const std::string& name);
  bool HasPort(const std::string& name) const { return ports_.contains(name); }
  int64_t num_ports() const { return static_cast<int64_t>(ports_.size()); }

  // Forwards a packet: unicast to `dst`, or broadcast when dst is empty.
  // Charges forwarding cost to `ctx`. Overload and unknown-destination drops
  // are silent (counted in stats), like a real bridge.
  sim::Co<void> Forward(sim::ExecCtx ctx, Packet packet);

  Stats stats() const {
    return {.forwarded = forwarded_.value(),
            .broadcasts = broadcasts_.value(),
            .dropped_no_port = dropped_no_port_.value(),
            .dropped_overload = dropped_overload_.value()};
  }
  const Costs& costs() const { return costs_; }
  // Reconfigures the cost model (e.g. a lower-capacity edge bridge).
  void set_costs(Costs costs) { costs_ = costs; }

 private:
  // Token-bucket style overload detection over a sliding window.
  bool OverCapacity();

  sim::Engine* engine_;
  Costs costs_;
  std::map<std::string, RxHandler> ports_;
  metrics::Tally forwarded_{"net.switch.forwarded"};
  metrics::Tally broadcasts_{"net.switch.broadcasts"};
  metrics::Tally dropped_no_port_{"net.switch.dropped_no_port"};
  metrics::Tally dropped_overload_{"net.switch.dropped_overload"};
  // Packet arrivals in the current 10ms accounting window.
  lv::TimePoint window_start_;
  int64_t window_packets_ = 0;
};

}  // namespace xnet
