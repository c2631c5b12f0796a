// Event channels: Xen's inter-domain software interrupts.
//
// A channel connects exactly two domains. Either side binds a handler; a
// Notify() from one side charges the notification cost to the caller and
// delivers a virtual IRQ to the other side's handler after the injection
// latency. The split drivers and the noxs control path are built on these.
#pragma once

#include <functional>

#include "src/base/id_table.h"
#include "src/base/result.h"
#include "src/hv/costs.h"
#include "src/hv/types.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"

namespace hv {

class EventChannelTable {
 public:
  EventChannelTable(sim::Engine* engine, const Costs* costs)
      : engine_(engine), costs_(costs) {}

  // Allocates a channel between two domains; returns its port.
  Port Alloc(DomainId side_a, DomainId side_b);

  // Binds the handler invoked when the *other* side notifies.
  lv::Status Bind(Port port, DomainId side, std::function<void()> handler);

  // Sends an event from `from` to the other side. Charges the hypercall to
  // `ctx` and delivers the virtual IRQ after the injection latency.
  sim::Co<lv::Status> Notify(sim::ExecCtx ctx, Port port, DomainId from);

  lv::Status Close(Port port);

  bool IsOpen(Port port) const { return channels_.Contains(port); }
  int64_t open_channels() const { return static_cast<int64_t>(channels_.size()); }
  int64_t notifications_sent() const { return notifications_; }

 private:
  struct Channel {
    DomainId a = kInvalidDomain;
    DomainId b = kInvalidDomain;
    std::function<void()> handler_a;
    std::function<void()> handler_b;
  };

  sim::Engine* engine_;
  const Costs* costs_;
  Port next_port_ = 1;
  int64_t notifications_ = 0;
  lv::IdTable<Channel> channels_;
};

}  // namespace hv
