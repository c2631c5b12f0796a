#include "src/hv/event_channel.h"

#include "src/base/strings.h"
#include "src/metrics/metrics.h"

namespace hv {

Port EventChannelTable::Alloc(DomainId side_a, DomainId side_b) {
  Port port = next_port_++;
  Channel& ch = *channels_.TryEmplace(port).first;
  ch.a = side_a;
  ch.b = side_b;
  return port;
}

lv::Status EventChannelTable::Bind(Port port, DomainId side, std::function<void()> handler) {
  Channel* found = channels_.Find(port);
  if (found == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("port %lld", (long long)port));
  }
  Channel& ch = *found;
  if (side == ch.a) {
    ch.handler_a = std::move(handler);
  } else if (side == ch.b) {
    ch.handler_b = std::move(handler);
  } else {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld not an endpoint of port %lld", (long long)side,
                                 (long long)port));
  }
  return lv::Status::Ok();
}

sim::Co<lv::Status> EventChannelTable::Notify(sim::ExecCtx ctx, Port port, DomainId from) {
  co_await ctx.Work(costs_->event_channel_op);
  Channel* found = channels_.Find(port);
  if (found == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound,
                      lv::StrFormat("port %lld", (long long)port));
  }
  Channel& ch = *found;
  std::function<void()>* handler = nullptr;
  if (from == ch.a) {
    handler = &ch.handler_b;
  } else if (from == ch.b) {
    handler = &ch.handler_a;
  } else {
    co_return lv::Err(lv::ErrorCode::kPermissionDenied, "not an endpoint");
  }
  ++notifications_;
  static metrics::Counter& sends = metrics::GetCounter("hv.event_channel.sends");
  sends.Inc();
  if (*handler) {
    // Deliver the virtual IRQ after the injection latency. Copy the handler:
    // the channel may be closed before delivery.
    static metrics::Counter& deliveries = metrics::GetCounter("hv.event_channel.deliveries");
    deliveries.Inc();
    std::function<void()> h = *handler;
    engine_->Schedule(costs_->event_delivery, [h] { h(); });
  }
  co_return lv::Status::Ok();
}

lv::Status EventChannelTable::Close(Port port) {
  if (!channels_.Erase(port)) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("port %lld", (long long)port));
  }
  return lv::Status::Ok();
}

}  // namespace hv
