#include "src/net/switch.h"

#include "src/base/log.h"

namespace xnet {

namespace {
constexpr lv::Duration kWindow = lv::Duration::Millis(10);
}  // namespace

Switch::Switch(sim::Engine* engine, Costs costs)
    : engine_(engine), costs_(costs), window_start_(engine->now()) {}

lv::Status Switch::AddPort(const std::string& name, RxHandler handler) {
  if (!ports_.try_emplace(name, std::move(handler)).second) {
    return lv::Err(lv::ErrorCode::kAlreadyExists, "port " + name);
  }
  return lv::Status::Ok();
}

lv::Status Switch::RemovePort(const std::string& name) {
  if (ports_.erase(name) == 0) {
    return lv::Err(lv::ErrorCode::kNotFound, "port " + name);
  }
  return lv::Status::Ok();
}

bool Switch::OverCapacity() {
  lv::TimePoint now = engine_->now();
  if (now - window_start_ >= kWindow) {
    window_start_ = now;
    window_packets_ = 0;
  }
  ++window_packets_;
  double window_secs = kWindow.secs();
  return static_cast<double>(window_packets_) > costs_.capacity_pps * window_secs;
}

sim::Co<void> Switch::Forward(sim::ExecCtx ctx, Packet packet) {
  if (OverCapacity()) {
    dropped_overload_.Inc();
    co_return;
  }
  co_await ctx.Work(costs_.per_packet);
  if (packet.dst.empty()) {
    // Broadcast: deliver to every port except the ingress.
    broadcasts_.Inc();
    co_await ctx.Work(costs_.per_broadcast_port * static_cast<double>(ports_.size()));
    for (const auto& [name, handler] : ports_) {
      if (name == packet.src) {
        continue;
      }
      RxHandler h = handler;
      Packet copy = packet;
      engine_->Schedule(lv::Duration::Micros(1), [h, copy] { h(copy); });
    }
    co_return;
  }
  auto it = ports_.find(packet.dst);
  if (it == ports_.end()) {
    dropped_no_port_.Inc();
    co_return;
  }
  forwarded_.Inc();
  RxHandler h = it->second;
  engine_->Schedule(lv::Duration::Micros(1), [h, packet] { h(packet); });
}

}  // namespace xnet
