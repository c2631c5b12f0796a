#include "src/devices/sysctl.h"

#include "src/base/log.h"

namespace xdev {

SysctlBackend::SysctlBackend(sim::Engine* engine, hv::Hypervisor* hv,
                             ControlPages* control_pages, const Costs* costs)
    : engine_(engine), hv_(hv), control_pages_(control_pages), costs_(costs) {}

sim::Co<lv::Result<hv::DeviceInfo>> SysctlBackend::Create(sim::ExecCtx ctx,
                                                          hv::DomainId domid) {
  co_await ctx.Work(costs_->ioctl + costs_->backend_init);
  Instance inst;
  inst.domid = domid;
  inst.event_channel = hv_->event_channels().Alloc(hv::kDom0, domid);
  inst.grant_ref = hv_->grant_table().Grant(hv::kDom0, domid);
  inst.page = std::make_shared<SysctlControlPage>();
  inst.acked = std::make_unique<sim::OneShotEvent>(engine_);
  control_pages_->RegisterSysctl(inst.grant_ref, inst.page);
  // Back-end side: the guest notifying us means the ack flag was set.
  hv::Port chan = inst.event_channel;
  (void)hv_->event_channels().Bind(chan, hv::kDom0, [this, domid] {
    Instance* found = instances_.Find(domid);
    if (found != nullptr && found->page->acked) {
      found->acked->Trigger();
    }
  });
  hv::DeviceInfo info;
  info.type = hv::DeviceType::kSysctl;
  info.backend_domid = hv::kDom0;
  info.event_channel = inst.event_channel;
  info.grant_ref = inst.grant_ref;
  instances_.TryEmplace(domid, std::move(inst));
  co_return info;
}

sim::Co<lv::Status> SysctlBackend::FrontendConnect(sim::ExecCtx guest_ctx,
                                                   hv::DomainId domid,
                                                   const hv::DeviceInfo& info,
                                                   PowerHandler on_power_request) {
  co_await guest_ctx.Work(costs_->frontend_init);
  lv::Status mapped = hv_->grant_table().Map(domid, info.grant_ref);
  if (!mapped.ok()) {
    co_return mapped;
  }
  Instance* inst = instances_.Find(domid);
  if (inst == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no sysctl backend instance");
  }
  inst->handler = std::move(on_power_request);
  // Front-end side of the channel: Dom0 notifying us means a power request
  // is pending in the shared page.
  (void)hv_->event_channels().Bind(info.event_channel, domid, [this, domid] {
    Instance* bound = instances_.Find(domid);
    if (bound == nullptr || !bound->handler) {
      return;
    }
    hv::ShutdownReason reason = bound->page->request;
    if (reason != hv::ShutdownReason::kNone && !bound->page->acked) {
      engine_->Spawn(bound->handler(reason));
    }
  });
  // The page is level-triggered: a request may already be pending from
  // before the front-end bound (e.g. suspend racing a resumed guest's boot).
  if (inst->page->request != hv::ShutdownReason::kNone && !inst->page->acked) {
    engine_->Spawn(inst->handler(inst->page->request));
  }
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> SysctlBackend::RequestShutdown(sim::ExecCtx ctx, hv::DomainId domid,
                                                   hv::ShutdownReason reason) {
  Instance* inst = instances_.Find(domid);
  if (inst == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no sysctl device for domain");
  }
  // chaos issues an ioctl to the sysctl back-end, which sets a field in the
  // shared page to denote the shutdown reason and triggers the channel.
  co_await ctx.Work(costs_->ioctl + costs_->control_page_op);
  inst->page->request = reason;
  lv::Status notified =
      co_await hv_->event_channels().Notify(ctx, inst->event_channel, hv::kDom0);
  if (!notified.ok()) {
    co_return notified;
  }
  co_await inst->acked->Wait();
  // Re-arm for a future request (after resume).
  inst->page->request = hv::ShutdownReason::kNone;
  inst->page->acked = false;
  inst->acked = std::make_unique<sim::OneShotEvent>(engine_);
  co_return lv::Status::Ok();
}

sim::Co<void> SysctlBackend::Ack(sim::ExecCtx guest_ctx, hv::DomainId domid) {
  Instance* inst = instances_.Find(domid);
  if (inst == nullptr) {
    co_return;
  }
  co_await guest_ctx.Work(costs_->control_page_op);
  inst->page->acked = true;
  (void)co_await hv_->event_channels().Notify(guest_ctx, inst->event_channel, domid);
}

sim::Co<lv::Status> SysctlBackend::Destroy(sim::ExecCtx ctx, hv::DomainId domid) {
  Instance* inst = instances_.Find(domid);
  if (inst == nullptr) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no sysctl device for domain");
  }
  co_await ctx.Work(costs_->backend_teardown);
  (void)hv_->event_channels().Close(inst->event_channel);
  if (hv_->grant_table().IsMapped(inst->grant_ref)) {
    (void)hv_->grant_table().Unmap(domid, inst->grant_ref);
  }
  (void)hv_->grant_table().Revoke(inst->grant_ref);
  control_pages_->Remove(inst->grant_ref);
  instances_.Erase(domid);
  co_return lv::Status::Ok();
}

}  // namespace xdev
