#include "src/hv/hypervisor.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/metrics/metrics.h"
#include "src/trace/trace.h"

namespace hv {

namespace {
constexpr const char* kMod = "hv";

// Per-hypercall-type counter, cached per call site (the static-handle idiom
// from src/metrics/metrics.h).
metrics::Counter& HypercallCounter(const char* op) {
  return metrics::GetCounter(std::string("hv.hypervisor.hypercalls.") + op);
}
}  // namespace

const char* DomainStateName(DomainState state) {
  switch (state) {
    case DomainState::kBuilding:
      return "building";
    case DomainState::kPaused:
      return "paused";
    case DomainState::kRunning:
      return "running";
    case DomainState::kSuspended:
      return "suspended";
    case DomainState::kShutdown:
      return "shutdown";
    case DomainState::kDead:
      return "dead";
  }
  return "?";
}

Hypervisor::Hypervisor(sim::Engine* engine, lv::Bytes total_memory, Costs costs)
    : engine_(engine),
      costs_(costs),
      memory_(total_memory),
      event_channels_(engine, &costs_) {}

Domain* Hypervisor::FindDomain(DomainId id) { return domains_.Find(id); }

void Hypervisor::SetState(Domain& dom, DomainState state) {
  --state_counts_[static_cast<size_t>(dom.state())];
  ++state_counts_[static_cast<size_t>(state)];
  dom.set_state(state);
}

sim::Co<void> Hypervisor::HypercallEntry(sim::ExecCtx ctx) {
  hypercalls_.Inc();
  // Every hypercall is a guest->hypervisor->guest privilege transition.
  static metrics::Counter& crossings = metrics::GetCounter("hv.hypervisor.domain_crossings");
  crossings.Inc();
  co_await ctx.Work(costs_.hypercall);
}

lv::Result<Domain*> Hypervisor::Lookup(DomainId id) {
  Domain* dom = FindDomain(id);
  if (dom == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("dom%lld", (long long)id));
  }
  return dom;
}

sim::Co<lv::Result<DomainId>> Hypervisor::DomainCreate(sim::ExecCtx ctx) {
  trace::Span span(ctx.track, "hv.domain_create");
  static metrics::Counter& hc = HypercallCounter("domain_create");
  hc.Inc();
  co_await HypercallEntry(ctx);
  co_await ctx.Work(costs_.domain_create);
  DomainId id = next_id_++;
  domains_.TryEmplace(id, id, engine_->now());
  ++state_counts_[static_cast<size_t>(DomainState::kBuilding)];
  domains_created_.Inc();
  LV_DEBUG(kMod, "created dom%lld", (long long)id);
  co_return id;
}

sim::Co<lv::Status> Hypervisor::DomainSetMaxMem(sim::ExecCtx ctx, DomainId id, lv::Bytes max) {
  static metrics::Counter& hc = HypercallCounter("set_max_mem");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  (*dom)->set_max_mem(max);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::PopulatePhysmap(sim::ExecCtx ctx, DomainId id,
                                                lv::Bytes bytes) {
  trace::Span span(ctx.track, "hv.populate_physmap");
  static metrics::Counter& hc = HypercallCounter("populate_physmap");
  static metrics::Counter& populated = metrics::GetCounter("hv.memory.pages_populated");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  int64_t pages = lv::PagesFor(bytes);
  lv::Status reserved = memory_.Reserve(pages);
  if (!reserved.ok()) {
    co_return reserved;
  }
  (*dom)->add_reserved_pages(pages);
  populated.Inc(static_cast<double>(pages));
  co_await ctx.Work(costs_.per_page_populate * static_cast<double>(pages));
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::PopulatePhysmapShared(sim::ExecCtx ctx, DomainId id,
                                                      lv::Bytes bytes,
                                                      const std::string& template_key,
                                                      double shared_fraction) {
  trace::Span span(ctx.track, "hv.populate_physmap");
  static metrics::Counter& hc = HypercallCounter("populate_physmap_shared");
  static metrics::Counter& populated = metrics::GetCounter("hv.memory.pages_populated");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  if (shared_fraction < 0.0 || shared_fraction > 1.0) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument, "shared_fraction out of range");
  }
  int64_t total_pages = lv::PagesFor(bytes);
  int64_t shared_pages = static_cast<int64_t>(static_cast<double>(total_pages) *
                                              shared_fraction);
  int64_t private_pages = total_pages - shared_pages;

  auto it = templates_.find(template_key);
  bool template_exists = it != templates_.end();
  int64_t to_reserve = private_pages + (template_exists ? 0 : shared_pages);
  lv::Status reserved = memory_.Reserve(to_reserve);
  if (!reserved.ok()) {
    co_return reserved;
  }
  if (template_exists) {
    ++it->second.refs;
    // Mapping existing read-only pages is cheap; only private pages are
    // populated.
    populated.Inc(static_cast<double>(private_pages));
    co_await ctx.Work(costs_.per_page_populate * static_cast<double>(private_pages));
  } else {
    templates_.emplace(template_key, SharedTemplate{shared_pages, 1});
    populated.Inc(static_cast<double>(total_pages));
    co_await ctx.Work(costs_.per_page_populate * static_cast<double>(total_pages));
  }
  (*dom)->add_reserved_pages(private_pages);
  (*dom)->set_shared_template(template_key);
  co_return lv::Status::Ok();
}

int64_t Hypervisor::shared_template_pages() const {
  int64_t pages = 0;
  for (const auto& [key, tmpl] : templates_) {
    pages += tmpl.pages;
  }
  return pages;
}

sim::Co<lv::Status> Hypervisor::VcpuInit(sim::ExecCtx ctx, DomainId id,
                                         std::vector<int> cores) {
  trace::Span span(ctx.track, "hv.vcpu_init");
  static metrics::Counter& hc = HypercallCounter("vcpu_init");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  if (cores.empty()) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument, "need at least one vcpu");
  }
  co_await ctx.Work(costs_.vcpu_init * static_cast<double>(cores.size()));
  (*dom)->set_vcpu_cores(std::move(cores));
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::CopyToDomain(sim::ExecCtx ctx, DomainId id, lv::Bytes bytes) {
  trace::Span span(ctx.track, "hv.copy_to_domain");
  static metrics::Counter& hc = HypercallCounter("copy_to_domain");
  static metrics::Counter& copied = metrics::GetCounter("hv.hypervisor.bytes_copied");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  copied.Inc(static_cast<double>(bytes.count()));
  co_await ctx.Work(costs_.per_page_copy * static_cast<double>(lv::PagesFor(bytes)));
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::CopyFromDomain(sim::ExecCtx ctx, DomainId id,
                                               lv::Bytes bytes) {
  trace::Span span(ctx.track, "hv.copy_from_domain");
  static metrics::Counter& hc = HypercallCounter("copy_from_domain");
  static metrics::Counter& copied = metrics::GetCounter("hv.hypervisor.bytes_copied");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  copied.Inc(static_cast<double>(bytes.count()));
  co_await ctx.Work(costs_.per_page_copy * static_cast<double>(lv::PagesFor(bytes)));
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::DomainFinishBuild(sim::ExecCtx ctx, DomainId id) {
  trace::Span span(ctx.track, "hv.finish_build");
  static metrics::Counter& hc = HypercallCounter("finish_build");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  if ((*dom)->state() != DomainState::kBuilding) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument,
                      lv::StrFormat("dom%lld not building", (long long)id));
  }
  SetState(**dom, DomainState::kPaused);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::DomainPause(sim::ExecCtx ctx, DomainId id) {
  static metrics::Counter& hc = HypercallCounter("pause");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  if ((*dom)->state() != DomainState::kRunning) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument, "domain not running");
  }
  SetState(**dom, DomainState::kPaused);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::DomainUnpause(sim::ExecCtx ctx, DomainId id) {
  trace::Span span(ctx.track, "hv.unpause");
  static metrics::Counter& hc = HypercallCounter("unpause");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom_r = Lookup(id);
  if (!dom_r.ok()) {
    co_return dom_r.error();
  }
  Domain* dom = *dom_r;
  if (dom->state() != DomainState::kPaused) {
    co_return lv::Err(lv::ErrorCode::kInvalidArgument,
                      lv::StrFormat("dom%lld is %s, not paused", (long long)id,
                                    DomainStateName(dom->state())));
  }
  SetState(*dom, DomainState::kRunning);
  if (!dom->started() && dom->start_fn()) {
    dom->mark_started();
    // The guest entry point begins executing on its own vCPU.
    engine_->Spawn(dom->start_fn()(*dom));
  }
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::DomainShutdown(sim::ExecCtx ctx, DomainId id,
                                               ShutdownReason reason) {
  static metrics::Counter& hc = HypercallCounter("shutdown");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  SetState(**dom, reason == ShutdownReason::kSuspend ? DomainState::kSuspended
                                                     : DomainState::kShutdown);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> Hypervisor::DomainDestroy(sim::ExecCtx ctx, DomainId id) {
  trace::Span span(ctx.track, "hv.domain_destroy");
  static metrics::Counter& hc = HypercallCounter("domain_destroy");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom_r = Lookup(id);
  if (!dom_r.ok()) {
    domains_destroyed_.Inc(0);  // A failed destroy still registers the count.
    co_return dom_r.error();
  }
  Domain* dom = *dom_r;
  if (dom->dying_) {
    // The first destroy releases the pages and removes the domain; a second
    // one would release them again and touch the domain after its removal.
    domains_destroyed_.Inc(0);
    co_return lv::Err(lv::ErrorCode::kNotFound,
                      lv::StrFormat("dom%lld is being destroyed", (long long)id));
  }
  dom->dying_ = true;
  SetState(*dom, DomainState::kDead);
  int64_t pages = dom->reserved_pages();
  co_await ctx.Work(costs_.per_page_scrub * static_cast<double>(pages));
  memory_.Release(pages);
  dom->clear_reserved_pages();
  if (!dom->shared_template().empty()) {
    auto tmpl = templates_.find(dom->shared_template());
    if (tmpl != templates_.end() && --tmpl->second.refs == 0) {
      memory_.Release(tmpl->second.pages);
      templates_.erase(tmpl);
    }
  }
  // A shutdown may have moved the domain on while its pages were scrubbed.
  --state_counts_[static_cast<size_t>(dom->state())];
  domains_.Erase(id);
  domains_destroyed_.Inc();
  LV_DEBUG(kMod, "destroyed dom%lld", (long long)id);
  co_return lv::Status::Ok();
}

sim::Co<lv::Result<DomainInfo>> Hypervisor::DomainGetInfo(sim::ExecCtx ctx, DomainId id) {
  static metrics::Counter& hc = HypercallCounter("get_info");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  DomainInfo info;
  info.id = id;
  info.state = (*dom)->state();
  info.max_mem = (*dom)->max_mem();
  info.reserved_pages = (*dom)->reserved_pages();
  info.vcpus = static_cast<int>((*dom)->vcpu_cores().size());
  co_return info;
}

sim::Co<int64_t> Hypervisor::CountDomains(sim::ExecCtx ctx) {
  trace::Span span(ctx.track, "hv.list_domains");
  static metrics::Counter& hc = HypercallCounter("list_domains");
  hc.Inc();
  co_await HypercallEntry(ctx);
  co_await ctx.Work(costs_.per_domain_list * static_cast<double>(domains_.size()));
  co_return static_cast<int64_t>(domains_.size());
}

sim::Co<lv::Result<int>> Hypervisor::DevicePageWrite(sim::ExecCtx ctx, DomainId caller,
                                                     DomainId id, const DeviceInfo& info) {
  static metrics::Counter& hc = HypercallCounter("device_page_write");
  hc.Inc();
  co_await HypercallEntry(ctx);
  if (caller != kDom0) {
    co_return lv::Err(lv::ErrorCode::kPermissionDenied,
                      "device page is read-only outside Dom0");
  }
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  if ((*dom)->device_page_full()) {
    co_return lv::Err(lv::ErrorCode::kUnavailable, "device page full");
  }
  co_await ctx.Work(costs_.device_page_op);
  (*dom)->AppendDevice(info);
  ++device_page_writes_;
  co_return static_cast<int>((*dom)->device_page().size()) - 1;
}

sim::Co<lv::Result<std::vector<DeviceInfo>>> Hypervisor::DevicePageRead(sim::ExecCtx ctx,
                                                                        DomainId id) {
  static metrics::Counter& hc = HypercallCounter("device_page_read");
  hc.Inc();
  co_await HypercallEntry(ctx);
  auto dom = Lookup(id);
  if (!dom.ok()) {
    co_return dom.error();
  }
  co_await ctx.Work(costs_.device_page_op);
  ++device_page_reads_;
  co_return (*dom)->device_page();
}

}  // namespace hv
