#include "harness/ladder.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace perfbench {

namespace {

// Side instances run no faults, so a probe that never completes is a
// program defect: fail the run with a message instead of hanging.
template <typename T>
T Must(sim::Engine& engine, sim::Co<T> co) {
  std::optional<T> out = DriveTo(engine, std::move(co));
  LV_CHECK_MSG(out.has_value(), "a ladder probe never completed");
  return std::move(*out);
}

void Must(sim::Engine& engine, sim::Co<void> co) {
  LV_CHECK_MSG(DriveTo(engine, std::move(co)), "a ladder probe never completed");
}

// Flight-recorder ring the obs probe writes to: far above any node index,
// so the workload's own post-mortem rings are never overwritten.
constexpr int kProbeRing = 63;

struct Measure {
  double ns = 0;
  Counters delta;
};

// Times `f` on the host clock and differences the public counters around
// it (`engine` is the side engine the probe drives).
template <typename F>
Measure Timed(const sim::Engine* engine, F&& f) {
  Counters before = Counters::Read(engine);
  int64_t t0 = HostNs();
  f();
  int64_t t1 = HostNs();
  return Measure{static_cast<double>(t1 - t0), Counters::Read(engine) - before};
}

sim::Co<void> SleepZero(sim::Engine* engine) { co_await engine->Sleep(lv::Duration()); }

sim::Co<void> CpuWork(sim::CpuScheduler* cpu, bool* done) {
  co_await cpu->Run(1, lv::Duration::Micros(1));
  *done = true;
}

sim::Co<lv::Status> CreateDestroy(hv::Hypervisor* hv, sim::ExecCtx ctx) {
  lv::Result<hv::DomainId> id = co_await hv->DomainCreate(ctx);
  if (!id.ok()) {
    co_return id.error();
  }
  co_return co_await hv->DomainDestroy(ctx, *id);
}

sim::Co<void> CreateDomains(hv::Hypervisor* hv, sim::ExecCtx ctx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    (void)co_await hv->DomainCreate(ctx);
  }
}

sim::Co<lv::Status> Txn(xs::XsClient* client, sim::ExecCtx ctx, std::string base) {
  lv::Result<xs::TxnId> txn = co_await client->TxBegin(ctx);
  if (!txn.ok()) {
    co_return txn.error();
  }
  lv::Status a = co_await client->Write(ctx, base + "/txa", "1", *txn);
  lv::Status b = co_await client->Write(ctx, base + "/txb", "2", *txn);
  if (!a.ok() || !b.ok()) {
    co_return co_await client->TxAbort(ctx, *txn);
  }
  co_return co_await client->TxCommit(ctx, *txn);
}

// Populates a side store: `domains` domain directories with unique names,
// then plain keys up to `nodes`, then watches up to `watches`.
sim::Co<void> PopulateStore(xs::XsClient* client, sim::ExecCtx ctx, int64_t domains,
                            int64_t nodes, int64_t watches, xs::Daemon* daemon) {
  for (int64_t d = 1; d <= domains; ++d) {
    (void)co_await client->WriteUniqueName(ctx, static_cast<hv::DomainId>(d),
                                           lv::StrFormat("side%lld", (long long)d));
  }
  for (int64_t k = 0; daemon->store().num_nodes() < nodes; ++k) {
    (void)co_await client->Write(
        ctx,
        lv::StrFormat("/local/domain/%lld/data/k%lld", (long long)(1 + k % domains),
                      (long long)(k / domains)),
        "v");
  }
  for (int64_t w = 0; daemon->store().num_watches() < watches; ++w) {
    (void)co_await client->Watch(
        ctx,
        lv::StrFormat("/local/domain/%lld/watched%lld", (long long)(1 + w % domains),
                      (long long)(w / domains)),
        "tok");
  }
}

sim::Co<lv::Result<hv::DomainId>> AwaitJob(lightvm::NodeApi* api,
                                           toolstack::VmConfig config) {
  co_return co_await api->SubmitCreate(std::move(config), /*wait_boot=*/true).Get();
}

sim::Co<void> Populate(cluster::Cluster* cl, int n) {
  for (int i = 0; i < n; ++i) {
    toolstack::VmConfig config;
    config.name = lv::StrFormat("side%d", i);
    config.image = guests::DaytimeUnikernel();
    (void)co_await cl->Deploy(std::move(config), /*wait_boot=*/true);
  }
}

std::unique_ptr<cluster::Cluster> SideCluster(sim::Engine* engine, const LadderShape& s) {
  cluster::ClusterSpec spec;
  spec.num_nodes = s.nodes;
  spec.node = s.node;
  spec.mechanisms = s.mechanisms;
  // Admission must never turn a probe away: the probes measure work, and a
  // 4-core node's default vCPU budget is smaller than the plateau.
  spec.vcpu_overcommit = 1 << 20;
  auto cl = std::make_unique<cluster::Cluster>(engine, spec,
                                               cluster::MakePolicy("least-loaded"));
  if (s.pooled) {
    for (int n = 0; n < s.nodes; ++n) {
      cl->host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
      cl->host(n).PrefillShellPool();
    }
  }
  Must(*engine, Populate(cl.get(), s.live_vms));
  return cl;
}

}  // namespace

Ladder::Ladder(const LadderShape& shape) : shape_(shape) {
  micro_engine_ = std::make_unique<sim::Engine>(1);
  micro_cpu_ = std::make_unique<sim::CpuScheduler>(micro_engine_.get(), 4);
  // Queue depth matches the workload's: dispatch cost grows with the heap.
  lv::TimePoint far = lv::TimePoint() + lv::Duration::Seconds(1000000);
  for (int64_t i = 0; i < shape.queue_depth; ++i) {
    micro_engine_->ScheduleAt(far, [] {});
  }
  side_hv_ = std::make_unique<hv::Hypervisor>(micro_engine_.get(), shape.node.memory);
  sim::ExecCtx ctx{micro_cpu_.get(), 0};
  Must(*micro_engine_,
                       CreateDomains(side_hv_.get(), ctx,
                                     std::max<int64_t>(shape.live_vms / shape.nodes, 1)));
  {
    xs::StorePolicyScope scope(shape.mechanisms.xs_policy);
    side_store_ = std::make_unique<xs::Daemon>(micro_engine_.get());
  }
  side_store_->Start(ctx);
  side_client_ = std::make_unique<xs::XsClient>(micro_engine_.get(), side_store_.get(),
                                                hv::kDom0);
  // Without a store on the workload (noxs), mirror one domain directory
  // per VM of a node with the layout the store-backed toolstacks write.
  int64_t domains = shape.store_nodes > 0
                        ? shape.store_domains
                        : std::max<int64_t>(shape.live_vms / shape.nodes, 1);
  int64_t nodes = shape.store_nodes > 0 ? shape.store_nodes : domains * 12;
  int64_t watches = shape.store_nodes > 0 ? shape.store_watches : domains * 2;
  Must(*micro_engine_,
                       PopulateStore(side_client_.get(), sim::ExecCtx{micro_cpu_.get(), 1},
                                     std::max<int64_t>(domains, 1), nodes, watches,
                                     side_store_.get()));
  next_store_dom_ = static_cast<hv::DomainId>(std::max<int64_t>(domains, 1) + 1000);

  stack_engine_ = std::make_unique<sim::Engine>(1);
  stack_ = SideCluster(stack_engine_.get(), shape);
  heal_engine_ = std::make_unique<sim::Engine>(1);
  heal_ = SideCluster(heal_engine_.get(), shape);
  heal_->StartHealthMonitor();
  LV_CHECK_MSG(stack_->total_vms() == shape.live_vms && heal_->total_vms() == shape.live_vms,
               "side clusters did not reach the workload's live set");
}

Ladder::~Ladder() = default;

void Ladder::Run(SpanLog* spans, const SpanLog::Handle* parent) {
  ++batches_;
  MicroProbes(spans, parent);
  StoreProbes(spans, parent);
  StackProbes(spans, parent);
}

void Ladder::MicroProbes(SpanLog* spans, const SpanLog::Handle* parent) {
  sim::Engine* e = micro_engine_.get();
  SpanLog::Handle span = spans->Begin("probe.sim", 2, parent);
  constexpr int kDispatches = 4000;
  Measure m = Timed(e, [&] {
    for (int i = 0; i < kDispatches; ++i) {
      e->Schedule(lv::Duration(), [] {});
      e->Step();
    }
  });
  Sample("sim.dispatch_ns", m.ns / kDispatches);
  constexpr int kCoros = 2000;
  m = Timed(e, [&] {
    for (int i = 0; i < kCoros; ++i) {
      e->Spawn(SleepZero(e));
      e->Step();
    }
  });
  Sample("sim.coro_resume_ns", m.ns / kCoros);
  m = Timed(e, [&] {
    for (int i = 0; i < kCoros; ++i) {
      bool done = false;
      e->Spawn(CpuWork(micro_cpu_.get(), &done));
      while (!done && e->Step()) {
      }
    }
  });
  Sample("sim.cpu_run_ns", m.ns / kCoros);
  spans->End(span);

  span = spans->Begin("probe.hv", 2, parent);
  constexpr int kPairs = 100;
  sim::ExecCtx ctx{micro_cpu_.get(), 0};
  m = Timed(e, [&] {
    for (int i = 0; i < kPairs; ++i) {
      (void)Must(*e, CreateDestroy(side_hv_.get(), ctx));
    }
  });
  Sample("hv.create_destroy_us", m.ns / kPairs / 1e3);
  Sample("_hv.events", m.delta[kEvents] / kPairs);
  Sample("_hv.hypercalls", m.delta[kHypercalls] / kPairs);
  spans->End(span);

  span = spans->Begin("probe.instrumentation", 2, parent);
  constexpr int kRecords = 100000;
  metrics::Counter& counter = metrics::GetCounter("perfbench.probe.counter");
  m = Timed(e, [&] {
    for (int i = 0; i < kRecords; ++i) {
      counter.Inc();
    }
  });
  Sample("metrics.counter_inc_ns", m.ns / kRecords);
  m = Timed(e, [&] {
    for (int i = 0; i < kRecords; ++i) {
      probe_histogram_.Record(1.0 + (i & 1023));
    }
  });
  Sample("metrics.histogram_record_ns", m.ns / kRecords);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  m = Timed(e, [&] {
    for (int i = 0; i < kRecords; ++i) {
      recorder.Record(kProbeRing, obs::OpRef{}, "perfbench", "probe", true, i);
    }
  });
  Sample("obs.flight_record_ns", m.ns / kRecords);
  const char* name = span_name_.c_str();
  m = Timed(e, [&] {
    for (int i = 0; i < kRecords; ++i) {
      trace::Span off(trace::kHostTrack, name);
    }
  });
  Sample("trace.span_off_ns", m.ns / kRecords);
  spans->End(span);
}

void Ladder::StoreProbes(SpanLog* spans, const SpanLog::Handle* parent) {
  sim::Engine* e = micro_engine_.get();
  xs::XsClient* client = side_client_.get();
  sim::ExecCtx ctx{micro_cpu_.get(), 1};
  SpanLog::Handle span = spans->Begin("probe.xenstore", 2, parent);
  constexpr int kRounds = 20;
  Measure unique, write, txn, rm;
  for (int i = 0; i < kRounds; ++i) {
    hv::DomainId dom = next_store_dom_++;
    std::string base = lv::StrFormat("/local/domain/%lld", (long long)dom);
    Measure m = Timed(e, [&] {
      (void)Must(
          *e, client->WriteUniqueName(ctx, dom, lv::StrFormat("probe%lld", (long long)dom)));
    });
    unique.ns += m.ns;
    unique.delta += m.delta;
    m = Timed(e, [&] { (void)Must(*e, client->Write(ctx, base + "/data", "x")); });
    write.ns += m.ns;
    write.delta += m.delta;
    m = Timed(e, [&] { (void)Must(*e, Txn(client, ctx, base)); });
    txn.ns += m.ns;
    txn.delta += m.delta;
    m = Timed(e, [&] { (void)Must(*e, client->Rm(ctx, base)); });
    rm.ns += m.ns;
    rm.delta += m.delta;
  }
  Sample("xenstore.unique_name_us", unique.ns / kRounds / 1e3);
  Sample("xenstore.write_us", write.ns / kRounds / 1e3);
  Sample("xenstore.txn_us", txn.ns / kRounds / 1e3);
  Sample("xenstore.rm_us", rm.ns / kRounds / 1e3);
  Measure all = unique;
  for (const Measure* m : {&write, &txn, &rm}) {
    all.ns += m->ns;
    all.delta += m->delta;
  }
  Sample("_xs.ns_per_op", all.ns / std::max(1.0, all.delta[kXsOps]));
  Sample("_xs.events_per_op", all.delta[kEvents] / std::max(1.0, all.delta[kXsOps]));
  spans->End(span);
}

void Ladder::StackProbes(SpanLog* spans, const SpanLog::Handle* parent) {
  sim::Engine* e = stack_engine_.get();
  lightvm::Host& host = stack_->host(0);
  auto config = [&] {
    toolstack::VmConfig c;
    c.name = lv::StrFormat("probe%lld", (long long)next_name_++);
    c.image = guests::DaytimeUnikernel();
    return c;
  };
  // Untimed settling before every create and teardown lets pooled shells
  // refill, so each probe sees the pool the workload sees and no teardown
  // overlaps a refill (see the XenStore-mode destroy defect, README.md).
  auto settle = [&] { e->RunFor(lv::Duration::Millis(5)); };

  // Each rung runs kRounds times per batch and is averaged; a single shot
  // would mostly measure cold caches.
  constexpr int kRounds = 4;
  SpanLog::Handle span = spans->Begin("probe.toolstack", 2, parent);
  Measure create, destroy;
  for (int i = 0; i < kRounds; ++i) {
    settle();
    lv::Result<hv::DomainId> id = lv::Err(lv::ErrorCode::kInternal, "unset");
    Measure c = Timed(e, [&] { id = Must(*e, host.CreateVm(config())); });
    create.ns += c.ns;
    create.delta += c.delta;
    if (id.ok()) {
      Must(*e, host.WaitBooted(*id));
      settle();
      Measure d = Timed(e, [&] { (void)Must(*e, host.DestroyVm(*id)); });
      destroy.ns += d.ns;
      destroy.delta += d.delta;
    }
  }
  Sample("toolstack.create_us", create.ns / kRounds / 1e3);
  Sample("toolstack.destroy_us", destroy.ns / kRounds / 1e3);
  Sample("_create.events", create.delta[kEvents] / kRounds);
  Sample("_create.hypercalls", create.delta[kHypercalls] / kRounds);
  Sample("_create.xs_ops", create.delta[kXsOps] / kRounds);
  Sample("_destroy.events", destroy.delta[kEvents] / kRounds);
  Sample("_destroy.hypercalls", destroy.delta[kHypercalls] / kRounds);
  Sample("_destroy.xs_ops", destroy.delta[kXsOps] / kRounds);
  spans->End(span);

  // Creates a VM through `create`, timed, then destroys it untimed; returns
  // the mean host us per create over kRounds.
  auto rung = [&](auto create_vm) {
    double ns = 0;
    for (int i = 0; i < kRounds; ++i) {
      settle();
      lv::Result<hv::DomainId> id = lv::Err(lv::ErrorCode::kInternal, "unset");
      ns += Timed(e, [&] { id = create_vm(); }).ns;
      if (id.ok()) {
        settle();
        (void)Must(*e, host.DestroyVm(*id));
      }
    }
    return ns / kRounds / 1e3;
  };
  span = spans->Begin("probe.guests", 2, parent);
  Sample("_create_and_boot_us",
         rung([&] { return Must(*e, host.CreateAndBoot(config())); }));
  spans->End(span);
  span = spans->Begin("probe.core", 2, parent);
  Sample("_job_us",
         rung([&] { return Must(*e, AwaitJob(&host.node(), config())); }));
  spans->End(span);

  span = spans->Begin("probe.cluster", 2, parent);
  double deploy_ns = 0;
  for (int i = 0; i < kRounds; ++i) {
    settle();
    lv::Result<cluster::VmHandle> handle = lv::Err(lv::ErrorCode::kInternal, "unset");
    deploy_ns +=
        Timed(e, [&] { handle = Must(*e, stack_->Deploy(config(), true)); }).ns;
    if (handle.ok()) {
      settle();
      (void)Must(*e, stack_->Retire(*handle));
    }
  }
  Sample("_deploy_us", deploy_ns / kRounds / 1e3);
  spans->End(span);

  // Health monitoring: the same stretch of simulated time on the monitored
  // twin and on the unmonitored probe cluster.
  span = spans->Begin("probe.heal", 2, parent);
  const lv::Duration window = lv::Duration::Millis(40);
  Measure quiet = Timed(e, [&] { e->RunFor(window); });
  Measure healed = Timed(heal_engine_.get(), [&] { heal_engine_->RunFor(window); });
  Sample("cluster.heal_us_per_sim_s", (healed.ns - quiet.ns) / 1e3 / window.secs());
  spans->End(span);
}

std::map<std::string, double> Ladder::Medians() const {
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples_) {
    out[name] = Median(values);
  }
  // Rung differences: each rung minus the rung it is built on.
  out["guests.boot_us"] = out["_create_and_boot_us"] - out["toolstack.create_us"];
  out["core.job_us"] = out["_job_us"] - out["_create_and_boot_us"];
  out["cluster.deploy_us"] = out["_deploy_us"] - out["_job_us"];
  return out;
}

Ladder::OwnPrices Ladder::Prices() const {
  std::map<std::string, double> m = Medians();
  OwnPrices p;
  p.event_ns = m["sim.dispatch_ns"];
  // A probe's own price is what is left after the rungs below it are
  // charged for the work it caused (events, hypercalls, store ops).
  p.hypercall_ns = std::max(
      0.0, (m["hv.create_destroy_us"] * 1e3 - m["_hv.events"] * p.event_ns) /
               std::max(1.0, m["_hv.hypercalls"]));
  p.store_op_ns = std::max(0.0, m["_xs.ns_per_op"] - m["_xs.events_per_op"] * p.event_ns);
  auto own = [&](const char* us, const char* prefix) {
    std::string pre = prefix;
    return std::max(0.0, m[us] * 1e3 - m[pre + ".events"] * p.event_ns -
                             m[pre + ".hypercalls"] * p.hypercall_ns -
                             m[pre + ".xs_ops"] * p.store_op_ns);
  };
  p.create_ns = own("toolstack.create_us", "_create");
  p.destroy_ns = own("toolstack.destroy_us", "_destroy");
  p.job_ns = std::max(0.0, m["core.job_us"] * 1e3);
  p.cluster_op_ns = std::max(0.0, m["cluster.deploy_us"] * 1e3);
  return p;
}

}  // namespace perfbench
