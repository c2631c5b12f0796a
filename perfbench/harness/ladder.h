// The layer ladder: probes of each layer's unit host cost, run every K
// operations of a traced repetition against *side* instances sized to the
// workload's plateau. Side instances have their own engines, so the
// workload's simulated outcome is untouched (the traced digest must equal
// the untraced one). Each rung's cost minus what the rung below it
// explains is that layer's own price.
//
//   rung                       probe
//   sim.dispatch_ns            Engine::Schedule + Step (queue pre-filled)
//   sim.coro_resume_ns         Spawn + co_await Sleep(0)
//   sim.cpu_run_ns             co_await CpuScheduler::Run
//   hv.create_destroy_us       DomainCreate + DomainDestroy
//   xenstore.*_us              XsClient ops on a side daemon (same policy)
//   toolstack.create/destroy   Host::CreateVm, Host::DestroyVm
//   guests.boot_us             CreateAndBoot - CreateVm
//   core.job_us                SubmitCreate(...).Get() - CreateAndBoot
//   cluster.deploy_us          Cluster::Deploy - SubmitCreate(...).Get()
//   cluster.heal_us_per_sim_s  RunFor on a monitored vs an unmonitored twin
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench.h"
#include "src/cluster/cluster.h"
#include "src/metrics/metrics.h"

namespace perfbench {

// What the side instances mirror, read off the workload at its plateau.
struct LadderShape {
  int nodes = 1;
  lightvm::HostSpec node;
  lightvm::Mechanisms mechanisms;
  bool pooled = false;          // stock daytime shell pools (split toolstack)
  int live_vms = 0;             // VMs held by the side clusters
  int64_t queue_depth = 0;      // main engine's pending events
  int64_t store_domains = 0;    // domains on the busiest main store
  int64_t store_nodes = 0;      // its node count (0 when the host has no store)
  int64_t store_watches = 0;    // its watch count
};

class Ladder {
 public:
  explicit Ladder(const LadderShape& shape);
  ~Ladder();
  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  // One batch of every probe; each appends one sample per probe name.
  void Run(SpanLog* spans, const SpanLog::Handle* parent);

  // Median of each probe's samples, by metric name.
  std::map<std::string, double> Medians() const;
  // Own price of one unit of each layer's work, derived from the medians
  // (ns): per event, per hypercall, per store op, per toolstack create /
  // destroy, per job, per cluster operation.
  struct OwnPrices {
    double event_ns = 0;
    double hypercall_ns = 0;
    double store_op_ns = 0;
    double create_ns = 0;
    double destroy_ns = 0;
    double job_ns = 0;
    double cluster_op_ns = 0;
  };
  OwnPrices Prices() const;
  int batches() const { return batches_; }

 private:
  void Sample(const std::string& name, double value) { samples_[name].push_back(value); }
  void MicroProbes(SpanLog* spans, const SpanLog::Handle* parent);
  void StoreProbes(SpanLog* spans, const SpanLog::Handle* parent);
  void StackProbes(SpanLog* spans, const SpanLog::Handle* parent);

  LadderShape shape_;
  int batches_ = 0;
  int64_t next_name_ = 0;
  std::map<std::string, std::vector<double>> samples_;

  // Engine-level rungs and the hypervisor / store rungs share one engine
  // whose queue is pre-filled to the workload's depth.
  std::unique_ptr<sim::Engine> micro_engine_;
  std::unique_ptr<sim::CpuScheduler> micro_cpu_;
  std::unique_ptr<hv::Hypervisor> side_hv_;
  std::unique_ptr<xs::Daemon> side_store_;
  std::unique_ptr<xs::XsClient> side_client_;
  hv::DomainId next_store_dom_ = 1;
  // Toolstack / job / cluster rungs, and the health-monitored twin.
  std::unique_ptr<sim::Engine> stack_engine_;
  std::unique_ptr<cluster::Cluster> stack_;
  std::unique_ptr<sim::Engine> heal_engine_;
  std::unique_ptr<cluster::Cluster> heal_;
  metrics::Histogram probe_histogram_{"us"};
  std::string span_name_ = "hv.domain_create";  // 16 chars: past SSO
};

}  // namespace perfbench
