// ChaosToolstack: the paper's lean replacement for xl/libxl (§5.1-§5.2),
// configurable along the two axes of Figure 9:
//
//   * store:  XenStore ("chaos [XS]")  vs  noxs ("chaos [NoXS]")
//   * split:  direct creation          vs  shell pool via the chaos daemon
//
// chaos + noxs + split toolstack = LightVM.
#pragma once

#include <memory>

#include "src/toolstack/chaos_daemon.h"
#include "src/toolstack/costs.h"
#include "src/toolstack/toolstack.h"

namespace toolstack {

class ChaosToolstack : public Toolstack {
 public:
  // `daemon` enables the split toolstack (may be null). In noxs mode the
  // HostEnv's store may be null; in XS mode it must be present.
  ChaosToolstack(HostEnv env, Costs costs, bool use_noxs, ChaosDaemon* daemon);
  ~ChaosToolstack() override;

  const char* name() const override;

  sim::Co<lv::Result<hv::DomainId>> PrepareIncoming(sim::ExecCtx ctx,
                                                    VmConfig config) override;
  sim::Co<lv::Status> FinishIncoming(sim::ExecCtx ctx, hv::DomainId domid,
                                     const Snapshot& snap) override;
  sim::Co<lv::Status> SuspendForMigration(sim::ExecCtx ctx, hv::DomainId domid) override;
  sim::Co<lv::Status> TeardownAfterMigration(sim::ExecCtx ctx,
                                             hv::DomainId domid) override;

  bool use_noxs() const { return use_noxs_; }
  bool split() const { return daemon_ != nullptr; }

 private:
  sim::Co<lv::Result<hv::DomainId>> BuildDomain(sim::ExecCtx ctx, const VmConfig& config,
                                                CreateBreakdown& bd) override;
  // Obtains a shell: from the pool when split, built inline otherwise.
  sim::Co<lv::Result<Shell>> ObtainShell(sim::ExecCtx ctx, const VmConfig& config);
  // Executes the per-VM phase on a shell: records/device pages, image load.
  // Accumulates phase timings into `bd` (frame-local in the caller, so
  // concurrent creations do not clobber each other's breakdown).
  sim::Co<lv::Status> ExecutePhase(sim::ExecCtx ctx, Shell& shell, const VmConfig& config,
                                   lv::Bytes payload, bool is_restore,
                                   CreateBreakdown& bd);
  sim::Co<lv::Status> DestroyDevices(sim::ExecCtx ctx, hv::DomainId domid,
                                     const VmConfig& config);

  bool use_noxs_;
  ChaosDaemon* daemon_;
  std::unique_ptr<xs::XsClient> client_;  // XS mode only
  lv::IdTable<Shell> pending_incoming_;
};

}  // namespace toolstack
