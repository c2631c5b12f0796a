// XlToolstack: models xl + libxl + libxc on stock Xen — the baseline whose
// scaling problems §4.2 dissects. Heavy config parsing, O(#domains)
// bookkeeping, tens of XenStore records per VM, synchronous bash hotplug
// scripts, and save/restore through the store.
#pragma once

#include <memory>

#include "src/toolstack/costs.h"
#include "src/toolstack/toolstack.h"

namespace toolstack {

class XlToolstack : public Toolstack {
 public:
  XlToolstack(HostEnv env, Costs costs);
  ~XlToolstack() override;

  const char* name() const override { return "xl"; }

  sim::Co<lv::Result<hv::DomainId>> PrepareIncoming(sim::ExecCtx ctx,
                                                    VmConfig config) override;
  sim::Co<lv::Status> FinishIncoming(sim::ExecCtx ctx, hv::DomainId domid,
                                     const Snapshot& snap) override;
  sim::Co<lv::Status> SuspendForMigration(sim::ExecCtx ctx, hv::DomainId domid) override;
  sim::Co<lv::Status> TeardownAfterMigration(sim::ExecCtx ctx,
                                             hv::DomainId domid) override;

 private:
  struct PendingIncoming {
    VmConfig config;
    int core = 0;
  };
  sim::Co<lv::Result<hv::DomainId>> BuildDomain(sim::ExecCtx ctx, const VmConfig& config,
                                                CreateBreakdown& bd) override;
  // Writes the ~20 non-device store records for a new guest.
  sim::Co<lv::Status> WriteGuestRecords(sim::ExecCtx ctx, hv::DomainId domid,
                                        const VmConfig& config);
  sim::Co<lv::Status> RemoveGuestRecords(sim::ExecCtx ctx, hv::DomainId domid);

  std::unique_ptr<xs::XsClient> client_;
  lv::IdTable<PendingIncoming> pending_incoming_;
};

}  // namespace toolstack
