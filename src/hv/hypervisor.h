// The simulated type-1 hypervisor: domain table, memory pool, event
// channels, grant tables, and the hypercall interface used by the toolstack
// (as libxc would) and by guests.
//
// All hypercalls are coroutines that charge their cost to the caller's
// ExecCtx, so hypervisor work shows up on the right core with the right
// owner in the CPU accounting (Figures 5 and 15).
#pragma once

#include <array>
#include <string>
#include <unordered_map>

#include "src/base/id_table.h"
#include "src/base/result.h"
#include "src/hv/costs.h"
#include "src/hv/domain.h"
#include "src/hv/event_channel.h"
#include "src/hv/grant_table.h"
#include "src/hv/memory.h"
#include "src/hv/types.h"
#include "src/metrics/metrics.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"

namespace hv {

struct DomainInfo {
  DomainId id = kInvalidDomain;
  DomainState state = DomainState::kBuilding;
  lv::Bytes max_mem;
  int64_t reserved_pages = 0;
  int vcpus = 0;
};

class Hypervisor {
 public:
  struct Stats {
    int64_t hypercalls = 0;
    int64_t domains_created = 0;
    int64_t domains_destroyed = 0;
    int64_t device_page_writes = 0;
    int64_t device_page_reads = 0;
  };

  Hypervisor(sim::Engine* engine, lv::Bytes total_memory, Costs costs = Costs());

  sim::Engine* engine() { return engine_; }
  const Costs& costs() const { return costs_; }
  MemoryPool& memory() { return memory_; }
  EventChannelTable& event_channels() { return event_channels_; }
  GrantTable& grant_table() { return grant_table_; }
  Stats stats() const {
    return {.hypercalls = hypercalls_.value(),
            .domains_created = domains_created_.value(),
            .domains_destroyed = domains_destroyed_.value(),
            .device_page_writes = device_page_writes_,
            .device_page_reads = device_page_reads_};
  }

  // Non-hypercall accessors (used by infrastructure/tests, free of cost).
  Domain* FindDomain(DomainId id);
  int64_t NumDomains() const { return static_cast<int64_t>(domains_.size()); }
  int64_t NumDomainsInState(DomainState state) const {
    return state_counts_[static_cast<size_t>(state)];
  }

  // --- Hypercalls -----------------------------------------------------------

  // XEN_DOMCTL_createdomain: allocates an id; the domain starts kBuilding.
  sim::Co<lv::Result<DomainId>> DomainCreate(sim::ExecCtx ctx);

  // XEN_DOMCTL_max_mem.
  sim::Co<lv::Status> DomainSetMaxMem(sim::ExecCtx ctx, DomainId id, lv::Bytes max);

  // XENMEM_populate_physmap: reserve + map `bytes` of RAM for the domain.
  sim::Co<lv::Status> PopulatePhysmap(sim::ExecCtx ctx, DomainId id, lv::Bytes bytes);

  // §9 extension ("Memory sharing", SnowFlock-style de-duplication): domains
  // instantiated from the same template share its read-only pages;
  // `shared_fraction` of the reservation is copy-on-write against the
  // template, the rest is private. The first domain with a given key pays
  // for the template; the last one to be destroyed frees it.
  sim::Co<lv::Status> PopulatePhysmapShared(sim::ExecCtx ctx, DomainId id, lv::Bytes bytes,
                                            const std::string& template_key,
                                            double shared_fraction);
  // Pages currently held by shared templates.
  int64_t shared_template_pages() const;
  int64_t num_shared_templates() const { return static_cast<int64_t>(templates_.size()); }

  // XEN_DOMCTL_max_vcpus + per-vCPU init, pinned to `cores`.
  sim::Co<lv::Status> VcpuInit(sim::ExecCtx ctx, DomainId id, std::vector<int> cores);

  // Copies `bytes` into the domain (kernel image load / restore stream).
  sim::Co<lv::Status> CopyToDomain(sim::ExecCtx ctx, DomainId id, lv::Bytes bytes);
  // Copies `bytes` out of the domain (save/migrate stream).
  sim::Co<lv::Status> CopyFromDomain(sim::ExecCtx ctx, DomainId id, lv::Bytes bytes);

  // Marks building complete; the domain becomes kPaused.
  sim::Co<lv::Status> DomainFinishBuild(sim::ExecCtx ctx, DomainId id);

  sim::Co<lv::Status> DomainPause(sim::ExecCtx ctx, DomainId id);
  // Unpausing a never-started domain spawns its start function (guest boot).
  sim::Co<lv::Status> DomainUnpause(sim::ExecCtx ctx, DomainId id);

  // Guest-initiated shutdown (SCHEDOP_shutdown). kSuspend leaves memory
  // resident and the domain restorable; other reasons mark it kShutdown.
  sim::Co<lv::Status> DomainShutdown(sim::ExecCtx ctx, DomainId id, ShutdownReason reason);

  // Releases memory and removes the domain.
  sim::Co<lv::Status> DomainDestroy(sim::ExecCtx ctx, DomainId id);

  sim::Co<lv::Result<DomainInfo>> DomainGetInfo(sim::ExecCtx ctx, DomainId id);
  // XEN_SYSCTL_getdomaininfolist: charged O(#domains), as in Xen. Its one
  // caller (xl) reads only how many domains exist, so the list is not built.
  sim::Co<int64_t> CountDomains(sim::ExecCtx ctx);

  // --- noxs hypercalls (our Xen modification, paper §5.1) -------------------

  // Appends a device entry to the domain's read-only device page. Only Dom0
  // may write (the page is shared read-only with the guest).
  sim::Co<lv::Result<int>> DevicePageWrite(sim::ExecCtx ctx, DomainId caller, DomainId id,
                                           const DeviceInfo& info);
  // Guest-side: map + read own device page.
  sim::Co<lv::Result<std::vector<DeviceInfo>>> DevicePageRead(sim::ExecCtx ctx, DomainId id);

 private:
  // Every hypercall pays the base trap cost and bumps the counter.
  sim::Co<void> HypercallEntry(sim::ExecCtx ctx);
  lv::Result<Domain*> Lookup(DomainId id);
  // Moves `dom` to `state`, keeping the per-state counts.
  void SetState(Domain& dom, DomainState state);

  sim::Engine* engine_;
  Costs costs_;
  MemoryPool memory_;
  EventChannelTable event_channels_;
  GrantTable grant_table_;
  metrics::Tally hypercalls_{"hv.hypervisor.hypercalls"};
  metrics::Tally domains_created_{"hv.hypervisor.domains_created"};
  metrics::Tally domains_destroyed_{"hv.hypervisor.domains_destroyed"};
  int64_t device_page_writes_ = 0;
  int64_t device_page_reads_ = 0;
  DomainId next_id_ = 1;
  lv::IdTable<Domain> domains_;
  // Live domains per DomainState (kDead is the last state).
  std::array<int64_t, static_cast<size_t>(DomainState::kDead) + 1> state_counts_{};
  // §9 extension: shared page templates (key -> pages + refcount).
  struct SharedTemplate {
    int64_t pages = 0;
    int64_t refs = 0;
  };
  std::unordered_map<std::string, SharedTemplate> templates_;
};

}  // namespace hv
