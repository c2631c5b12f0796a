// Toolstack interface: the Dom0 control-plane software that creates, saves,
// restores, migrates and destroys VMs. Two implementations:
//
//  * XlToolstack — models xl/libxl/libxc on stock Xen: JSON config parsing,
//    O(#domains) bookkeeping, ~tens of XenStore records per VM, synchronous
//    bash hotplug scripts.
//  * ChaosToolstack — the paper's replacement (§5): lean parsing, minimal
//    state, optional noxs (no XenStore) and optional split toolstack
//    (pre-created domain shells from the chaos daemon).
//
// The two differ in how they build a domain, not in how the lifecycle verbs
// are assembled. A toolstack supplies a domain build and the four migration
// steps; Create, Destroy, Save and Restore are written once, here, over
// them — as libxl's `xl save` and `xl migrate` share one suspend path and
// `xl restore` shares the migration receiver.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/id_table.h"
#include "src/base/result.h"
#include "src/guests/guest.h"
#include "src/metrics/metrics.h"
#include "src/toolstack/costs.h"
#include "src/toolstack/env.h"

namespace toolstack {

struct VmConfig {
  std::string name;
  guests::GuestImage image;
  int vcpus = 1;
};

// Phase breakdown of one VM creation, the Figure 5 categories.
struct CreateBreakdown {
  lv::Duration config;      // parsing the configuration file
  lv::Duration toolstack;   // internal information and state keeping
  lv::Duration hypervisor;  // reserving/preparing memory, vCPUs, ...
  lv::Duration xenstore;    // writing guest information to the store
  lv::Duration devices;     // creating and configuring virtual devices
  lv::Duration load;        // parsing the kernel image, loading it into memory

  lv::Duration total() const {
    return config + toolstack + hypervisor + xenstore + devices + load;
  }
};

// A saved VM checkpoint (the content of the save file on the ramdisk).
struct Snapshot {
  VmConfig config;
  lv::Bytes memory;  // guest memory stream size
};

// A reserved domain: Figure 8's prepare steps 1-4.
struct Reservation {
  hv::DomainId domid = hv::kInvalidDomain;
  int core = 0;
};

// Creates a domain, places its vCPUs on the next guest core, then sets and
// populates its memory (sharing read-only pages with domains of the same
// size when `share_pages`). A domain whose memory cannot be populated is
// destroyed before the error returns.
sim::Co<lv::Result<Reservation>> ReserveDomain(HostEnv& env, sim::ExecCtx ctx,
                                               lv::Bytes memory, int vcpus,
                                               bool share_pages);

class Toolstack {
 public:
  // `family` names the latency histograms (`toolstack.<family>.create_ms`,
  // `save_ms`, `restore_ms`); `state_keeping` is the per-command bookkeeping
  // that Destroy and Save charge before they act.
  Toolstack(HostEnv env, Costs costs, const char* family, lv::Duration state_keeping)
      : env_(std::move(env)), costs_(costs), family_(family), state_keeping_(state_keeping) {}
  virtual ~Toolstack() = default;
  Toolstack(const Toolstack&) = delete;
  Toolstack& operator=(const Toolstack&) = delete;

  virtual const char* name() const = 0;

  // Creates and boots a VM. Returns once the domain is unpaused (the guest
  // boots asynchronously; use guest()->WaitBooted()).
  sim::Co<lv::Result<hv::DomainId>> Create(sim::ExecCtx ctx, VmConfig config);
  // Stops the guest, then tears it down as a migration source does.
  sim::Co<lv::Status> Destroy(sim::ExecCtx ctx, hv::DomainId domid);
  // Checkpoint to the (ram)disk: suspend, stream the memory to the save file,
  // then tear the domain down, like `xl save` / `chaos save`.
  sim::Co<lv::Result<Snapshot>> Save(sim::ExecCtx ctx, hv::DomainId domid);
  // The migration receiver fed from a save file.
  sim::Co<lv::Result<hv::DomainId>> Restore(sim::ExecCtx ctx, Snapshot snap);

  // Migration protocol pieces (paper §5.1): the remote migration daemon
  // pre-creates the domain and devices from the streamed configuration, the
  // source suspends the guest and streams its memory, the remote completes
  // the restore and the source tears its copy down.
  virtual sim::Co<lv::Result<hv::DomainId>> PrepareIncoming(sim::ExecCtx ctx,
                                                            VmConfig config) = 0;
  virtual sim::Co<lv::Status> FinishIncoming(sim::ExecCtx ctx, hv::DomainId domid,
                                             const Snapshot& snap) = 0;
  virtual sim::Co<lv::Status> SuspendForMigration(sim::ExecCtx ctx, hv::DomainId domid) = 0;
  virtual sim::Co<lv::Status> TeardownAfterMigration(sim::ExecCtx ctx,
                                                     hv::DomainId domid) = 0;

  // Breakdown of the most recent Create (Figure 5).
  const CreateBreakdown& last_breakdown() const { return breakdown_; }

  guests::Guest* guest(hv::DomainId domid) {
    VmRecord* vm = vms_.Find(domid);
    return vm == nullptr ? nullptr : vm->guest.get();
  }
  const VmConfig* config_of(hv::DomainId domid) const {
    const VmRecord* vm = vms_.Find(domid);
    return vm == nullptr ? nullptr : &vm->config;
  }
  int64_t num_vms() const { return static_cast<int64_t>(vms_.size()); }
  // All tracked domains, sorted (deterministic teardown/evacuation order).
  std::vector<hv::DomainId> TrackedDomains() const {
    std::vector<hv::DomainId> ids;
    ids.reserve(vms_.size());
    vms_.ForEach([&](hv::DomainId domid, const VmRecord&) { ids.push_back(domid); });
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  HostEnv& env() { return env_; }

 protected:
  struct VmRecord {
    VmConfig config;
    std::unique_ptr<guests::Guest> guest;
    int core = 0;
    lv::TimePoint created_at;
  };

  // Create's toolstack-specific part, after the entry fault checkpoint:
  // every phase from config parsing to unpause. Phase times accumulate into
  // `bd`, which Create commits to last_breakdown() at every exit.
  virtual sim::Co<lv::Result<hv::DomainId>> BuildDomain(sim::ExecCtx ctx,
                                                        const VmConfig& config,
                                                        CreateBreakdown& bd) = 0;

  // The XenStore suspend: writes "suspend" to the guest's control/shutdown
  // node, then polls the hypervisor every 500 µs until the domain reports
  // suspended (xl-style wait).
  sim::Co<lv::Status> XsSuspend(sim::ExecCtx ctx, xs::XsClient* client, hv::DomainId domid);
  // Installs the guest on a built domain, tracks it, then finishes the build
  // and unpauses the domain. `resume` boots a restored image.
  sim::Co<void> InstallGuest(sim::ExecCtx ctx, hv::DomainId domid, const VmConfig& config,
                             int core, bool use_store, bool resume);
  void UntrackVm(hv::DomainId domid);

  HostEnv env_;
  Costs costs_;
  CreateBreakdown breakdown_;
  lv::IdTable<VmRecord> vms_;

 private:
  // Builds the guest's boot environment for a given core.
  guests::BootEnv MakeBootEnv(int core, bool use_store);
  // Guests co-located on `core` (drives boot-time contention, Fig. 11).
  int64_t PeersOnCore(int core) const;
  void TrackVm(hv::DomainId domid, VmRecord record);
  // Records one Create, Save or Restore latency into `toolstack.<family>.
  // <verb>_ms`. The histogram registers on first use, as a function-local
  // static at the call site would, but per family: xl and chaos instances
  // in one process keep separate histograms.
  void RecordLatency(metrics::Histogram*& histogram, const char* verb, lv::TimePoint start);

  std::unordered_map<int, int64_t> core_population_;
  const char* family_;
  lv::Duration state_keeping_;
  metrics::Histogram* create_ms_ = nullptr;
  metrics::Histogram* save_ms_ = nullptr;
  metrics::Histogram* restore_ms_ = nullptr;
};

}  // namespace toolstack
