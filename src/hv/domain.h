// Domain: the hypervisor's view of one virtual machine.
//
// Note what is deliberately absent: the VM's *name*. As the paper observes
// (§5.1), the hypervisor already holds everything needed to boot a VM; the
// name lives only in the XenStore and is not needed during boot — a key
// insight behind noxs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/base/units.h"
#include "src/hv/types.h"
#include "src/sim/task.h"

namespace hv {

// Capacity of the single 4 KiB noxs device page (paper §5.1); each entry is
// a small fixed-size record.
inline constexpr int kDevicePageCapacity = 32;

class Domain {
 public:
  Domain(DomainId id, lv::TimePoint created_at) : id_(id), created_at_(created_at) {}
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  DomainId id() const { return id_; }
  DomainState state() const { return state_; }
  lv::TimePoint created_at() const { return created_at_; }

  // --- Memory -------------------------------------------------------------
  lv::Bytes max_mem() const { return max_mem_; }
  void set_max_mem(lv::Bytes b) { max_mem_ = b; }
  int64_t reserved_pages() const { return reserved_pages_; }
  void add_reserved_pages(int64_t pages) { reserved_pages_ += pages; }
  void clear_reserved_pages() { reserved_pages_ = 0; }
  // §9 extension (memory de-duplication): key of the read-only page template
  // this domain shares, empty if none.
  const std::string& shared_template() const { return shared_template_; }
  void set_shared_template(std::string key) { shared_template_ = std::move(key); }

  // --- vCPUs ---------------------------------------------------------------
  const std::vector<int>& vcpu_cores() const { return vcpu_cores_; }
  void set_vcpu_cores(std::vector<int> cores) { vcpu_cores_ = std::move(cores); }
  // Core the guest's (single) boot vCPU runs on.
  int boot_core() const { return vcpu_cores_.empty() ? 0 : vcpu_cores_[0]; }

  // --- noxs device page ----------------------------------------------------
  const std::vector<DeviceInfo>& device_page() const { return device_page_; }
  bool device_page_full() const {
    return static_cast<int>(device_page_.size()) >= kDevicePageCapacity;
  }
  void AppendDevice(const DeviceInfo& info) { device_page_.push_back(info); }

  // --- Lifecycle hooks ------------------------------------------------------
  // The guest image installs its entry point; the hypervisor spawns it when
  // the domain is first unpaused.
  using StartFn = std::function<sim::Co<void>(Domain&)>;
  void set_start_fn(StartFn fn) { start_fn_ = std::move(fn); }
  const StartFn& start_fn() const { return start_fn_; }
  bool started() const { return started_; }
  void mark_started() { started_ = true; }

 private:
  // Only the hypervisor moves a domain between states, so that its
  // per-state counts stay exact.
  friend class Hypervisor;
  void set_state(DomainState s) { state_ = s; }

  DomainId id_;
  lv::TimePoint created_at_;
  DomainState state_ = DomainState::kBuilding;
  lv::Bytes max_mem_;
  int64_t reserved_pages_ = 0;
  std::vector<int> vcpu_cores_;
  std::vector<DeviceInfo> device_page_;
  StartFn start_fn_;
  std::string shared_template_;
  bool started_ = false;
  // A destroy is scrubbing the domain and will remove it.
  bool dying_ = false;
};

}  // namespace hv
