// Shared device-layer types: Xenbus handshake states and control pages.
//
// Control pages are the noxs replacement for XenStore state entries: a page
// of memory shared (via grant) between a back-end and a front-end, through
// which the two exchange state, MAC address, etc. (paper §5.1: "this
// information was previously kept in the XenStore and is now stored in a
// device control page pointed to by the grant reference").
#pragma once

#include <memory>
#include <string>

#include "src/base/id_table.h"
#include "src/base/units.h"
#include "src/hv/types.h"

namespace xdev {

// Xenbus connection states (xen/include/public/io/xenbus.h).
enum class XenbusState {
  kUnknown = 0,
  kInitialising = 1,
  kInitWait = 2,
  kInitialised = 3,
  kConnected = 4,
  kClosing = 5,
  kClosed = 6,
};

// XenStore state entries carry the numeric value as a string.
std::string XenbusStateValue(XenbusState s);

// Control page for net/block devices.
struct DeviceControlPage {
  hv::DeviceType type = hv::DeviceType::kNet;
  XenbusState backend_state = XenbusState::kInitialising;
  XenbusState frontend_state = XenbusState::kInitialising;
  std::string mac;          // net only
  lv::Bytes disk_size;      // block only
  hv::Port event_channel = hv::kInvalidPort;
};

// Control page for the sysctl power pseudo-device (suspend/resume/migrate).
struct SysctlControlPage {
  hv::ShutdownReason request = hv::ShutdownReason::kNone;
  bool acked = false;
};

// Registry mapping grant references to in-simulation control pages. Mapping
// a grant through the hypervisor yields access to the page content here.
class ControlPages {
 public:
  void RegisterDevice(hv::GrantRef ref, std::shared_ptr<DeviceControlPage> page) {
    device_pages_[ref] = std::move(page);
  }
  void RegisterSysctl(hv::GrantRef ref, std::shared_ptr<SysctlControlPage> page) {
    sysctl_pages_[ref] = std::move(page);
  }
  std::shared_ptr<DeviceControlPage> FindDevice(hv::GrantRef ref) const {
    const std::shared_ptr<DeviceControlPage>* page = device_pages_.Find(ref);
    return page == nullptr ? nullptr : *page;
  }
  void Remove(hv::GrantRef ref) {
    device_pages_.Erase(ref);
    sysctl_pages_.Erase(ref);
  }

  // Registered pages of either kind (leak invariant: returns to baseline
  // once every VM is gone).
  int64_t num_pages() const {
    return static_cast<int64_t>(device_pages_.size() + sysctl_pages_.size());
  }

 private:
  lv::IdTable<std::shared_ptr<DeviceControlPage>> device_pages_;
  lv::IdTable<std::shared_ptr<SysctlControlPage>> sysctl_pages_;
};

// Canonical interface name for a guest's virtual NIC ("vif<domid>.<devid>").
std::string VifName(hv::DomainId domid, int devid);

}  // namespace xdev
