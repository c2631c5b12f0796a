// Shared identifier and device types for the simulated Xen-like hypervisor.
#pragma once

#include <cstdint>
#include <string>

namespace hv {

// Domain identifier. Dom0 (the driver/control domain) is always id 0.
using DomainId = int64_t;
inline constexpr DomainId kDom0 = 0;
inline constexpr DomainId kInvalidDomain = -1;

// Event-channel port (global numbering for simplicity; real Xen numbers
// ports per-domain, which only changes bookkeeping).
using Port = int64_t;
inline constexpr Port kInvalidPort = -1;

// Grant table reference.
using GrantRef = int64_t;
inline constexpr GrantRef kInvalidGrant = -1;

enum class DomainState {
  kBuilding,   // created, memory/vcpus being prepared
  kPaused,     // fully built but not yet scheduled
  kRunning,
  kSuspended,  // checkpointed/migrating; memory still or no longer resident
  kShutdown,   // guest-initiated shutdown completed
  kDead,       // being destroyed
};

const char* DomainStateName(DomainState state);

enum class DeviceType {
  kConsole,
  kNet,
  kBlock,
  kSysctl,  // noxs power-control pseudo-device (suspend/resume/migrate)
};

enum class ShutdownReason {
  kNone,
  kPoweroff,
  kReboot,
  kSuspend,
  kCrash,
};

// One entry of a domain's noxs device page (paper Figure 7b): everything a
// front-end needs to reach its back-end without the XenStore.
struct DeviceInfo {
  DeviceType type = DeviceType::kConsole;
  DomainId backend_domid = kDom0;
  Port event_channel = kInvalidPort;
  GrantRef grant_ref = kInvalidGrant;  // grant of the device control page
  int backend_handle = -1;             // back-end's identifier for this device
};

}  // namespace hv
