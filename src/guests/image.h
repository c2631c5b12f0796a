// Guest image profiles: the VM types the paper evaluates (§3, §6).
//
// Sizes, memory footprints and boot-work figures are the paper's own
// anchors: the daytime unikernel is 480 KB on disk and runs in 3.6 MB of
// RAM; Tinyx images are ~10 MB and need ~30 MB; a minimal Debian jessie is
// 1.1 GB on disk and needs 111 MB of RAM.
#pragma once

#include <string>

#include "src/base/time.h"
#include "src/base/units.h"

namespace guests {

enum class GuestKind {
  kUnikernel,  // Mini-OS based: single address space, no processes
  kTinyx,      // minimal Linux built by the Tinyx system
  kDebian,     // full general-purpose distribution
};

// Network stack linked into the guest; determines data-plane efficiency
// (the lwip-based TLS unikernel reaches ~1/5 of Tinyx's throughput, §7.3).
enum class NetStackKind { kNone, kLwip, kLinux };

struct GuestImage {
  std::string name;
  GuestKind kind = GuestKind::kUnikernel;
  lv::Bytes image_size;   // on-disk, uncompressed (kernel + root filesystem)
  // The part the toolstack parses and loads into guest memory at create
  // time (kernel + initramfs). For unikernels and Tinyx this is the whole
  // image; for Debian the bulk of the 1.1 GB stays on the block device.
  lv::Bytes kernel_size;
  lv::Bytes memory;      // runtime RAM requirement
  // Pure guest-side CPU work to initialize kernel + app (excludes device
  // enumeration, which is simulated through the actual control plane).
  lv::Duration boot_cpu;
  // Linux-style boots block on timers/events between init phases; each wait
  // re-pays a scheduling delay proportional to the number of co-located
  // guests (the contention visible in Figure 11). Unikernels have 0 phases.
  int boot_wait_phases = 0;
  bool wants_net = true;
  bool wants_block = false;
  NetStackKind net_stack = NetStackKind::kLwip;
  // Idle background services (Figure 15): every `bg_period`, burn `bg_work`.
  lv::Duration bg_work;
  lv::Duration bg_period;
  // CPU cost to handle one TLS handshake (§7.3), zero if not a TLS image.
  lv::Duration tls_handshake_cpu;
  // CPU cost to process one firewall packet (§7.1), zero if not a firewall.
  lv::Duration per_packet_cpu;

  bool has_background_tasks() const { return bg_work.ns() > 0 && bg_period.ns() > 0; }
};

// --- Unikernels (§3.1) -------------------------------------------------------

// Mini-OS + TCP daytime server over lwip; the paper's lower bound for VMs.
GuestImage DaytimeUnikernel();
// Empty Mini-OS guest with no devices wanted by default; boots in 2.3 ms.
GuestImage NoopUnikernel();
// Micropython interpreter + network stack (Amazon-Lambda-like service).
GuestImage MinipythonUnikernel();
// ClickOS network-function VM running a firewall configuration.
GuestImage ClickOsFirewall();
// axtls-based TLS termination proxy over lwip.
GuestImage TlsUnikernel();

// --- Tinyx (§3.2) -------------------------------------------------------------

// Tinyx with no application installed.
GuestImage TinyxNoop();
// Tinyx + Micropython.
GuestImage TinyxMicropython();
// Tinyx + TLS termination (Linux TCP stack, near bare-metal throughput).
GuestImage TinyxTls();

// --- Debian --------------------------------------------------------------------

// Minimal install of Debian jessie, "a typical VM used in practice".
GuestImage DebianVm();
// Debian + Micropython (memory-footprint experiment, Figure 14).
GuestImage DebianMicropython();

// Returns `base` with its image padded to `total_size` by injecting binary
// objects (the Figure 2 methodology).
GuestImage PaddedImage(GuestImage base, lv::Bytes total_size);

}  // namespace guests
