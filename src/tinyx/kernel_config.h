// Kernel configuration model for Tinyx (paper §3.2).
//
// "To build the kernel, Tinyx begins with the 'tinyconfig' Linux kernel
//  build target as a baseline, and adds a set of built-in options depending
//  on the target system (e.g., Xen or KVM support)... Optionally, the build
//  system can take a set of user-provided kernel options, disable each one
//  in turn, rebuild the kernel with the olddefconfig target, boot the Tinyx
//  image, and run a user-provided test."
#pragma once

#include <set>
#include <string>
#include <vector>

#include "src/base/units.h"

namespace tinyx {

enum class Platform { kXen, kKvm };

struct KernelOption {
  std::string name;
  lv::Bytes size;  // contribution to the kernel image
  // Applications that genuinely need this option (ground truth used by the
  // default boot test).
  std::vector<std::string> needed_by;
  // Needed whenever networking / block devices are used at all.
  bool needed_for_net = false;
  bool needed_for_block = false;
};

class KernelModel {
 public:
  KernelModel();

  // Options forced on for a platform (PV front-ends etc.).
  std::vector<std::string> PlatformOptions(Platform platform) const;
  // The olddefconfig default-on option set tinyconfig inherits for a
  // virtualized target (candidates for trimming).
  std::vector<std::string> DefaultOnOptions() const;
  const KernelOption* Find(const std::string& name) const;

  lv::Bytes SizeOf(const std::set<std::string>& options) const;

  // Ground-truth boot test: does a kernel with `options` run `app`?
  bool BootTest(const std::set<std::string>& options, const std::string& app) const;

 private:
  lv::Bytes baseline_;
  std::vector<KernelOption> options_;
};

}  // namespace tinyx
