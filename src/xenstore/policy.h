// StorePolicy: which store implementation a Store instance uses.
//
// kLegacy is the faithful oxenstored model — O(#watches) match scans,
// O(#domains) unique-name checks — whose superlinear cost curve figures 4
// and 9 reproduce. kIndexed is the fast path (hash path lookup, per-prefix
// sharded watch fanout, O(1) name index) for fleet-scale runs. Both
// policies are observably equivalent:
// identical read results, watch-hit sets and order, error codes and node /
// watch counts — only the *effort counters* (and hence simulated CPU cost)
// differ. tests/property_test.cc holds them to that contract with a
// differential oracle over seeded random op sequences.
//
// The policy is threaded via a thread-local "current store context" plus a
// RAII scope (the Device/DeviceScope idiom) instead of through every
// constructor signature on the Host -> Dom0Services -> Daemon path: the
// creator of a daemon opens a StorePolicyScope, and any Store constructed
// underneath it picks the policy up.
#pragma once

#include <string>

namespace xs {

enum class StorePolicy {
  kLegacy,   // faithful O(n) oxenstored model (default)
  kIndexed,  // indexed fast path
};

// "legacy" / "indexed".
const char* StorePolicyName(StorePolicy policy);
// Returns false on an unknown name; *out is untouched.
bool StorePolicyFromName(const std::string& name, StorePolicy* out);

// The thread-local current policy; kLegacy until a scope or an explicit
// SetCurrentStorePolicy changes it.
StorePolicy CurrentStorePolicy();
void SetCurrentStorePolicy(StorePolicy policy);

// RAII scope: installs `policy` as the thread-local current policy and
// restores the previous one on destruction. Scopes nest.
class StorePolicyScope {
 public:
  explicit StorePolicyScope(StorePolicy policy)
      : prev_(CurrentStorePolicy()) {
    SetCurrentStorePolicy(policy);
  }
  ~StorePolicyScope() { SetCurrentStorePolicy(prev_); }

  StorePolicyScope(const StorePolicyScope&) = delete;
  StorePolicyScope& operator=(const StorePolicyScope&) = delete;

 private:
  StorePolicy prev_;
};

}  // namespace xs
