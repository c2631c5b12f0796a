// Grant tables: Xen's mechanism for sharing memory pages between domains.
// A grant names (owner, grantee, page); the grantee may map it. Device
// control pages and I/O rings are shared through grants in both the
// XenStore-based and the noxs connection paths.
#pragma once

#include "src/base/id_table.h"
#include "src/base/result.h"
#include "src/hv/types.h"

namespace hv {

class GrantTable {
 public:
  // Creates a grant allowing `grantee` to map a page of `owner`.
  GrantRef Grant(DomainId owner, DomainId grantee);

  // Maps a granted page; only the designated grantee may map.
  lv::Status Map(DomainId mapper, GrantRef ref);
  lv::Status Unmap(DomainId mapper, GrantRef ref);

  // Revokes the grant entirely (owner teardown). Fails if still mapped.
  lv::Status Revoke(GrantRef ref);

  bool IsActive(GrantRef ref) const { return grants_.Contains(ref); }
  bool IsMapped(GrantRef ref) const {
    const Entry* entry = grants_.Find(ref);
    return entry != nullptr && entry->mapped;
  }
  int64_t active_grants() const { return static_cast<int64_t>(grants_.size()); }

 private:
  struct Entry {
    DomainId owner = kInvalidDomain;
    DomainId grantee = kInvalidDomain;
    bool mapped = false;
  };
  GrantRef next_ref_ = 1;
  lv::IdTable<Entry> grants_;
};

}  // namespace hv
