#include "src/hv/grant_table.h"

#include "src/base/strings.h"
#include "src/metrics/metrics.h"

namespace hv {

GrantRef GrantTable::Grant(DomainId owner, DomainId grantee) {
  GrantRef ref = next_ref_++;
  grants_.emplace(ref, Entry{owner, grantee, false});
  return ref;
}

lv::Status GrantTable::Map(DomainId mapper, GrantRef ref) {
  auto it = grants_.find(ref);
  if (it == grants_.end()) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("grant %lld", (long long)ref));
  }
  if (it->second.grantee != mapper) {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld is not the grantee of grant %lld",
                                 (long long)mapper, (long long)ref));
  }
  if (it->second.mapped) {
    return lv::Err(lv::ErrorCode::kAlreadyExists, "grant already mapped");
  }
  it->second.mapped = true;
  static metrics::Counter& maps = metrics::GetCounter("hv.grant_table.maps");
  maps.Inc();
  return lv::Status::Ok();
}

lv::Status GrantTable::Unmap(DomainId mapper, GrantRef ref) {
  auto it = grants_.find(ref);
  if (it == grants_.end()) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("grant %lld", (long long)ref));
  }
  if (it->second.grantee != mapper || !it->second.mapped) {
    return lv::Err(lv::ErrorCode::kInvalidArgument, "not mapped by this domain");
  }
  it->second.mapped = false;
  static metrics::Counter& unmaps = metrics::GetCounter("hv.grant_table.unmaps");
  unmaps.Inc();
  return lv::Status::Ok();
}

lv::Status GrantTable::Revoke(GrantRef ref) {
  auto it = grants_.find(ref);
  if (it == grants_.end()) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("grant %lld", (long long)ref));
  }
  if (it->second.mapped) {
    return lv::Err(lv::ErrorCode::kUnavailable, "grant still mapped");
  }
  grants_.erase(it);
  return lv::Status::Ok();
}

}  // namespace hv
