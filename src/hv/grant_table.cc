#include "src/hv/grant_table.h"

#include "src/base/strings.h"
#include "src/metrics/metrics.h"

namespace hv {

GrantRef GrantTable::Grant(DomainId owner, DomainId grantee) {
  GrantRef ref = next_ref_++;
  grants_.TryEmplace(ref, Entry{owner, grantee, false});
  return ref;
}

lv::Status GrantTable::Map(DomainId mapper, GrantRef ref) {
  Entry* entry = grants_.Find(ref);
  if (entry == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("grant %lld", (long long)ref));
  }
  if (entry->grantee != mapper) {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld is not the grantee of grant %lld",
                                 (long long)mapper, (long long)ref));
  }
  if (entry->mapped) {
    return lv::Err(lv::ErrorCode::kAlreadyExists, "grant already mapped");
  }
  entry->mapped = true;
  static metrics::Counter& maps = metrics::GetCounter("hv.grant_table.maps");
  maps.Inc();
  return lv::Status::Ok();
}

lv::Status GrantTable::Unmap(DomainId mapper, GrantRef ref) {
  Entry* entry = grants_.Find(ref);
  if (entry == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("grant %lld", (long long)ref));
  }
  if (entry->grantee != mapper || !entry->mapped) {
    return lv::Err(lv::ErrorCode::kInvalidArgument, "not mapped by this domain");
  }
  entry->mapped = false;
  static metrics::Counter& unmaps = metrics::GetCounter("hv.grant_table.unmaps");
  unmaps.Inc();
  return lv::Status::Ok();
}

lv::Status GrantTable::Revoke(GrantRef ref) {
  Entry* entry = grants_.Find(ref);
  if (entry == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, lv::StrFormat("grant %lld", (long long)ref));
  }
  if (entry->mapped) {
    return lv::Err(lv::ErrorCode::kUnavailable, "grant still mapped");
  }
  grants_.Erase(ref);
  return lv::Status::Ok();
}

}  // namespace hv
