#include "src/xenstore/store.h"

#include <algorithm>
#include <charconv>

#include "src/base/strings.h"

namespace xs {

namespace {

// The segment of canonical path `canon` that starts at `pos`; advances `pos`
// past it and its trailing slash, so canon.substr(0, pos - 1) is then the
// path of that segment's node.
std::string_view NextSegment(std::string_view canon, size_t& pos) {
  size_t end = std::min(canon.find('/', pos), canon.size());
  std::string_view seg = canon.substr(pos, end - pos);
  pos = end + 1;
  return seg;
}

int64_t SegmentCount(std::string_view canon) {
  return canon.empty() ? 0 : 1 + std::count(canon.begin(), canon.end(), '/');
}

std::string_view ParentPath(std::string_view canon) {
  size_t slash = canon.rfind('/');
  return slash == std::string_view::npos ? std::string_view() : canon.substr(0, slash);
}

// Is `path` at or below `prefix`? Everything is below the root "".
bool Covers(std::string_view prefix, std::string_view path) {
  return prefix.empty() || path == prefix ||
         (path.size() > prefix.size() && path.starts_with(prefix) &&
          path[prefix.size()] == '/');
}

}  // namespace

Store::Store(StorePolicy policy) : policy_(policy) {}

const std::string& Store::Canon(const std::string& path) {
  canon_.clear();
  bool slash = false;  // a separator is owed before the next segment
  for (char c : path) {
    if (c == '/') {
      slash = !canon_.empty();
    } else {
      if (slash) {
        canon_.push_back('/');
        slash = false;
      }
      canon_.push_back(c);
    }
  }
  return canon_;
}

bool Store::MayMutate(hv::DomainId domid, const std::string& canon) {
  if (domid == hv::kDom0) {
    return true;
  }
  // At or below local/domain/<domid>, compared in place.
  constexpr std::string_view kDomains = "local/domain/";
  char buf[24];  // a decimal int64_t, sign included
  const char* end = std::to_chars(buf, buf + sizeof(buf), domid).ptr;
  std::string_view id(buf, static_cast<size_t>(end - buf));
  std::string_view rest = canon;
  if (!rest.starts_with(kDomains)) {
    return false;
  }
  rest.remove_prefix(kDomains.size());
  if (!rest.starts_with(id)) {
    return false;
  }
  rest.remove_prefix(id.size());
  return rest.empty() || rest.front() == '/';
}

// --- Bookkeeping -------------------------------------------------------------
// Counts and the name index are read by both charge schedules; they never
// touch the effort counters or the generation counter.

bool Store::IsDomainNamePath(std::string_view canon) {
  constexpr std::string_view kPrefix = "local/domain/";
  constexpr std::string_view kSuffix = "/name";
  if (canon.size() <= kPrefix.size() + kSuffix.size() || !canon.starts_with(kPrefix) ||
      !canon.ends_with(kSuffix)) {
    return false;
  }
  // Exactly one segment (the domid) between prefix and suffix.
  std::string_view mid = canon.substr(kPrefix.size(),
                                      canon.size() - kPrefix.size() - kSuffix.size());
  return !mid.empty() && mid.find('/') == std::string_view::npos;
}

void Store::IndexName(std::string_view value, int64_t delta) {
  auto it = name_index_.find(value);
  if (it == name_index_.end()) {
    it = name_index_.emplace(std::string(value), 0).first;
  }
  it->second += delta;
  if (it->second <= 0) {
    name_index_.erase(it);
  }
}

void Store::RegisterNode(std::string_view canon, const Node* node) {
  ++node_count_;
  if (IsDomainNamePath(canon)) {
    IndexName(node->value, +1);
  }
}

void Store::UnregisterSubtree(std::string& path, const Node* node) {
  for (const auto& [name, child] : node->children) {
    size_t len = path.size();
    path += '/';
    path += name;
    UnregisterSubtree(path, &child);
    path.resize(len);
  }
  --node_count_;
  if (IsDomainNamePath(path)) {
    IndexName(node->value, -1);
  }
}

void Store::SetNodeValue(std::string_view canon, Node* node, const std::string& value) {
  if (IsDomainNamePath(canon)) {
    IndexName(node->value, -1);
    IndexName(value, +1);
  }
  node->value = value;
}

// --- Tree access -------------------------------------------------------------

Store::Node* Store::Walk(std::string_view canon, int64_t* visited, bool* created) {
  // The segments `canon` shares with the cursor: each slash the two paths
  // reach together ends one, and so does the end of the shorter path where
  // the other one ends or has a slash too ("local/domain/1" shares two
  // segments with "local/domain/12", not three).
  const size_t n = std::min(cursor_path_.size(), canon.size());
  size_t i = 0;
  size_t depth = 0;
  size_t end = 0;  // where the shared segments end in `canon`
  for (; i < n && cursor_path_[i] == canon[i]; ++i) {
    if (canon[i] == '/') {
      ++depth;
      end = i;
    }
  }
  if (i == n && n > 0 && (i == canon.size() || canon[i] == '/') &&
      (i == cursor_path_.size() || cursor_path_[i] == '/')) {
    ++depth;
    end = i;
  }
  if (visited != nullptr) {
    *visited += static_cast<int64_t>(depth);
  }
  Node* node = depth == 0 ? &root_ : cursor_nodes_[depth - 1];
  if (end == canon.size()) {
    return node;  // on the cursor, which stays as it is
  }
  cursor_nodes_.resize(depth);
  cursor_path_.resize(end);
  for (size_t pos = depth == 0 ? 0 : end + 1; pos < canon.size();) {
    if (visited != nullptr) {
      ++*visited;
    }
    std::string_view seg = NextSegment(canon, pos);
    auto it = node->children.lower_bound(seg);
    if (it == node->children.end() || it->first != seg) {
      if (created == nullptr) {
        return nullptr;
      }
      it = node->children.try_emplace(it, std::string(seg));
      RegisterNode(canon.substr(0, pos - 1), &it->second);
      *created = true;
    }
    node = &it->second;
    cursor_nodes_.push_back(node);
    if (!cursor_path_.empty()) {
      cursor_path_ += '/';
    }
    cursor_path_ += seg;
  }
  return node;
}

Store::Node* Store::Lookup(std::string_view canon) {
  int64_t walked = 0;
  Node* node = Find(canon, &walked);
  if (policy_ == StorePolicy::kIndexed) {
    walked = canon.empty() ? 0 : 1;
  }
  effort_.nodes_visited += walked;
  return node;
}

void Store::BumpGen(std::string_view canon) {
  ++gen_;
  if (txns_.empty()) {
    return;  // Nothing open can conflict with this modification.
  }
  // Creating/removing an entry is also a modification of the parent
  // directory for conflict purposes.
  RecordGen(canon);
  RecordGen(ParentPath(canon));
  if (path_gen_.size() >= prune_at_) {
    uint64_t oldest = txns_.begin()->second.start_gen;
    std::erase_if(path_gen_, [oldest](const auto& entry) { return entry.second <= oldest; });
    prune_at_ = std::max(kPruneFloor, 2 * path_gen_.size());
  }
}

void Store::RecordGen(std::string_view path) {
  auto it = path_gen_.find(path);
  if (it == path_gen_.end()) {
    path_gen_.emplace(std::string(path), gen_);
  } else {
    it->second = gen_;
  }
}

uint64_t Store::PathGen(std::string_view canon) const {
  auto it = path_gen_.find(canon);
  return it == path_gen_.end() ? 0 : it->second;
}

void Store::MatchWatches(const std::string& canon, std::vector<WatchHit>* hits) {
  // One bucket probe per ancestor prefix: the path itself, each prefix
  // ending at a slash, and the match-all "". Matches from several buckets
  // are merged back into registration order by seq.
  matched_.clear();
  int64_t probes = 0;
  std::string_view prefix = canon;
  while (true) {
    ++probes;
    auto it = watch_buckets_.find(prefix);
    if (it != watch_buckets_.end()) {
      for (WatchRef w : it->second) {
        matched_.push_back(&*w);
      }
    }
    if (prefix.empty()) {
      break;
    }
    prefix = ParentPath(prefix);
  }
  std::sort(matched_.begin(), matched_.end(),
            [](const Watch* a, const Watch* b) { return a->seq < b->seq; });
  // Legacy charges oxenstored's check of every registration; indexed one
  // check per bucket probed.
  effort_.watch_checks += policy_ == StorePolicy::kIndexed ? probes : num_watches();
  effort_.watches_fired += static_cast<int64_t>(matched_.size());
  if (hits != nullptr) {
    for (const Watch* w : matched_) {
      hits->push_back(WatchHit{w->client, w->path, w->token, canon});
    }
  }
}

// --- Core operations ---------------------------------------------------------

lv::Result<std::string> Store::Read(const std::string& path, TxnId txn) {
  effort_.Reset();
  const std::string& canon = Canon(path);
  // Set by a buffered write below the path: committing it would create the
  // path (empty, as Create makes ancestors) if nothing else does.
  bool recreated = false;
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.reads.push_back(canon);
    // The transaction's own view, newest buffered mutation first. A write at
    // the path answers; a removal of the path or an ancestor hides it. A
    // removal of the root commits as a no-op, so it hides nothing.
    const std::vector<TxnWrite>& writes = it->second.writes;
    for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
      if (w->value.has_value()) {
        if (w->path == canon) {
          effort_.value_bytes += static_cast<int64_t>(w->value->size());
          return *w->value;
        }
        recreated = recreated || Covers(canon, w->path);
      } else if (!w->path.empty() && Covers(w->path, canon)) {
        if (recreated) {
          return std::string();
        }
        return lv::Err(lv::ErrorCode::kNotFound, path);
      }
    }
  }
  Node* node = Lookup(canon);
  if (node == nullptr) {
    if (recreated) {
      return std::string();
    }
    return lv::Err(lv::ErrorCode::kNotFound, path);
  }
  effort_.value_bytes += static_cast<int64_t>(node->value.size());
  return node->value;
}

lv::Status Store::ApplyWrite(const std::string& canon, const std::string* value,
                             std::vector<WatchHit>* hits) {
  if (value != nullptr) {
    bool created = false;
    Node* node = Walk(canon, nullptr, &created);
    // Legacy walks every segment; indexed probes the path once and walks
    // only to create it.
    int64_t segments = SegmentCount(canon);
    if (policy_ == StorePolicy::kIndexed && !canon.empty()) {
      effort_.nodes_visited += created ? 1 + segments : 1;
    } else {
      effort_.nodes_visited += segments;
    }
    SetNodeValue(canon, node, *value);
    effort_.value_bytes += static_cast<int64_t>(value->size());
  } else {
    // Removal.
    std::string_view parent_path = ParentPath(canon);
    std::string_view leaf =
        std::string_view(canon).substr(parent_path.empty() ? 0 : parent_path.size() + 1);
    int64_t walked = 0;
    Node* parent = Find(parent_path, &walked);
    bool exists = parent != nullptr && parent->children.contains(leaf);
    // Legacy walks to the parent; indexed probes the path, then its parent.
    if (policy_ == StorePolicy::kIndexed) {
      walked = exists && !parent_path.empty() ? 2 : 1;
    }
    effort_.nodes_visited += walked;
    if (!exists) {
      return lv::Err(lv::ErrorCode::kNotFound, canon);
    }
    auto child = parent->children.find(leaf);
    std::string subtree = canon;
    UnregisterSubtree(subtree, &child->second);
    parent->children.erase(child);
    cursor_path_.clear();
    cursor_nodes_.clear();
  }
  BumpGen(canon);
  MatchWatches(canon, hits);
  return lv::Status::Ok();
}

lv::Status Store::Write(const std::string& path, const std::string& value,
                        hv::DomainId owner, TxnId txn, std::vector<WatchHit>* hits) {
  effort_.Reset();
  const std::string& canon = Canon(path);
  if (!MayMutate(owner, canon)) {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld may not write %s", (long long)owner,
                                 path.c_str()));
  }
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.writes.push_back(TxnWrite{canon, value});
    effort_.value_bytes += static_cast<int64_t>(value.size());
    return lv::Status::Ok();
  }
  return ApplyWrite(canon, &value, hits);
}

lv::Status Store::Rm(const std::string& path, TxnId txn, std::vector<WatchHit>* hits,
                     hv::DomainId requester) {
  effort_.Reset();
  const std::string& canon = Canon(path);
  if (!MayMutate(requester, canon)) {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld may not remove %s", (long long)requester,
                                 path.c_str()));
  }
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.writes.push_back(TxnWrite{canon, std::nullopt});
    return lv::Status::Ok();
  }
  return ApplyWrite(canon, nullptr, hits);
}

bool Store::Exists(const std::string& path) {
  effort_.Reset();
  return Lookup(Canon(path)) != nullptr;
}

// --- Transactions ------------------------------------------------------------

TxnId Store::TxBegin() {
  effort_.Reset();
  TxnId id = next_txn_++;
  Txn txn;
  txn.start_gen = gen_;
  txns_.emplace_hint(txns_.end(), id, std::move(txn));
  return id;
}

lv::Status Store::TxCommit(TxnId txn, bool abort, std::vector<WatchHit>* hits) {
  effort_.Reset();
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
  }
  Txn t = std::move(it->second);
  txns_.erase(it);
  lv::Status status = abort ? lv::Status::Ok() : Commit(t, hits);
  if (txns_.empty() && !path_gen_.empty()) {
    // No transaction is left for a recorded generation to conflict with.
    path_gen_.clear();
    prune_at_ = kPruneFloor;
  }
  return status;
}

lv::Status Store::Commit(const Txn& t, std::vector<WatchHit>* hits) {
  // Conflict detection: anything we read or wrote that someone else touched
  // since the transaction began forces a retry (EAGAIN in real Xen). Both
  // policies charge one check per buffered entry.
  auto conflicts = [&](const std::string& p) {
    ++effort_.nodes_visited;
    return PathGen(p) > t.start_gen;
  };
  for (const std::string& p : t.reads) {
    if (conflicts(p)) {
      return lv::Err(lv::ErrorCode::kConflict, "transaction conflict on " + p);
    }
  }
  for (const TxnWrite& w : t.writes) {
    if (conflicts(w.path)) {
      return lv::Err(lv::ErrorCode::kConflict, "transaction conflict on " + w.path);
    }
  }
  for (const TxnWrite& w : t.writes) {
    // Removal of a non-existent path inside a txn is tolerated (mirrors
    // xenstore rm semantics when the whole subtree was created in-txn).
    (void)ApplyWrite(w.path, w.value ? &*w.value : nullptr, hits);
  }
  return lv::Status::Ok();
}

// --- Watches -----------------------------------------------------------------

WatchHit Store::AddWatch(ClientId client, const std::string& path, const std::string& token) {
  effort_.Reset();
  const std::string& canon = Canon(path);
  WatchRef w = watches_.insert(watches_.end(), Watch{client, canon, token, watch_seq_++});
  watch_buckets_[canon].push_back(w);
  client_watches_[client].push_back(w);
  // XenStore fires a watch immediately upon registration.
  return WatchHit{client, canon, token, canon};
}

void Store::DropWatch(WatchRef w) {
  auto bucket = watch_buckets_.find(w->path);
  std::erase(bucket->second, w);
  if (bucket->second.empty()) {
    watch_buckets_.erase(bucket);
  }
  watches_.erase(w);
}

void Store::RemoveWatch(ClientId client, const std::string& path, const std::string& token) {
  effort_.Reset();
  auto it = client_watches_.find(client);
  if (it == client_watches_.end()) {
    return;
  }
  const std::string& canon = Canon(path);
  std::vector<WatchRef>& mine = it->second;
  size_t kept = 0;
  for (WatchRef w : mine) {
    if (w->path == canon && w->token == token) {
      DropWatch(w);
    } else {
      mine[kept++] = w;
    }
  }
  mine.resize(kept);
  if (mine.empty()) {
    client_watches_.erase(it);
  }
}

void Store::RemoveClientWatches(ClientId client) {
  effort_.Reset();
  auto it = client_watches_.find(client);
  if (it == client_watches_.end()) {
    return;
  }
  for (WatchRef w : it->second) {
    DropWatch(w);
  }
  client_watches_.erase(it);
}

std::vector<WatchHit> Store::ReplayWatches() {
  effort_.Reset();
  std::vector<WatchHit> hits;
  hits.reserve(watches_.size());
  for (const Watch& w : watches_) {
    hits.push_back(WatchHit{w.client, w.path, w.token, w.path});
  }
  effort_.watch_checks += num_watches();
  return hits;
}

// --- Domain-name uniqueness --------------------------------------------------

lv::Status Store::CheckUniqueName(const std::string& name) {
  effort_.Reset();
  bool taken = name_index_.contains(name);
  if (policy_ == StorePolicy::kIndexed) {
    ++effort_.names_compared;  // One probe of the name index.
  } else if (Node* domains = Lookup("local/domain"); domains != nullptr) {
    // oxenstored compares `name` with each guest's, in directory order, and
    // stops at the first holder. A free name costs every comparison; only a
    // taken one needs the walk to find where the scan would have stopped.
    if (!taken) {
      effort_.names_compared += static_cast<int64_t>(domains->children.size());
    } else {
      for (const auto& [id, node] : domains->children) {
        ++effort_.names_compared;
        auto it = node.children.find("name");
        if (it != node.children.end() && it->second.value == name) {
          break;
        }
      }
    }
  }
  if (taken) {
    return lv::Err(lv::ErrorCode::kAlreadyExists, "guest name in use: " + name);
  }
  return lv::Status::Ok();
}

}  // namespace xs
