// The XenStore data model: a hierarchical key-value tree with per-domain
// write permissions, optimistic transactions, and prefix watches.
//
// This class is pure data structure — no simulated time. Every operation
// reports effort counters (nodes visited, watches checked, names compared,
// value bytes) which the Daemon translates into simulated CPU cost. The
// O(#watches) match scan and the O(#domains) unique-name check are the
// mechanisms behind the paper's superlinear VM-creation times (§4.2).
// oxenstored's O(#children) directory listing is not modelled: no create
// path lists a directory.
//
// StorePolicy (policy.h) is a charge schedule, not an implementation: both
// policies run on the same host structures and differ only in the effort
// they report. kLegacy charges what oxenstored does — one node per path
// segment walked, every registered watch per mutation, every guest name per
// admission check. kIndexed charges what an indexed store would — one probe
// per path lookup, one bucket probe per ancestor prefix, one name probe.
// Both charge one conflict check per buffered transaction entry. The host
// side is the cheapest for either: one tree of ordered child maps probed by
// string_view segment, watches stored once in registration order with a
// bucket per registered path and a list per client, and a refcounted name
// index. The legacy O(n) charges are counts read off those structures, so
// the host runs none of the scans it charges for (a unique-name check that
// fails still walks to the holder); tests/property_test.cc holds the
// charges, op by op, to a test-only store that does run them.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/hv/types.h"
#include "src/xenstore/policy.h"

namespace xs {

using ClientId = int64_t;
using TxnId = int64_t;
inline constexpr TxnId kNoTxn = 0;

// Effort counters accumulated by each store operation.
struct OpEffort {
  int64_t nodes_visited = 0;
  int64_t watch_checks = 0;
  int64_t watches_fired = 0;
  int64_t names_compared = 0;
  int64_t value_bytes = 0;

  void Reset() { *this = OpEffort{}; }
};

// A watch registration hit produced by a mutation.
struct WatchHit {
  ClientId client = 0;
  std::string watch_path;  // the registered prefix
  std::string token;
  std::string fired_path;  // the path that was modified
};

class Store {
 public:
  // Picks up the thread-local policy (policy.h) so the Daemon's embedded
  // store can be policy-selected by whoever constructs the daemon without
  // widening any signature on that path.
  Store() : Store(CurrentStorePolicy()) {}
  explicit Store(StorePolicy policy);
  // The walk cursor points into this store's own tree.
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  StorePolicy policy() const { return policy_; }

  // Effort counters for the most recent operation.
  const OpEffort& last_effort() const { return effort_; }

  // --- Core operations (txn == kNoTxn applies directly) ---------------------

  // Reads a node's value. Inside a transaction the read sees that
  // transaction's buffered mutations: its own writes, and its removals of
  // the path or of any ancestor.
  lv::Result<std::string> Read(const std::string& path, TxnId txn = kNoTxn);

  // Writes a value, creating the node and any missing ancestors (XenStore
  // semantics). Mutations outside transactions fire watches immediately; the
  // hits are appended to `hits` if non-null.
  //
  // Permission model (as enforced by real xenstored's node ACLs): Dom0 may
  // mutate anywhere; a guest may only mutate inside its own
  // /local/domain/<domid> subtree. Reads are unrestricted (the default
  // world-readable ACL).
  lv::Status Write(const std::string& path, const std::string& value, hv::DomainId owner,
                   TxnId txn = kNoTxn, std::vector<WatchHit>* hits = nullptr);

  // Removes a node and its subtree.
  lv::Status Rm(const std::string& path, TxnId txn = kNoTxn,
                std::vector<WatchHit>* hits = nullptr,
                hv::DomainId requester = hv::kDom0);

  bool Exists(const std::string& path);

  // --- Transactions ----------------------------------------------------------
  // Optimistic concurrency mirroring oxenstored: reads/writes are tracked;
  // commit fails with CONFLICT if any touched path was modified by someone
  // else since the transaction began, and the client must retry.

  TxnId TxBegin();
  // abort=true discards. On success, buffered writes are applied atomically
  // and their watch hits appended to `hits`.
  lv::Status TxCommit(TxnId txn, bool abort, std::vector<WatchHit>* hits);
  int64_t open_txns() const { return static_cast<int64_t>(txns_.size()); }

  // Entries in the generation table the conflict check reads (see
  // path_gen_ below); zero while no transaction is open.
  int64_t tracked_paths() const { return static_cast<int64_t>(path_gen_.size()); }

  // --- Watches ---------------------------------------------------------------

  // Registers a prefix watch. Per XenStore semantics the watch also fires
  // immediately upon registration; the synthetic hit is returned.
  WatchHit AddWatch(ClientId client, const std::string& path, const std::string& token);
  // Removes every registration of (client, path, token), duplicates included.
  void RemoveWatch(ClientId client, const std::string& path, const std::string& token);
  void RemoveClientWatches(ClientId client);
  int64_t num_watches() const { return static_cast<int64_t>(watches_.size()); }

  // Synthesizes one hit per registration (fired_path == watch path), in
  // registration order — the replay a restarted xenstored sends so clients
  // re-evaluate watch-driven state machines. Charges one watch check each.
  std::vector<WatchHit> ReplayWatches();

  // --- Domain-name uniqueness (paper §4.2) -----------------------------------
  // Returns ALREADY_EXISTS if a /local/domain/<id>/name node holds `name`.
  // Legacy charges the O(#domains) comparisons oxenstored's scan makes;
  // indexed charges one probe of the name index.
  lv::Status CheckUniqueName(const std::string& name);

  // Total nodes in the tree, excluding the root. Maintained incrementally.
  int64_t num_nodes() const { return node_count_; }

  uint64_t generation() const { return gen_; }

 private:
  // Transparent string hashing, so lookups by string_view allocate nothing.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  template <typename V>
  using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

  // Children sit by value in their parent's map, whose nodes never move,
  // so a Node* stays valid until its node is erased. A map of the
  // still-incomplete Node is a libstdc++ guarantee, not the standard's.
  struct Node {
    std::string value;
    std::map<std::string, Node, std::less<>> children;
  };

  // One buffered transaction mutation; nullopt value = removal.
  struct TxnWrite {
    std::string path;
    std::optional<std::string> value;
  };

  struct Txn {
    uint64_t start_gen = 0;
    std::vector<TxnWrite> writes;  // buffered mutations in order
    std::vector<std::string> reads;
  };

  struct Watch {
    ClientId client = 0;
    std::string path;
    std::string token;
    // Registration sequence number: a mutation collects its matches from
    // several buckets and sorts them by seq, so hits come out in
    // registration order, as oxenstored's scan produces them.
    int64_t seq = 0;
  };
  // Registration order; erasing one watch leaves the others' iterators valid.
  using WatchList = std::list<Watch>;
  using WatchRef = WatchList::iterator;

  // Canonicalizes a path in one pass: empty segments drop out and the rest
  // are joined by single slashes ("/a//b/" -> "a/b"). Writes into canon_
  // and returns it, so the result lives until the next call.
  const std::string& Canon(const std::string& path);
  // May `domid` mutate `canon`?
  static bool MayMutate(hv::DomainId domid, const std::string& canon);
  // Uncharged tree walk. Returns nullptr at the first missing segment; adds
  // the segments looked at, that one included, to *visited if non-null.
  Node* Find(std::string_view canon, int64_t* visited = nullptr) {
    return Walk(canon, visited, nullptr);
  }
  // Policy-charged lookup of an existing node: legacy charges the segments
  // walked, indexed one probe.
  Node* Lookup(std::string_view canon);
  // Find, or with `created` set, find or create `canon`: missing segments
  // become nodes with empty values and set *created. The walk starts from
  // the deepest cursor node on `canon`'s path, counting the segments that
  // node stands for as looked at. A walk past the cursor's end moves the
  // cursor to the last node it reached; one that ends on it leaves it be.
  Node* Walk(std::string_view canon, int64_t* visited, bool* created);
  void BumpGen(std::string_view canon);
  void RecordGen(std::string_view path);
  uint64_t PathGen(std::string_view canon) const;
  // Appends the watches registered on `canon` or an ancestor, in
  // registration order, and charges the match per policy.
  void MatchWatches(const std::string& canon, std::vector<WatchHit>* hits);
  // Writes `*value` at `canon`, or removes `canon` when `value` is null.
  lv::Status ApplyWrite(const std::string& canon, const std::string* value,
                        std::vector<WatchHit>* hits);
  // Conflict check and apply of a closed transaction.
  lv::Status Commit(const Txn& t, std::vector<WatchHit>* hits);
  // Drops `w` from its path's bucket and from the registry.
  void DropWatch(WatchRef w);

  // --- Bookkeeping (never touches effort counters or the generation) --------
  // Counts a freshly created node in the node count and, for
  // local/domain/<id>/name paths, the name index.
  void RegisterNode(std::string_view canon, const Node* node);
  // Uncounts `node` and its whole subtree ahead of removal; `path` is the
  // node's canon path, used as scratch and restored on return.
  void UnregisterSubtree(std::string& path, const Node* node);
  // Sets a node's value, keeping the name index in sync.
  void SetNodeValue(std::string_view canon, Node* node, const std::string& value);
  static bool IsDomainNamePath(std::string_view canon);
  void IndexName(std::string_view value, int64_t delta);

  StorePolicy policy_;
  Node root_;
  // The walk cursor: a canonical path to an existing node, and the node
  // of each of its segments, cursor_nodes_[i] standing for the first i + 1.
  // Inserts move no node, so only a removal could leave it dangling, and
  // every removal clears it.
  std::string cursor_path_;
  std::vector<Node*> cursor_nodes_;
  uint64_t gen_ = 1;
  // Last-modified generation per path, for the commit-time conflict check.
  // Exact pruning: an entry at or below the oldest open transaction's start
  // can never exceed any open or future transaction's start, so it decides
  // nothing. Nothing is recorded while no transaction is open, the table is
  // emptied when the last one closes, and it is pruned whenever it doubles.
  static constexpr size_t kPruneFloor = 1024;
  StringMap<uint64_t> path_gen_;
  size_t prune_at_ = kPruneFloor;
  // Ordered by id, so begin() is the oldest open transaction.
  std::map<TxnId, Txn> txns_;
  TxnId next_txn_ = 1;
  OpEffort effort_;

  // Each watch is stored once in watches_; watch_buckets_ lists it under its
  // exact registered path and client_watches_ under its client, both in
  // registration order.
  WatchList watches_;
  StringMap<std::vector<WatchRef>> watch_buckets_;
  std::unordered_map<ClientId, std::vector<WatchRef>> client_watches_;
  int64_t watch_seq_ = 0;
  std::vector<const Watch*> matched_;  // MatchWatches scratch
  std::string canon_;                  // Canon scratch

  // Refcounts the values of local/domain/<id>/name nodes.
  StringMap<int64_t> name_index_;
  int64_t node_count_ = 0;
};

}  // namespace xs
