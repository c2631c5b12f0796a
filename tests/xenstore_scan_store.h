// A test-only XenStore that runs the scans xs::Store charges for.
//
// xs::Store computes its legacy O(n) charges as counts read off its indexes
// (the watch registry size, the local/domain child count). This store does
// the work those counts stand for, the way oxenstored does: every mutation
// checks every registered watch, the unique-name check compares every
// guest's name, watch removal sweeps the whole registration list, and the
// node count comes from walking the tree. It keeps every generation it
// ever recorded. A read inside a transaction replays the transaction's
// buffered mutations onto a copy of the tree. It charges both policies'
// effort schedules, so tests/property_test.cc can compare every OpEffort
// field op by op against xs::Store on the differential oracle's op streams.
//
// Only the public surface that test drives is provided.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/strings.h"
#include "src/xenstore/store.h"

namespace xs_test {

class ScanStore {
 public:
  explicit ScanStore(xs::StorePolicy policy) : policy_(policy) {}

  const xs::OpEffort& last_effort() const { return effort_; }
  uint64_t generation() const { return gen_; }
  int64_t open_txns() const { return static_cast<int64_t>(txns_.size()); }
  int64_t num_watches() const { return static_cast<int64_t>(watches_.size()); }
  int64_t num_nodes() const { return CountNodes(root_) - 1; }

  lv::Result<std::string> Read(const std::string& path, xs::TxnId txn) {
    effort_.Reset();
    std::string canon = Canon(path);
    Node* tree = &root_;
    Node view;
    bool charge_lookup = true;
    if (txn != xs::kNoTxn) {
      auto it = txns_.find(txn);
      if (it == txns_.end()) {
        return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
      }
      it->second.reads.push_back(canon);
      // The transaction's view: its buffered mutations applied to a copy.
      view = Copy(root_);
      for (const TxnWrite& w : it->second.writes) {
        if (w.value.has_value()) {
          Walk(&view, w.path, /*create=*/true, /*charge=*/false)->value = *w.value;
        } else {
          RemoveFrom(&view, w.path);
        }
        // A write at the path, or a removal at or above it, settles the read
        // without a tree lookup; a removal of the root is a no-op.
        bool removal = !w.value.has_value();
        if ((!removal && w.path == canon) ||
            (removal && !w.path.empty() && AtOrBelow(canon, w.path))) {
          charge_lookup = false;
        }
      }
      tree = &view;
    }
    if (charge_lookup) {
      (void)Lookup(canon);
    }
    const Node* node = Walk(tree, canon, false, false);
    if (node == nullptr) {
      return lv::Err(lv::ErrorCode::kNotFound, path);
    }
    effort_.value_bytes += static_cast<int64_t>(node->value.size());
    return node->value;
  }

  lv::Status Write(const std::string& path, const std::string& value, hv::DomainId owner,
                   xs::TxnId txn, std::vector<xs::WatchHit>* hits) {
    effort_.Reset();
    std::string canon = Canon(path);
    if (!MayMutate(owner, canon)) {
      return lv::Err(lv::ErrorCode::kPermissionDenied,
                     lv::StrFormat("dom%lld may not write %s", (long long)owner, path.c_str()));
    }
    if (txn != xs::kNoTxn) {
      auto it = txns_.find(txn);
      if (it == txns_.end()) {
        return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
      }
      it->second.writes.push_back(TxnWrite{canon, value});
      effort_.value_bytes += static_cast<int64_t>(value.size());
      return lv::Status::Ok();
    }
    return ApplyWrite(canon, value, hits);
  }

  lv::Status Rm(const std::string& path, xs::TxnId txn, std::vector<xs::WatchHit>* hits,
                hv::DomainId requester) {
    effort_.Reset();
    std::string canon = Canon(path);
    if (!MayMutate(requester, canon)) {
      return lv::Err(lv::ErrorCode::kPermissionDenied,
                     lv::StrFormat("dom%lld may not remove %s", (long long)requester,
                                   path.c_str()));
    }
    if (txn != xs::kNoTxn) {
      auto it = txns_.find(txn);
      if (it == txns_.end()) {
        return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
      }
      it->second.writes.push_back(TxnWrite{canon, std::nullopt});
      return lv::Status::Ok();
    }
    return ApplyWrite(canon, std::nullopt, hits);
  }

  bool Exists(const std::string& path) {
    effort_.Reset();
    return Lookup(Canon(path)) != nullptr;
  }

  xs::TxnId TxBegin() {
    effort_.Reset();
    xs::TxnId id = next_txn_++;
    txns_[id].start_gen = gen_;
    return id;
  }

  lv::Status TxCommit(xs::TxnId txn, bool abort, std::vector<xs::WatchHit>* hits) {
    effort_.Reset();
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    Txn t = std::move(it->second);
    txns_.erase(it);
    if (abort) {
      return lv::Status::Ok();
    }
    // Both policies check every entry.
    std::vector<std::string> touched = t.reads;
    for (const TxnWrite& w : t.writes) {
      touched.push_back(w.path);
    }
    for (const std::string& p : touched) {
      ++effort_.nodes_visited;
      auto gen = path_gen_.find(p);
      if (gen != path_gen_.end() && gen->second > t.start_gen) {
        return lv::Err(lv::ErrorCode::kConflict, "transaction conflict on " + p);
      }
    }
    for (const TxnWrite& w : t.writes) {
      (void)ApplyWrite(w.path, w.value, hits);
    }
    return lv::Status::Ok();
  }

  xs::WatchHit AddWatch(xs::ClientId client, const std::string& path,
                        const std::string& token) {
    effort_.Reset();
    std::string canon = Canon(path);
    watches_.push_back(Watch{client, canon, token});
    return xs::WatchHit{client, canon, token, canon};
  }

  void RemoveWatch(xs::ClientId client, const std::string& path, const std::string& token) {
    effort_.Reset();
    std::string canon = Canon(path);
    std::erase_if(watches_, [&](const Watch& w) {
      return w.client == client && w.path == canon && w.token == token;
    });
  }

  void RemoveClientWatches(xs::ClientId client) {
    effort_.Reset();
    std::erase_if(watches_, [&](const Watch& w) { return w.client == client; });
  }

  std::vector<xs::WatchHit> ReplayWatches() {
    effort_.Reset();
    std::vector<xs::WatchHit> hits;
    for (const Watch& w : watches_) {
      ++effort_.watch_checks;
      hits.push_back(xs::WatchHit{w.client, w.path, w.token, w.path});
    }
    return hits;
  }

  lv::Status CheckUniqueName(const std::string& name) {
    effort_.Reset();
    bool indexed = policy_ == xs::StorePolicy::kIndexed;
    if (indexed) {
      ++effort_.names_compared;
    }
    Node* domains = Walk(&root_, "local/domain", false, /*charge=*/!indexed);
    if (domains == nullptr) {
      return lv::Status::Ok();
    }
    for (const auto& [id, node] : domains->children) {
      if (!indexed) {
        ++effort_.names_compared;
      }
      auto it = node->children.find("name");
      if (it != node->children.end() && it->second->value == name) {
        return lv::Err(lv::ErrorCode::kAlreadyExists, "guest name in use: " + name);
      }
    }
    return lv::Status::Ok();
  }

 private:
  struct Node {
    std::string value;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  struct TxnWrite {
    std::string path;
    std::optional<std::string> value;
  };

  struct Txn {
    uint64_t start_gen = 0;
    std::vector<TxnWrite> writes;
    std::vector<std::string> reads;
  };

  struct Watch {
    xs::ClientId client = 0;
    std::string path;
    std::string token;
  };

  static std::string Canon(const std::string& path) {
    return lv::Join(lv::Split(path, '/'), '/');
  }

  static std::string Parent(const std::string& canon) {
    size_t slash = canon.rfind('/');
    return slash == std::string::npos ? std::string() : canon.substr(0, slash);
  }

  // Is `path` at or below `prefix`?
  static bool AtOrBelow(const std::string& path, const std::string& prefix) {
    return prefix.empty() || path == prefix ||
           (path.size() > prefix.size() && lv::HasPrefix(path, prefix) &&
            path[prefix.size()] == '/');
  }

  static bool MayMutate(hv::DomainId domid, const std::string& canon) {
    return domid == hv::kDom0 ||
           AtOrBelow(canon, lv::StrFormat("local/domain/%lld", (long long)domid));
  }

  static Node Copy(const Node& from) {
    Node to;
    to.value = from.value;
    for (const auto& [name, child] : from.children) {
      to.children.emplace(name, std::make_unique<Node>(Copy(*child)));
    }
    return to;
  }

  static int64_t CountNodes(const Node& node) {
    int64_t n = 1;
    for (const auto& [name, child] : node.children) {
      n += CountNodes(*child);
    }
    return n;
  }

  // Removes `canon`'s subtree from `tree`; false if it does not exist.
  bool RemoveFrom(Node* tree, const std::string& canon) {
    Node* parent = Walk(tree, Parent(canon), false, false);
    std::string leaf = canon.substr(canon.rfind('/') + 1);
    return parent != nullptr && parent->children.erase(leaf) > 0;
  }

  // Walks segment by segment, charging one node per segment looked at
  // (when `charge`) on the store's effort counters.
  Node* Walk(Node* node, const std::string& canon, bool create, bool charge) {
    for (const std::string& seg : lv::Split(canon, '/')) {
      if (charge) {
        ++effort_.nodes_visited;
      }
      auto it = node->children.find(seg);
      if (it == node->children.end()) {
        if (!create) {
          return nullptr;
        }
        it = node->children.emplace(seg, std::make_unique<Node>()).first;
      }
      node = it->second.get();
    }
    return node;
  }

  // Legacy walks (charging each segment); indexed charges one probe.
  Node* Lookup(const std::string& canon) {
    bool indexed = policy_ == xs::StorePolicy::kIndexed;
    if (indexed && !canon.empty()) {
      ++effort_.nodes_visited;
    }
    return Walk(&root_, canon, false, /*charge=*/!indexed);
  }

  void BumpGen(const std::string& canon) {
    path_gen_[canon] = ++gen_;
    path_gen_[Parent(canon)] = gen_;
  }

  // Every mutation checks every registered watch, in registration order.
  void MatchWatches(const std::string& canon, std::vector<xs::WatchHit>* hits) {
    for (const Watch& w : watches_) {
      if (policy_ == xs::StorePolicy::kLegacy) {
        ++effort_.watch_checks;
      }
      if (AtOrBelow(canon, w.path)) {
        ++effort_.watches_fired;
        if (hits != nullptr) {
          hits->push_back(xs::WatchHit{w.client, w.path, w.token, canon});
        }
      }
    }
    if (policy_ == xs::StorePolicy::kIndexed) {
      // One bucket probe per ancestor prefix, the path and "" included.
      effort_.watch_checks += static_cast<int64_t>(lv::Split(canon, '/').size()) + 1;
    }
  }

  lv::Status ApplyWrite(const std::string& canon, const std::optional<std::string>& value,
                        std::vector<xs::WatchHit>* hits) {
    bool indexed = policy_ == xs::StorePolicy::kIndexed;
    bool exists = Walk(&root_, canon, false, false) != nullptr;
    if (value.has_value()) {
      // Indexed probes once, and walks (charged) only to create.
      if (indexed && !canon.empty()) {
        ++effort_.nodes_visited;
      }
      Walk(&root_, canon, true, /*charge=*/!indexed || !exists)->value = *value;
      effort_.value_bytes += static_cast<int64_t>(value->size());
    } else {
      std::string parent = Parent(canon);
      if (indexed) {
        ++effort_.nodes_visited;
        if (exists && !canon.empty() && !parent.empty()) {
          ++effort_.nodes_visited;
        }
      } else {
        (void)Walk(&root_, parent, false, /*charge=*/true);
      }
      if (!RemoveFrom(&root_, canon)) {
        return lv::Err(lv::ErrorCode::kNotFound, canon);
      }
    }
    BumpGen(canon);
    MatchWatches(canon, hits);
    return lv::Status::Ok();
  }

  xs::StorePolicy policy_;
  Node root_;
  uint64_t gen_ = 1;
  std::map<std::string, uint64_t> path_gen_;
  std::vector<Watch> watches_;
  std::map<xs::TxnId, Txn> txns_;
  xs::TxnId next_txn_ = 1;
  xs::OpEffort effort_;
};

}  // namespace xs_test
