// Unit tests for the pure XenStore data model: tree ops, transactions,
// watches, effort counters and the unique-name admission scan.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/strings.h"
#include "src/xenstore/store.h"

namespace xs {
namespace {

using lv::ErrorCode;

TEST(StoreTest, WriteCreatesIntermediateNodes) {
  Store store;
  EXPECT_TRUE(store.Write("/local/domain/1/name", "vm1", hv::kDom0).ok());
  EXPECT_TRUE(store.Exists("/local/domain/1"));
  EXPECT_TRUE(store.Exists("/local"));
  auto r = store.Read("/local/domain/1/name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "vm1");
}

TEST(StoreTest, ReadMissingPathFails) {
  Store store;
  EXPECT_EQ(store.Read("/nope").code(), ErrorCode::kNotFound);
}

TEST(StoreTest, PathsAreCanonicalized) {
  Store store;
  EXPECT_TRUE(store.Write("/a//b/", "v", hv::kDom0).ok());
  EXPECT_EQ(*store.Read("a/b"), "v");
  EXPECT_EQ(*store.Read("/a/b"), "v");
}

TEST(StoreTest, RmRemovesSubtree) {
  Store store;
  (void)store.Write("/a/b/c", "1", hv::kDom0);
  (void)store.Write("/a/b/d", "2", hv::kDom0);
  EXPECT_TRUE(store.Rm("/a/b").ok());
  EXPECT_FALSE(store.Exists("/a/b/c"));
  EXPECT_FALSE(store.Exists("/a/b"));
  EXPECT_TRUE(store.Exists("/a"));
  EXPECT_EQ(store.Rm("/a/b").code(), ErrorCode::kNotFound);
}

TEST(StoreTest, OverwriteUpdatesValue) {
  Store store;
  (void)store.Write("/k", "v1", hv::kDom0);
  (void)store.Write("/k", "v2", hv::kDom0);
  EXPECT_EQ(*store.Read("/k"), "v2");
}

// --- Watches ----------------------------------------------------------------

TEST(StoreTest, WatchFiresOnExactPathAndDescendants) {
  Store store;
  store.AddWatch(/*client=*/1, "/local/domain/3", "tok");
  std::vector<WatchHit> hits;
  (void)store.Write("/local/domain/3", "x", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].client, 1);
  EXPECT_EQ(hits[0].token, "tok");

  hits.clear();
  (void)store.Write("/local/domain/3/device/vif/0", "y", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].fired_path, "local/domain/3/device/vif/0");
}

TEST(StoreTest, WatchDoesNotFireOnSiblingOrPrefixName) {
  Store store;
  store.AddWatch(1, "/local/domain/3", "tok");
  std::vector<WatchHit> hits;
  (void)store.Write("/local/domain/4/name", "other", hv::kDom0, kNoTxn, &hits);
  EXPECT_TRUE(hits.empty());
  // "/local/domain/33" shares the string prefix but is a different node.
  (void)store.Write("/local/domain/33", "x", hv::kDom0, kNoTxn, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(StoreTest, EveryMutationScansAllWatches) {
  Store store;
  for (int i = 0; i < 100; ++i) {
    store.AddWatch(i, lv::StrFormat("/w/%d", i), "t");
  }
  std::vector<WatchHit> hits;
  (void)store.Write("/unrelated", "x", hv::kDom0, kNoTxn, &hits);
  EXPECT_EQ(store.last_effort().watch_checks, 100);
  EXPECT_TRUE(hits.empty());
}

TEST(StoreTest, RemoveWatchStopsFiring) {
  Store store;
  store.AddWatch(1, "/a", "t1");
  store.AddWatch(1, "/a", "t2");
  store.RemoveWatch(1, "/a", "t1");
  std::vector<WatchHit> hits;
  (void)store.Write("/a/x", "v", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].token, "t2");
  store.RemoveClientWatches(1);
  hits.clear();
  (void)store.Write("/a/y", "v", hv::kDom0, kNoTxn, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(store.num_watches(), 0);
}

// --- Transactions -------------------------------------------------------------

TEST(StoreTest, TxnBuffersWritesUntilCommit) {
  Store store;
  TxnId txn = store.TxBegin();
  EXPECT_TRUE(store.Write("/t/a", "1", hv::kDom0, txn).ok());
  EXPECT_FALSE(store.Exists("/t/a"));
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(txn, /*abort=*/false, &hits).ok());
  EXPECT_EQ(*store.Read("/t/a"), "1");
}

TEST(StoreTest, TxnReadYourWrites) {
  Store store;
  TxnId txn = store.TxBegin();
  (void)store.Write("/t/a", "in-txn", hv::kDom0, txn);
  EXPECT_EQ(*store.Read("/t/a", txn), "in-txn");
}

TEST(StoreTest, TxnAbortDiscards) {
  Store store;
  TxnId txn = store.TxBegin();
  (void)store.Write("/t/a", "1", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(txn, /*abort=*/true, &hits).ok());
  EXPECT_FALSE(store.Exists("/t/a"));
  EXPECT_EQ(store.open_txns(), 0);
}

TEST(StoreTest, ConflictingWriteForcesRetry) {
  Store store;
  (void)store.Write("/shared", "0", hv::kDom0);
  TxnId txn = store.TxBegin();
  (void)store.Read("/shared", txn);
  // Another client writes the same path outside the transaction.
  (void)store.Write("/shared", "external", hv::kDom0);
  (void)store.Write("/shared", "mine", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  lv::Status commit = store.TxCommit(txn, false, &hits);
  EXPECT_EQ(commit.code(), ErrorCode::kConflict);
  EXPECT_EQ(*store.Read("/shared"), "external");  // Buffered write discarded.
}

TEST(StoreTest, NonOverlappingTxnsBothCommit) {
  Store store;
  TxnId t1 = store.TxBegin();
  TxnId t2 = store.TxBegin();
  (void)store.Write("/t1/x", "a", hv::kDom0, t1);
  (void)store.Write("/t2/y", "b", hv::kDom0, t2);
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(t1, false, &hits).ok());
  EXPECT_TRUE(store.TxCommit(t2, false, &hits).ok());
  EXPECT_EQ(*store.Read("/t1/x"), "a");
  EXPECT_EQ(*store.Read("/t2/y"), "b");
}

TEST(StoreTest, TxnCommitFiresWatchesForBufferedWrites) {
  Store store;
  store.AddWatch(1, "/t", "tok");
  TxnId txn = store.TxBegin();
  (void)store.Write("/t/a", "1", hv::kDom0, txn);
  (void)store.Write("/t/b", "2", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(txn, false, &hits).ok());
  EXPECT_EQ(hits.size(), 2u);
}

TEST(StoreTest, CommitUnknownTxnFails) {
  Store store;
  std::vector<WatchHit> hits;
  EXPECT_EQ(store.TxCommit(999, false, &hits).code(), ErrorCode::kInvalidArgument);
}

// --- Unique names ----------------------------------------------------------

TEST(StoreTest, CheckUniqueNameScansAllDomains) {
  Store store;
  for (int i = 1; i <= 50; ++i) {
    (void)store.Write(lv::StrFormat("/local/domain/%d/name", i), lv::StrFormat("vm%d", i),
                      hv::kDom0);
  }
  EXPECT_TRUE(store.CheckUniqueName("fresh").ok());
  EXPECT_EQ(store.last_effort().names_compared, 50);
  EXPECT_EQ(store.CheckUniqueName("vm17").code(), ErrorCode::kAlreadyExists);
  // The scan stops at the holder, the 9th domain in directory order
  // (1, 10, 11, ..., 17).
  EXPECT_EQ(store.last_effort().names_compared, 9);
}

TEST(StoreTest, CheckUniqueNameEmptyStoreOk) {
  Store store;
  EXPECT_TRUE(store.CheckUniqueName("anything").ok());
}

TEST(StoreTest, EffortCountsNodesVisited) {
  Store store;
  (void)store.Write("/a/b/c/d", "v", hv::kDom0);
  EXPECT_EQ(store.last_effort().nodes_visited, 4);
  (void)store.Read("/a/b/c/d");
  EXPECT_EQ(store.last_effort().nodes_visited, 4);
  EXPECT_EQ(store.last_effort().value_bytes, 1);
}

TEST(StoreTest, GenerationAdvancesOnMutation) {
  Store store;
  uint64_t g0 = store.generation();
  (void)store.Write("/x", "1", hv::kDom0);
  EXPECT_GT(store.generation(), g0);
  uint64_t g1 = store.generation();
  (void)store.Read("/x");
  EXPECT_EQ(store.generation(), g1);  // Reads don't bump.
}

// --- Both policies: conflicts, self-fire, replay ordering, quotas ------------
// The behaviours below must hold identically under the legacy scan store and
// the indexed fast path (policy.h); the differential sweep in
// tests/property_test.cc covers random sequences, these pin the named cases.

class StorePolicyTest : public ::testing::TestWithParam<StorePolicy> {
 protected:
  Store store_{GetParam()};
};

TEST_P(StorePolicyTest, TxnConflictDetectedAndBufferDiscarded) {
  (void)store_.Write("/shared", "0", hv::kDom0);
  TxnId txn = store_.TxBegin();
  (void)store_.Read("/shared", txn);
  (void)store_.Write("/shared", "external", hv::kDom0);
  (void)store_.Write("/shared", "mine", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  EXPECT_EQ(store_.TxCommit(txn, false, &hits).code(), ErrorCode::kConflict);
  EXPECT_EQ(*store_.Read("/shared"), "external");
  EXPECT_EQ(store_.open_txns(), 0);
}

TEST_P(StorePolicyTest, WatchSelfFiresOnRegistration) {
  WatchHit hit = store_.AddWatch(7, "/local/domain/9/device", "tok");
  EXPECT_EQ(hit.client, 7);
  EXPECT_EQ(hit.watch_path, "local/domain/9/device");
  EXPECT_EQ(hit.fired_path, "local/domain/9/device");
  EXPECT_EQ(hit.token, "tok");
  EXPECT_EQ(store_.num_watches(), 1);
}

TEST_P(StorePolicyTest, ReplayWatchesPreservesRegistrationOrder) {
  store_.AddWatch(1, "/a", "t1");
  store_.AddWatch(2, "/b", "t2");
  store_.AddWatch(3, "/a/x", "t3");
  store_.RemoveWatch(2, "/b", "t2");  // A gap must not reorder survivors.
  store_.AddWatch(4, "/c", "t4");
  std::vector<WatchHit> replay = store_.ReplayWatches();
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].client, 1);
  EXPECT_EQ(replay[1].client, 3);
  EXPECT_EQ(replay[2].client, 4);
  EXPECT_EQ(replay[2].fired_path, "c");
}

TEST_P(StorePolicyTest, OverlappingWatchesFireInRegistrationOrder) {
  store_.AddWatch(2, "/local/domain/1", "outer");
  store_.AddWatch(1, "/local/domain/1/device", "inner");
  store_.AddWatch(3, "", "all");
  std::vector<WatchHit> hits;
  (void)store_.Write("/local/domain/1/device/vif/0", "x", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].token, "outer");
  EXPECT_EQ(hits[1].token, "inner");
  EXPECT_EQ(hits[2].token, "all");
}

TEST_P(StorePolicyTest, TxnCommitFiresShadowedWritesInOrder) {
  store_.AddWatch(1, "/t", "tok");
  TxnId txn = store_.TxBegin();
  (void)store_.Write("/t/a", "1", hv::kDom0, txn);
  (void)store_.Write("/t/b", "2", hv::kDom0, txn);
  (void)store_.Write("/t/a", "3", hv::kDom0, txn);  // shadows the first write
  std::vector<WatchHit> hits;
  ASSERT_TRUE(store_.TxCommit(txn, false, &hits).ok());
  // Every buffered write applies in order, the shadowed one included.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].fired_path, "t/a");
  EXPECT_EQ(hits[1].fired_path, "t/b");
  EXPECT_EQ(hits[2].fired_path, "t/a");
  EXPECT_EQ(*store_.Read("/t/a"), "3");
}

TEST_P(StorePolicyTest, NumNodesAndOwnerAccountingTrackTree) {
  EXPECT_EQ(store_.num_nodes(), 0);
  (void)store_.Write("/local/domain", "", hv::kDom0);
  EXPECT_EQ(store_.num_nodes(), 2);
  (void)store_.Write("/local/domain/5/data/x", "v", 5);
  EXPECT_EQ(store_.num_nodes(), 5);  // + 5, data, x
  (void)store_.Write("/local/domain/5/data/y", "v", 5);
  EXPECT_EQ(store_.num_nodes(), 6);
  EXPECT_TRUE(store_.Rm("/local/domain/5").ok());
  EXPECT_EQ(store_.num_nodes(), 2);  // local, domain survive
}

TEST_P(StorePolicyTest, TxnReadSeesItsOwnRemovals) {
  (void)store_.Write("/a/b", "1", hv::kDom0);
  (void)store_.Write("/a/x", "2", hv::kDom0);
  TxnId txn = store_.TxBegin();
  ASSERT_TRUE(store_.Rm("/a/x", txn).ok());
  EXPECT_EQ(*store_.Read("/a/b", txn), "1");  // A sibling's removal hides nothing.
  ASSERT_TRUE(store_.Rm("/a", txn).ok());
  // xenstored gives each transaction its own tree: removing an ancestor
  // removes the path from the transaction's view.
  EXPECT_EQ(store_.Read("/a/b", txn).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_.Read("/a", txn).code(), ErrorCode::kNotFound);
  // A later write below recreates the path; the ancestors it implies read
  // empty, as a write creates them.
  ASSERT_TRUE(store_.Write("/a/b/c", "3", hv::kDom0, txn).ok());
  EXPECT_EQ(*store_.Read("/a/b/c", txn), "3");
  EXPECT_EQ(*store_.Read("/a/b", txn), "");
  EXPECT_EQ(*store_.Read("/a", txn), "");
  EXPECT_EQ(store_.Read("/a/x", txn).code(), ErrorCode::kNotFound);
  // The store itself is untouched until commit, which lands on exactly the
  // view the transaction read.
  EXPECT_EQ(*store_.Read("/a/b"), "1");
  std::vector<WatchHit> hits;
  ASSERT_TRUE(store_.TxCommit(txn, false, &hits).ok());
  EXPECT_EQ(*store_.Read("/a/b/c"), "3");
  EXPECT_EQ(*store_.Read("/a/b"), "");
  EXPECT_FALSE(store_.Exists("/a/x"));
}

TEST_P(StorePolicyTest, TxnWriteAfterRemovalRecreatesPath) {
  (void)store_.Write("/a/b", "1", hv::kDom0);
  TxnId txn = store_.TxBegin();
  (void)store_.Rm("/a/b", txn);
  (void)store_.Write("/a/b", "2", hv::kDom0, txn);
  EXPECT_EQ(*store_.Read("/a/b", txn), "2");
  (void)store_.Rm("/a", txn);
  EXPECT_EQ(store_.Read("/a/b", txn).code(), ErrorCode::kNotFound);
}

// --- Watch registry edge cases -----------------------------------------------

TEST_P(StorePolicyTest, RemoveWatchDropsEveryDuplicate) {
  store_.AddWatch(1, "/a", "t");
  store_.AddWatch(2, "/a", "t");
  store_.AddWatch(1, "/a", "t");
  EXPECT_EQ(store_.num_watches(), 3);
  std::vector<WatchHit> hits;
  (void)store_.Write("/a/x", "v", hv::kDom0, kNoTxn, &hits);
  EXPECT_EQ(hits.size(), 3u);
  store_.RemoveWatch(1, "/a", "t");
  EXPECT_EQ(store_.num_watches(), 1);
  hits.clear();
  (void)store_.Write("/a/y", "v", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].client, 2);
  store_.RemoveWatch(1, "/a", "t");  // Nothing left to remove.
  EXPECT_EQ(store_.num_watches(), 1);
}

TEST_P(StorePolicyTest, RemoveClientWatchesLeavesOthersInOrder) {
  store_.AddWatch(1, "/a", "t1");
  store_.AddWatch(2, "/a", "t2");
  store_.AddWatch(1, "/b", "t3");
  store_.AddWatch(3, "/c", "t4");
  store_.AddWatch(1, "/a", "t5");
  store_.AddWatch(2, "/d", "t6");
  store_.RemoveWatch(1, "/b", "t3");  // Partial removal first.
  EXPECT_EQ(store_.num_watches(), 5);
  store_.RemoveClientWatches(1);
  EXPECT_EQ(store_.num_watches(), 3);
  store_.RemoveClientWatches(1);  // Already gone.
  store_.RemoveClientWatches(9);  // Never registered.
  EXPECT_EQ(store_.num_watches(), 3);
  std::vector<WatchHit> replay = store_.ReplayWatches();
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].token, "t2");
  EXPECT_EQ(replay[1].token, "t4");
  EXPECT_EQ(replay[2].token, "t6");
  std::vector<WatchHit> hits;
  (void)store_.Write("/a/x", "v", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].token, "t2");
}

// --- Generation pruning ------------------------------------------------------

TEST_P(StorePolicyTest, GenerationPruningKeepsConflictsExact) {
  (void)store_.Write("/p", "0", hv::kDom0);
  (void)store_.Write("/q", "0", hv::kDom0);
  // While `pin` is open, the first churn is recorded.
  TxnId pin = store_.TxBegin();
  for (int i = 0; i < 5000; ++i) {
    (void)store_.Write(lv::StrFormat("/churn/a/%d", i), "x", hv::kDom0);
  }
  TxnId reader = store_.TxBegin();
  (void)store_.Read("/p", reader);
  TxnId clean = store_.TxBegin();
  (void)store_.Read("/q", clean);
  (void)store_.Write("/q2", "y", hv::kDom0, clean);
  // Closing `pin` leaves `reader` the oldest open transaction, so the first
  // churn no longer decides any conflict and may be pruned.
  std::vector<WatchHit> hits;
  ASSERT_TRUE(store_.TxCommit(pin, /*abort=*/true, &hits).ok());
  (void)store_.Write("/p", "external", hv::kDom0);
  for (int i = 0; i < 10000; ++i) {
    (void)store_.Write(lv::StrFormat("/churn/b/%d", i), "x", hv::kDom0);
  }
  // The first churn was pruned; everything written since `reader` began is
  // still tracked.
  EXPECT_LT(store_.tracked_paths(), 15000);
  EXPECT_GE(store_.tracked_paths(), 10000);
  (void)store_.Write("/p", "mine", hv::kDom0, reader);
  EXPECT_EQ(store_.TxCommit(reader, false, &hits).code(), ErrorCode::kConflict);
  EXPECT_TRUE(store_.TxCommit(clean, false, &hits).ok());
  EXPECT_EQ(*store_.Read("/p"), "external");
  EXPECT_EQ(*store_.Read("/q2"), "y");
  EXPECT_EQ(store_.tracked_paths(), 0);  // Nothing open, nothing tracked.
}

TEST_P(StorePolicyTest, GenerationTableStaysBoundedWithoutOpenTransactions) {
  int64_t peak = 0;
  std::vector<WatchHit> hits;
  for (int i = 0; i < 50000; ++i) {
    std::string dir = lv::StrFormat("/churn/%d", i);
    // Every tenth write happens while a short transaction is open.
    TxnId txn = i % 10 == 0 ? store_.TxBegin() : kNoTxn;
    ASSERT_TRUE(store_.Write(dir + "/leaf", "x", hv::kDom0).ok());
    peak = std::max(peak, store_.tracked_paths());
    if (txn != kNoTxn) {
      ASSERT_TRUE(store_.TxCommit(txn, false, &hits).ok());
    }
    ASSERT_TRUE(store_.Rm(dir).ok());
    peak = std::max(peak, store_.tracked_paths());
  }
  // Only the leaf and its parent, written while a transaction was open.
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(store_.tracked_paths(), 0);
}

INSTANTIATE_TEST_SUITE_P(Policies, StorePolicyTest,
                         ::testing::Values(StorePolicy::kLegacy, StorePolicy::kIndexed),
                         [](const ::testing::TestParamInfo<StorePolicy>& info) {
                           return StorePolicyName(info.param);
                         });

// --- Indexed fast path: the effort actually drops ----------------------------

TEST(StoreIndexedTest, UniqueNameIsOneProbe) {
  Store store(StorePolicy::kIndexed);
  for (int i = 1; i <= 50; ++i) {
    (void)store.Write(lv::StrFormat("/local/domain/%d/name", i), lv::StrFormat("vm%d", i),
                      hv::kDom0);
  }
  EXPECT_TRUE(store.CheckUniqueName("fresh").ok());
  EXPECT_EQ(store.last_effort().names_compared, 1);
  EXPECT_EQ(store.CheckUniqueName("vm17").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(store.last_effort().names_compared, 1);
  // Renames and removals keep the index honest.
  (void)store.Write("/local/domain/17/name", "renamed", hv::kDom0);
  EXPECT_TRUE(store.CheckUniqueName("vm17").ok());
  (void)store.Rm("/local/domain/23");
  EXPECT_TRUE(store.CheckUniqueName("vm23").ok());
}

TEST(StoreIndexedTest, WatchChecksAreDepthBoundedNotWatchBound) {
  Store store(StorePolicy::kIndexed);
  for (int i = 0; i < 100; ++i) {
    store.AddWatch(i, lv::StrFormat("/w/%d", i), "t");
  }
  std::vector<WatchHit> hits;
  (void)store.Write("/unrelated", "x", hv::kDom0, kNoTxn, &hits);
  // One bucket probe per ancestor prefix ("unrelated", "") — not 100 scans.
  EXPECT_EQ(store.last_effort().watch_checks, 2);
  EXPECT_TRUE(hits.empty());
}

TEST(StoreIndexedTest, ExistingPathLookupIsOneProbe) {
  Store store(StorePolicy::kIndexed);
  (void)store.Write("/a/b/c/d/e", "v", hv::kDom0);
  (void)store.Read("/a/b/c/d/e");
  EXPECT_EQ(store.last_effort().nodes_visited, 1);
}

}  // namespace
}  // namespace xs
