// Property-based tests (parameterized sweeps via TEST_P): randomized
// operation sequences checked against reference models and conservation
// invariants, across seeds and mechanism configurations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/host.h"
#include "src/sim/run.h"
#include "src/tinyx/builder.h"
#include "tests/xenstore_scan_store.h"

namespace {

using lv::Bytes;
using lv::Duration;

// --- Store vs. reference model ------------------------------------------------

// Random write/rm/read/directory sequences applied to both the Store and a
// plain std::map reference; every read and listing must agree, and every
// mutation must fire exactly the watches whose prefix matches.
class StoreModelTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreModelTest, RandomOpsAgreeWithReferenceModel) {
  lv::Rng rng(static_cast<uint64_t>(GetParam()));
  xs::Store store;
  std::map<std::string, std::string> model;  // canon path -> value

  // A fixed path universe keeps collisions frequent.
  std::vector<std::string> paths;
  for (int d = 1; d <= 6; ++d) {
    for (int k = 0; k < 4; ++k) {
      paths.push_back(lv::StrFormat("/local/domain/%d/slot/%d", d, k));
    }
  }
  // Watches on a few prefixes.
  struct WatchSpec {
    std::string prefix;
    std::string canon;
  };
  std::vector<WatchSpec> watches = {
      {"/local/domain/1", "local/domain/1"},
      {"/local/domain/2/slot", "local/domain/2/slot"},
      {"/local", "local"},
  };
  for (size_t w = 0; w < watches.size(); ++w) {
    store.AddWatch(static_cast<xs::ClientId>(w), watches[w].prefix, "t");
  }

  auto matches = [](const std::string& canon, const std::string& prefix) {
    return canon == prefix ||
           (canon.size() > prefix.size() && canon.compare(0, prefix.size(), prefix) == 0 &&
            canon[prefix.size()] == '/');
  };

  for (int step = 0; step < 600; ++step) {
    const std::string& path =
        paths[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(paths.size()) - 1))];
    std::string canon = path.substr(1);
    int op = static_cast<int>(rng.Uniform(0, 3));
    if (op == 0) {  // write
      std::string value = lv::StrFormat("v%d", step);
      std::vector<xs::WatchHit> hits;
      ASSERT_TRUE(store.Write(path, value, hv::kDom0, xs::kNoTxn, &hits).ok());
      model[canon] = value;
      int64_t expected_hits = 0;
      for (const WatchSpec& w : watches) {
        if (matches(canon, w.canon)) {
          ++expected_hits;
        }
      }
      EXPECT_EQ(static_cast<int64_t>(hits.size()), expected_hits) << canon;
    } else if (op == 1) {  // rm (leaf only, so the model stays in sync)
      std::vector<xs::WatchHit> hits;
      lv::Status s = store.Rm(path, xs::kNoTxn, &hits);
      bool existed = model.erase(canon) > 0;
      EXPECT_EQ(s.ok(), existed) << canon;
    } else if (op == 2) {  // read
      auto r = store.Read(path);
      auto it = model.find(canon);
      if (it == model.end()) {
        // The node may exist as an intermediate directory with empty value.
        if (r.ok()) {
          EXPECT_TRUE(r->empty()) << canon;
        }
      } else {
        ASSERT_TRUE(r.ok()) << canon;
        EXPECT_EQ(*r, it->second);
      }
    } else {  // directory of a parent
      std::string parent = path.substr(0, path.rfind('/'));
      auto dir = store.Directory(parent);
      if (dir.ok()) {
        // Every model key under this parent must be listed.
        std::set<std::string> listed(dir->begin(), dir->end());
        std::string parent_canon = parent.substr(1);
        for (const auto& [key, value] : model) {
          if (key.size() > parent_canon.size() && key.compare(0, parent_canon.size(),
                                                              parent_canon) == 0 &&
              key[parent_canon.size()] == '/') {
            std::string child = key.substr(parent_canon.size() + 1);
            child = child.substr(0, child.find('/'));
            EXPECT_TRUE(listed.contains(child)) << key;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest, ::testing::Range(1, 9));

// --- Transaction atomicity -----------------------------------------------------

class TxnPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TxnPropertyTest, ConflictingTransactionsNeverBothCommit) {
  lv::Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  xs::Store store;
  for (int round = 0; round < 100; ++round) {
    std::string key = lv::StrFormat("/k/%d", (int)rng.Uniform(0, 5));
    (void)store.Write(key, "base", hv::kDom0);
    xs::TxnId t1 = store.TxBegin();
    xs::TxnId t2 = store.TxBegin();
    // Both transactions read-modify-write the same key.
    (void)store.Read(key, t1);
    (void)store.Read(key, t2);
    (void)store.Write(key, lv::StrFormat("t1-%d", round), hv::kDom0, t1);
    (void)store.Write(key, lv::StrFormat("t2-%d", round), hv::kDom0, t2);
    bool first_is_t1 = rng.Chance(0.5);
    std::vector<xs::WatchHit> hits;
    lv::Status first = store.TxCommit(first_is_t1 ? t1 : t2, false, &hits);
    lv::Status second = store.TxCommit(first_is_t1 ? t2 : t1, false, &hits);
    EXPECT_TRUE(first.ok());
    EXPECT_EQ(second.code(), lv::ErrorCode::kConflict);
    // The surviving value is the first committer's.
    EXPECT_EQ(*store.Read(key),
              lv::StrFormat(first_is_t1 ? "t1-%d" : "t2-%d", round));
  }
  EXPECT_EQ(store.open_txns(), 0);
}

TEST_P(TxnPropertyTest, DisjointTransactionsAllCommit) {
  lv::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  xs::Store store;
  for (int round = 0; round < 50; ++round) {
    int n = static_cast<int>(rng.Uniform(2, 6));
    std::vector<xs::TxnId> txns;
    for (int i = 0; i < n; ++i) {
      txns.push_back(store.TxBegin());
      (void)store.Write(lv::StrFormat("/r%d/t%d", round, i), "v", hv::kDom0, txns.back());
    }
    std::vector<xs::WatchHit> hits;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(store.TxCommit(txns[static_cast<size_t>(i)], false, &hits).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnPropertyTest, ::testing::Range(1, 6));

// --- CPU scheduler conservation --------------------------------------------------

struct CpuCase {
  int cores;
  int jobs;
  int seed;
};

class CpuConservationTest : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuConservationTest, ConsumedTimeEqualsSubmittedWork) {
  const CpuCase& c = GetParam();
  sim::Engine engine(static_cast<uint64_t>(c.seed));
  sim::CpuScheduler cpu(&engine, c.cores);
  lv::Rng rng(static_cast<uint64_t>(c.seed) * 13 + 7);

  Duration total_work;
  std::vector<Duration> per_owner(static_cast<size_t>(c.jobs));
  for (int j = 0; j < c.jobs; ++j) {
    Duration work = Duration::Micros(rng.Uniform(50, 5000));
    Duration start_delay = Duration::Micros(rng.Uniform(0, 2000));
    int core = static_cast<int>(rng.Uniform(0, c.cores - 1));
    total_work += work;
    per_owner[static_cast<size_t>(j)] = work;
    engine.Schedule(start_delay, [&engine, &cpu, core, work, j] {
      engine.Spawn([](sim::CpuScheduler& s, int core, Duration w, int owner) -> sim::Co<void> {
        co_await s.Run(core, w, owner + 1);
      }(cpu, core, work, j));
    });
  }
  engine.Run();

  // Conservation: every job's consumed time equals its submitted work, and
  // per-core busy time sums to the total.
  Duration consumed;
  for (int j = 0; j < c.jobs; ++j) {
    Duration got = cpu.ConsumedBy(j + 1);
    EXPECT_NEAR(got.us(), per_owner[static_cast<size_t>(j)].us(), 1.0) << "owner " << j;
    consumed += got;
  }
  Duration busy;
  for (int core = 0; core < c.cores; ++core) {
    busy += cpu.BusyTime(core);
    EXPECT_LE(cpu.BusyTime(core).ns(), engine.now().ns());  // Never beyond wall.
    EXPECT_EQ(cpu.ActiveJobs(core), 0);
  }
  EXPECT_NEAR(consumed.us(), total_work.us(), static_cast<double>(c.jobs));
  EXPECT_NEAR(busy.us(), total_work.us(), static_cast<double>(c.jobs));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CpuConservationTest,
    ::testing::Values(CpuCase{1, 10, 1}, CpuCase{1, 100, 2}, CpuCase{4, 50, 3},
                      CpuCase{4, 200, 4}, CpuCase{16, 300, 5}, CpuCase{64, 500, 6}));

// --- VM lifecycle invariants across all mechanisms --------------------------------

struct LifecycleCase {
  lightvm::Mechanisms mechanisms;
  int seed;
};

class LifecyclePropertyTest : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(LifecyclePropertyTest, RandomLifecycleConservesResources) {
  const LifecycleCase& c = GetParam();
  sim::Engine engine(static_cast<uint64_t>(c.seed));
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), c.mechanisms);
  if (c.mechanisms.split) {
    host.AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
    host.PrefillShellPool();
  }
  lv::Rng rng(static_cast<uint64_t>(c.seed) * 7 + 3);

  std::vector<hv::DomainId> running;
  int created = 0;
  for (int step = 0; step < 60; ++step) {
    int op = static_cast<int>(rng.Uniform(0, 3));
    if (op <= 1 || running.empty()) {  // create (biased)
      toolstack::VmConfig config;
      config.name = lv::StrFormat("p%d", created++);
      config.image = guests::DaytimeUnikernel();
      auto domid = sim::RunToCompletion(engine, host.CreateAndBoot(config));
      ASSERT_TRUE(domid.ok()) << domid.error().message;
      running.push_back(*domid);
    } else if (op == 2) {  // destroy a random VM
      size_t victim =
          static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(running.size()) - 1));
      ASSERT_TRUE(sim::RunToCompletion(engine, host.DestroyVm(running[victim])).ok());
      running.erase(running.begin() + static_cast<long>(victim));
    } else {  // save + restore a random VM
      size_t victim =
          static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(running.size()) - 1));
      hv::DomainId domid = running[victim];
      running.erase(running.begin() + static_cast<long>(victim));
      auto snap = sim::RunToCompletion(engine, host.SaveVm(domid));
      ASSERT_TRUE(snap.ok()) << snap.error().message;
      auto restored = sim::RunToCompletion(engine, host.RestoreVm(*snap));
      ASSERT_TRUE(restored.ok()) << restored.error().message;
      running.push_back(*restored);
    }

    // Invariants after every step.
    EXPECT_EQ(host.num_vms(), static_cast<int64_t>(running.size()));
    // Memory: Dom0 + each live guest's reservation (+ pooled shells).
    int64_t pool = host.chaos_daemon() ? host.chaos_daemon()->pool_size() : 0;
    double expected_mib =
        host.spec().dom0_memory.mib() +
        static_cast<double>(static_cast<int64_t>(running.size())) *
            guests::DaytimeUnikernel().memory.mib();
    double measured_mib = host.MemoryUsed().mib();
    // Shells mid-build may hold one extra reservation.
    double slack = (static_cast<double>(pool) + 2.0) * guests::DaytimeUnikernel().memory.mib();
    EXPECT_GE(measured_mib + 0.001, expected_mib) << "step " << step;
    EXPECT_LE(measured_mib, expected_mib + slack) << "step " << step;
  }

  // Drain everything; the host must return to (near) baseline.
  for (hv::DomainId domid : running) {
    ASSERT_TRUE(sim::RunToCompletion(engine, host.DestroyVm(domid)).ok());
  }
  EXPECT_EQ(host.num_vms(), 0);
  EXPECT_EQ(host.hv().NumDomainsInState(hv::DomainState::kRunning), 0);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsBySeed, LifecyclePropertyTest,
    ::testing::Values(LifecycleCase{lightvm::Mechanisms::Xl(), 1},
                      LifecycleCase{lightvm::Mechanisms::Xl(), 2},
                      LifecycleCase{lightvm::Mechanisms::ChaosXs(), 1},
                      LifecycleCase{lightvm::Mechanisms::ChaosXs(), 2},
                      LifecycleCase{lightvm::Mechanisms::ChaosXsSplit(), 1},
                      LifecycleCase{lightvm::Mechanisms::ChaosNoxs(), 1},
                      LifecycleCase{lightvm::Mechanisms::ChaosNoxs(), 2},
                      LifecycleCase{lightvm::Mechanisms::LightVm(), 1},
                      LifecycleCase{lightvm::Mechanisms::LightVm(), 2},
                      LifecycleCase{lightvm::Mechanisms::LightVm(), 3}));

// --- Tinyx build properties ----------------------------------------------------

struct TinyxCase {
  std::string app;
  tinyx::Platform platform;
};

// gtest names each case after its printed parameter, and ctest takes that
// name. A bare `const char*` would print as its address, which moves with
// every run, so print the app and the platform instead.
void PrintTo(const TinyxCase& c, std::ostream* os) {
  *os << c.app << (c.platform == tinyx::Platform::kXen ? " on xen" : " on kvm");
}

class TinyxPropertyTest : public ::testing::TestWithParam<TinyxCase> {};

TEST_P(TinyxPropertyTest, EveryBuildIsBootableAndMinimal) {
  const auto& [app, platform] = GetParam();
  tinyx::TinyxBuilder builder(tinyx::PackageDb::DebianBase());
  tinyx::BuildConfig config;
  config.app = app;
  config.platform = platform;
  tinyx::KernelModel kernel;
  config.kernel_options_to_test = kernel.DefaultOnOptions();
  auto image = builder.Build(config);
  ASSERT_TRUE(image.ok()) << image.error().message;

  // The final configuration passes the boot test for this app.
  EXPECT_TRUE(kernel.BootTest(image->kernel_options, app));
  // The app itself and busybox are present; nothing blacklisted leaked in.
  EXPECT_TRUE(std::find(image->packages.begin(), image->packages.end(), app) !=
              image->packages.end());
  for (const std::string& bad : image->blacklisted) {
    EXPECT_TRUE(std::find(image->packages.begin(), image->packages.end(), bad) ==
                image->packages.end());
  }
  // Minimality: disabling any surviving tested option would break the app —
  // re-check each one.
  for (const std::string& opt : config.kernel_options_to_test) {
    if (!image->kernel_options.contains(opt)) {
      continue;  // Already disabled by the loop.
    }
    std::set<std::string> without = image->kernel_options;
    without.erase(opt);
    EXPECT_FALSE(kernel.BootTest(without, app))
        << opt << " survived trimming but is not actually needed by " << app;
  }
  // Far below a general-purpose distribution.
  EXPECT_LT(image->image_size.mib(), 64.0);
}

INSTANTIATE_TEST_SUITE_P(
    AppsByPlatform, TinyxPropertyTest,
    ::testing::Values(TinyxCase{"nginx", tinyx::Platform::kXen},
                      TinyxCase{"nginx", tinyx::Platform::kKvm},
                      TinyxCase{"micropython", tinyx::Platform::kXen},
                      TinyxCase{"micropython", tinyx::Platform::kKvm},
                      TinyxCase{"tls-proxy", tinyx::Platform::kXen},
                      TinyxCase{"tls-proxy", tinyx::Platform::kKvm}));

// --- Store policy differential oracle ----------------------------------------
//
// The indexed fast path (StorePolicy::kIndexed, src/xenstore/policy.h) must
// be observably equivalent to the faithful legacy store: identical values,
// error codes AND messages, watch-hit sets in identical order, identical
// node/watch/txn counts, generation counter and per-domain quota accounting
// after every single operation. This sweep drives both policies through the
// same seeded random operation sequence — writes, removals, reads,
// directory listings, transaction begin/commit/abort, watch register/
// unregister/replay, unique-name admission checks and (on a third of the
// seeds) node-quota enforcement — serializing every observable into a
// transcript line per op, and requires the transcripts to match byte for
// byte. Running each policy twice additionally pins same-seed determinism.

struct StoreOp {
  enum Kind {
    kOpWrite,
    kOpRm,
    kOpRead,
    kOpDir,
    kOpExists,
    kOpTxBegin,
    kOpTxCommit,
    kOpTxAbort,
    kOpWatchAdd,
    kOpWatchRm,
    kOpWatchRmClient,
    kOpUniqueName,
    kOpReplay,
  };
  Kind kind = kOpWrite;
  std::string path;
  std::string value;
  std::string token;
  hv::DomainId owner = hv::kDom0;
  xs::ClientId client = 0;
  int pick = 0;        // open-transaction slot selector (mod open count)
  bool in_txn = false; // route the mutation/read through an open txn if any
};

std::vector<StoreOp> GenStoreOps(uint64_t seed, int steps) {
  lv::Rng rng(seed * 131 + 17);
  // Small universes keep collisions (overwrites, conflicts, duplicate names,
  // watch overlaps) frequent.
  std::vector<std::string> paths;
  for (int d = 1; d <= 4; ++d) {
    paths.push_back(lv::StrFormat("/local/domain/%d", d));
    paths.push_back(lv::StrFormat("/local/domain/%d/name", d));
    paths.push_back(lv::StrFormat("/local/domain/%d/data/x", d));
    for (int k = 0; k < 3; ++k) {
      paths.push_back(lv::StrFormat("/local/domain/%d/device/vif/%d/state", d, k));
    }
  }
  paths.push_back("/tool/xenstored/log");
  paths.push_back("/backend/vif/1/0/state");
  std::vector<std::string> watch_paths = {
      "/local",          "/local/domain/1",      "/local/domain/2",
      "/local/domain/2/device", "/local/domain/3/name", "/backend/vif/1",
      "/tool"};
  std::vector<std::string> names = {"web", "db", "cache", "edge", "vm"};

  auto pick_path = [&] {
    return paths[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(paths.size()) - 1))];
  };
  auto pick_owner = [&] {
    // Half Dom0, half a random guest — mismatched guests exercise the
    // PERMISSION_DENIED surface, which must be identical across policies.
    return rng.Chance(0.5) ? hv::kDom0 : static_cast<hv::DomainId>(rng.Uniform(1, 4));
  };

  std::vector<StoreOp> ops;
  ops.reserve(static_cast<size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    StoreOp op;
    op.pick = static_cast<int>(rng.Uniform(0, (1 << 20) - 1));
    int r = static_cast<int>(rng.Uniform(0, 99));
    if (r < 34) {
      op.kind = StoreOp::kOpWrite;
      op.path = pick_path();
      // Name nodes get values from a small pool so the name index sees
      // duplicates and refcount churn.
      op.value = op.path.ends_with("/name")
                     ? names[static_cast<size_t>(rng.Uniform(0, 4))]
                     : lv::StrFormat("v%d", i);
      op.owner = pick_owner();
      op.in_txn = rng.Chance(0.35);
    } else if (r < 42) {
      op.kind = StoreOp::kOpRm;
      op.path = pick_path();
      op.owner = pick_owner();
      op.in_txn = rng.Chance(0.25);
    } else if (r < 57) {
      op.kind = StoreOp::kOpRead;
      op.path = pick_path();
      op.in_txn = rng.Chance(0.3);
    } else if (r < 64) {
      op.kind = StoreOp::kOpDir;
      op.path = pick_path();
    } else if (r < 68) {
      op.kind = StoreOp::kOpExists;
      op.path = pick_path();
    } else if (r < 75) {
      op.kind = StoreOp::kOpTxBegin;
    } else if (r < 81) {
      op.kind = StoreOp::kOpTxCommit;
    } else if (r < 84) {
      op.kind = StoreOp::kOpTxAbort;
    } else if (r < 90) {
      op.kind = StoreOp::kOpWatchAdd;
      op.client = rng.Uniform(1, 5);
      op.path = watch_paths[static_cast<size_t>(rng.Uniform(0, 6))];
      op.token = lv::StrFormat("t%d", (int)rng.Uniform(0, 1));
    } else if (r < 93) {
      op.kind = StoreOp::kOpWatchRm;
      op.client = rng.Uniform(1, 5);
      op.path = watch_paths[static_cast<size_t>(rng.Uniform(0, 6))];
      op.token = lv::StrFormat("t%d", (int)rng.Uniform(0, 1));
    } else if (r < 94) {
      op.kind = StoreOp::kOpWatchRmClient;
      op.client = rng.Uniform(1, 5);
    } else if (r < 98) {
      op.kind = StoreOp::kOpUniqueName;
      op.value = names[static_cast<size_t>(rng.Uniform(0, 4))];
    } else {
      op.kind = StoreOp::kOpReplay;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void RecordStatus(std::string* out, const lv::Status& s) {
  *out += " -> ";
  *out += lv::ErrorCodeName(s.code());
  if (!s.ok()) {
    *out += " '" + s.error().message + "'";
  }
}

// Drives `store` (xs::Store or the scanning reference) through `ops`. With
// `efforts`, each line also records the op's six OpEffort fields.
template <typename StoreT>
std::string Transcript(StoreT& store, const std::vector<StoreOp>& ops, bool efforts) {
  std::vector<xs::TxnId> open;
  std::string out;
  int i = 0;
  for (const StoreOp& op : ops) {
    out += lv::StrFormat("#%d ", i++);
    std::vector<xs::WatchHit> hits;
    xs::TxnId txn = (op.in_txn && !open.empty())
                        ? open[static_cast<size_t>(op.pick) % open.size()]
                        : xs::kNoTxn;
    switch (op.kind) {
      case StoreOp::kOpWrite:
        out += "write " + op.path;
        RecordStatus(&out, store.Write(op.path, op.value, op.owner, txn, &hits));
        break;
      case StoreOp::kOpRm:
        out += "rm " + op.path;
        RecordStatus(&out, store.Rm(op.path, txn, &hits, op.owner));
        break;
      case StoreOp::kOpRead: {
        out += "read " + op.path + " ->";
        auto r = store.Read(op.path, txn);
        if (r.ok()) {
          out += " '" + *r + "'";
        } else {
          out += lv::StrFormat(" %s '%s'", lv::ErrorCodeName(r.code()),
                               r.error().message.c_str());
        }
        break;
      }
      case StoreOp::kOpDir: {
        out += "dir " + op.path + " ->";
        auto d = store.Directory(op.path);
        if (d.ok()) {
          for (const std::string& child : *d) {
            out += " " + child;
          }
        } else {
          out += lv::StrFormat(" %s", lv::ErrorCodeName(d.code()));
        }
        break;
      }
      case StoreOp::kOpExists:
        out += lv::StrFormat("exists %s -> %d", op.path.c_str(),
                             store.Exists(op.path) ? 1 : 0);
        break;
      case StoreOp::kOpTxBegin: {
        xs::TxnId t = store.TxBegin();
        open.push_back(t);
        out += lv::StrFormat("txbegin -> %lld", (long long)t);
        break;
      }
      case StoreOp::kOpTxCommit:
      case StoreOp::kOpTxAbort: {
        bool abort = op.kind == StoreOp::kOpTxAbort;
        out += abort ? "txabort" : "txcommit";
        if (open.empty()) {
          out += " none";
          break;
        }
        size_t slot = static_cast<size_t>(op.pick) % open.size();
        xs::TxnId t = open[slot];
        open.erase(open.begin() + static_cast<long>(slot));
        out += lv::StrFormat(" %lld", (long long)t);
        RecordStatus(&out, store.TxCommit(t, abort, &hits));
        break;
      }
      case StoreOp::kOpWatchAdd: {
        out += lv::StrFormat("watch %lld %s %s", (long long)op.client, op.path.c_str(),
                             op.token.c_str());
        hits.push_back(store.AddWatch(op.client, op.path, op.token));
        break;
      }
      case StoreOp::kOpWatchRm:
        out += lv::StrFormat("unwatch %lld %s %s", (long long)op.client,
                             op.path.c_str(), op.token.c_str());
        store.RemoveWatch(op.client, op.path, op.token);
        break;
      case StoreOp::kOpWatchRmClient:
        out += lv::StrFormat("release %lld", (long long)op.client);
        store.RemoveClientWatches(op.client);
        break;
      case StoreOp::kOpUniqueName:
        out += "uniquename " + op.value;
        RecordStatus(&out, store.CheckUniqueName(op.value));
        break;
      case StoreOp::kOpReplay: {
        out += "replay";
        hits = store.ReplayWatches();
        break;
      }
    }
    for (const xs::WatchHit& h : hits) {
      out += lv::StrFormat(" [%lld %s %s %s]", (long long)h.client, h.watch_path.c_str(),
                           h.token.c_str(), h.fired_path.c_str());
    }
    out += lv::StrFormat(" | n=%lld w=%lld t=%lld g=%llu", (long long)store.num_nodes(),
                         (long long)store.num_watches(), (long long)store.open_txns(),
                         (unsigned long long)store.generation());
    for (int d = 0; d <= 4; ++d) {
      out += lv::StrFormat(" o%d=%lld", d, (long long)store.owner_nodes(d));
    }
    if (efforts) {
      const xs::OpEffort& e = store.last_effort();
      out += lv::StrFormat(" | nodes=%lld checks=%lld fired=%lld children=%lld names=%lld "
                           "bytes=%lld",
                           (long long)e.nodes_visited, (long long)e.watch_checks,
                           (long long)e.watches_fired, (long long)e.children_listed,
                           (long long)e.names_compared, (long long)e.value_bytes);
    }
    out += "\n";
  }
  return out;
}

std::string ApplyStoreOps(xs::StorePolicy policy, const std::vector<StoreOp>& ops,
                          int64_t quota) {
  xs::Store store(policy);
  store.set_node_quota(quota);
  return Transcript(store, ops, /*efforts=*/false);
}

// On mismatch, reports only the first diverging transcript line (the full
// transcripts run to hundreds of lines).
void ExpectTranscriptsEqual(const std::string& a, const std::string& b,
                            const char* what) {
  if (a == b) {
    return;
  }
  size_t line_start = 0;
  int line_no = 0;
  while (line_start < a.size() && line_start < b.size()) {
    size_t ea = a.find('\n', line_start);
    size_t eb = b.find('\n', line_start);
    std::string la = a.substr(line_start, ea - line_start);
    std::string lb = b.substr(line_start, eb - line_start);
    if (la != lb) {
      ADD_FAILURE() << what << ": first divergence at transcript line " << line_no
                    << "\n  a: " << la << "\n  b: " << lb;
      return;
    }
    line_start = ea + 1;
    ++line_no;
  }
  ADD_FAILURE() << what << ": one transcript is a strict prefix of the other";
}

class StorePolicyDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StorePolicyDifferentialTest, LegacyAndIndexedTranscriptsMatch) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::vector<StoreOp> ops = GenStoreOps(seed, 300);
  // A third of the seeds run with a tight per-domain node quota so the
  // QUOTA_EXCEEDED surface (including the commit pre-pass) is differential
  // too.
  int64_t quota = (seed % 3 == 0) ? 12 : 0;
  std::string legacy = ApplyStoreOps(xs::StorePolicy::kLegacy, ops, quota);
  std::string indexed = ApplyStoreOps(xs::StorePolicy::kIndexed, ops, quota);
  ExpectTranscriptsEqual(legacy, indexed, "legacy vs indexed");
  // Same-seed determinism, per policy: a second run must be byte-identical.
  ExpectTranscriptsEqual(legacy, ApplyStoreOps(xs::StorePolicy::kLegacy, ops, quota),
                         "legacy determinism");
  ExpectTranscriptsEqual(indexed, ApplyStoreOps(xs::StorePolicy::kIndexed, ops, quota),
                         "indexed determinism");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorePolicyDifferentialTest, ::testing::Range(1, 101));

// --- Effort oracle: counted charges vs the scans they stand for --------------
//
// Both policies share xs::Store's host structures, so the sweep above
// compares two charge schedules over one implementation. This sweep checks
// that implementation against an independent one: the scanning reference in
// tests/xenstore_scan_store.h, which runs every watch scan, name scan and
// removal sweep, derives node counts by walking the tree, never prunes its
// generation table and answers transactional reads by replaying the buffer
// onto a copy. On the same op streams, every transcript line — outcome,
// hits, counts and all six OpEffort fields — must match, under each policy.

class StoreEffortOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreEffortOracleTest, ChargesMatchTheScanningReference) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::vector<StoreOp> ops = GenStoreOps(seed, 300);
  int64_t quota = (seed % 3 == 0) ? 12 : 0;
  for (xs::StorePolicy policy : {xs::StorePolicy::kLegacy, xs::StorePolicy::kIndexed}) {
    xs::Store store(policy);
    store.set_node_quota(quota);
    xs_test::ScanStore reference(policy);
    reference.set_node_quota(quota);
    ExpectTranscriptsEqual(Transcript(reference, ops, /*efforts=*/true),
                           Transcript(store, ops, /*efforts=*/true),
                           xs::StorePolicyName(policy));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreEffortOracleTest, ::testing::Range(1, 101));

// --- Store permissions -----------------------------------------------------------

class StorePermissionTest : public ::testing::TestWithParam<int> {};

TEST_P(StorePermissionTest, GuestsCannotEscapeTheirSubtree) {
  hv::DomainId domid = GetParam();
  xs::Store store;
  std::string own = lv::StrFormat("/local/domain/%lld/data", (long long)domid);
  std::string other = lv::StrFormat("/local/domain/%lld/data", (long long)(domid + 1));
  EXPECT_TRUE(store.Write(own, "mine", domid).ok());
  EXPECT_EQ(store.Write(other, "attack", domid).code(), lv::ErrorCode::kPermissionDenied);
  EXPECT_EQ(store.Write("/local/domain/0/backend/vif", "attack", domid).code(),
            lv::ErrorCode::kPermissionDenied);
  EXPECT_EQ(store.Write("/tool/global", "attack", domid).code(),
            lv::ErrorCode::kPermissionDenied);
  // Dom0 can write anywhere, including the guest's tree.
  EXPECT_TRUE(store.Write(other, "legit", hv::kDom0).ok());
  // The guest can remove its own node but not the neighbor's.
  EXPECT_TRUE(store.Rm(own, xs::kNoTxn, nullptr, domid).ok());
  EXPECT_EQ(store.Rm(other, xs::kNoTxn, nullptr, domid).code(),
            lv::ErrorCode::kPermissionDenied);
}

INSTANTIATE_TEST_SUITE_P(DomainIds, StorePermissionTest, ::testing::Values(1, 7, 42, 999));

}  // namespace
