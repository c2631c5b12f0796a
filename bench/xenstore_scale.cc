// Head-to-head XenStore scale: the faithful legacy store vs the indexed
// fast path (StorePolicy, src/xenstore/policy.h) at fleet scale.
//
// Drives xenstored directly (no VM lifecycle) so the store is the only
// variable: each "domain create" session performs the store traffic a
// chaos create issues — the O(#domains) unique-name admission scan, device
// writes under /local/domain/<i>, a persistent frontend watch and one
// device-handshake transaction. Under the legacy policy the charged name
// scan and O(#watches) match scan reproduce the §4.2 superlinear
// creation-time curve; the indexed policy charges one probe for each and
// stays near-flat. The differential property suite (tests/property_test.cc)
// proves the two policies observably equivalent, so the gap measured here
// is pure mechanism cost, not behaviour drift. Both policies run on the
// same host structures, so the whole run takes about a second of host time.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/xenstore/daemon.h"
#include "src/xenstore/policy.h"

namespace {

constexpr int kDomains = 10000;

// The store traffic of one domain create. `ok` reports success because the
// coroutine is driven detached via Spawn.
sim::Co<void> CreateSession(sim::ExecCtx ctx, xs::XsClient* client, int i, bool& ok) {
  std::string base = lv::StrFormat("/local/domain/%d", i);
  if (!(co_await client->WriteUniqueName(ctx, i, lv::StrFormat("vm%d", i))).ok()) {
    co_return;
  }
  if (!(co_await client->Write(ctx, base + "/memory/target", "8192")).ok()) {
    co_return;
  }
  if (!(co_await client->Write(ctx, base + "/device/vif/0/state", "1")).ok()) {
    co_return;
  }
  // Persistent per-domain watch (the frontend watching for backend state
  // flips). These accumulate across the fleet and feed the legacy store's
  // O(#watches) scan on every later mutation.
  if (!(co_await client->Watch(ctx, base + "/device", "fe")).ok()) {
    co_return;
  }
  // Device handshake transaction (the batched-commit path when indexed).
  auto txn = co_await client->TxBegin(ctx);
  if (!txn.ok()) {
    co_return;
  }
  if (!(co_await client->Write(ctx, base + "/device/vif/0/state", "4", *txn)).ok()) {
    co_return;
  }
  if (!(co_await client->Write(ctx, base + "/device/vbd/0/state", "4", *txn)).ok()) {
    co_return;
  }
  if (!(co_await client->TxCommit(ctx, *txn)).ok()) {
    co_return;
  }
  ok = true;
}

std::vector<double> RunPolicy(xs::StorePolicy policy, int domains) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 2);
  // The daemon's embedded Store reads the thread-local policy at
  // construction, same as Dom0Services does for real hosts.
  xs::StorePolicyScope scope(policy);
  xs::Daemon daemon(&engine);
  daemon.Start(sim::ExecCtx{&cpu, 0, sim::kHostOwner});
  sim::ExecCtx ctx{&cpu, 1, sim::kHostOwner};

  // Clients stay alive so their watches persist, like real frontends.
  std::vector<std::unique_ptr<xs::XsClient>> clients;
  clients.reserve(domains);
  std::vector<double> per_create_ms;
  per_create_ms.reserve(domains);
  for (int i = 1; i <= domains; ++i) {
    clients.push_back(std::make_unique<xs::XsClient>(&engine, &daemon, i));
    xs::XsClient* client = clients.back().get();
    lv::TimePoint t0 = engine.now();
    bool ok = false;
    engine.Spawn(CreateSession(ctx, client, i, ok));
    engine.Run();
    if (!ok) {
      bench::FailRun(lv::StrFormat("%s create %d/%d failed",
                                   xs::StorePolicyName(policy), i, domains));
    }
    per_create_ms.push_back((engine.now() - t0).ms());
  }
  clients.clear();
  daemon.Stop();
  return per_create_ms;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "xenstore_scale");
  bench::Header("XenStore scale: legacy vs indexed",
                lv::StrFormat("store time per domain create, %d domains", kDomains),
                "xenstored driven directly; each create = unique-name scan + "
                "device writes + watch + handshake txn");
  bench::Report::Get().Config("domains", kDomains);

  std::vector<double> legacy = RunPolicy(xs::StorePolicy::kLegacy, kDomains);
  std::vector<double> indexed = RunPolicy(xs::StorePolicy::kIndexed, kDomains);

  std::printf("%-8s %14s %14s\n", "n", "legacy_ms", "indexed_ms");
  for (int i = 1; i <= kDomains; ++i) {
    bench::Point("legacy", {{"n", double(i)}, {"create_ms", legacy[i - 1]}});
    bench::Point("indexed", {{"n", double(i)}, {"create_ms", indexed[i - 1]}});
    if (lv::SampleRow(i, kDomains)) {
      std::printf("%-8d %14.3f %14.3f\n", i, legacy[i - 1], indexed[i - 1]);
    }
  }
  bench::Footnote(lv::StrFormat(
      "legacy grows with n (name scan + watch scan); indexed stays near-flat "
      "(last create: %.3f ms vs %.3f ms)",
      legacy[kDomains - 1], indexed[kDomains - 1]));
  bench::Report::Get().Write();
  return 0;
}
