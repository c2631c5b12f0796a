// xenstored: the store daemon process running in Dom0.
//
// A single-threaded server (like oxenstored) consuming requests from a ring;
// we model the ring as a channel and the process as one coroutine pinned to
// a Dom0 core. Serialization of all store traffic through this one loop is
// itself a scalability bottleneck the paper measures.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/metrics/metrics.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/xenstore/costs.h"
#include "src/xenstore/store.h"

namespace xs {

enum class OpType {
  kRead,
  kWrite,
  kRm,
  kWatch,
  kUnwatch,
  kTxBegin,
  kTxCommit,
  kTxAbort,
  kWriteUniqueName,  // write /local/domain/<id>/name with O(n) admission scan
  kReleaseClient,    // drop a client's watches (domain death)
  kRestart,          // fault injection: daemon dies and comes back after a downtime
  kStop,             // shuts the daemon down (testing/teardown)
};

struct Response {
  lv::ErrorCode code = lv::ErrorCode::kOk;
  std::string error_message;
  std::string value;  // read result / txn id as decimal

  bool ok() const { return code == lv::ErrorCode::kOk; }
};

struct Request {
  ClientId client = 0;
  hv::DomainId domid = hv::kDom0;
  OpType op = OpType::kRead;
  std::string path;
  std::string value;
  std::string token;
  TxnId txn = kNoTxn;
  lv::Duration downtime{};  // kRestart only: how long the daemon stays down
  // Shares its state with the caller's copy, which awaits the response.
  std::optional<sim::SharedFuture<Response>> reply;
};

// A fired watch delivered to a client.
struct WatchEvent {
  std::string watch_path;
  std::string token;
  std::string fired_path;
};

class Daemon {
 public:
  struct Stats {
    int64_t ops = 0;
    int64_t conflicts = 0;
    int64_t rotations = 0;
    int64_t watch_events = 0;
    int64_t restarts = 0;
  };

  Daemon(sim::Engine* engine, Costs costs = Costs());
  ~Daemon();

  // Starts the daemon loop on the given Dom0 execution context.
  void Start(sim::ExecCtx daemon_ctx);
  // Posts a stop request and drains the engine until the loop frame has
  // completed, so no queued event still references it.
  void Stop();
  bool running() const { return running_; }

  // Fault injection: the daemon "crashes" and comes back `downtime` later.
  // Requests queued behind the restart fail with kUnavailable; on recovery
  // every registered watch re-fires once (watch replay), exactly like a real
  // xenstored restart where clients re-see their watch registrations.
  void InjectRestart(lv::Duration downtime);

  // Registers a client; fired watches are pushed into `events` (owned by the
  // client, must outlive the registration).
  ClientId RegisterClient(sim::Channel<WatchEvent>* events);
  void UnregisterClient(ClientId id);

  // Enqueues a request (the client-side library is XsClient below). When the
  // daemon is not running the request fails immediately with kUnavailable so
  // callers error out instead of parking forever on a dead ring.
  void Submit(Request req);

  Store& store() { return store_; }
  Stats stats() const {
    return {.ops = ops_.value(),
            .conflicts = conflicts_.value(),
            .rotations = rotations_.value(),
            .watch_events = watch_events_.value(),
            .restarts = restarts_.value()};
  }
  const Costs& costs() const { return costs_; }
  // Cost-model override hook for ablation studies.
  Costs* mutable_costs() { return &costs_; }
  size_t queue_depth() const { return queue_.size(); }

 private:
  sim::Co<void> Run(sim::ExecCtx ctx);
  sim::Co<void> Process(sim::ExecCtx ctx, Request req);
  // Handles a kRestart request inside the daemon loop: fails queued requests,
  // sleeps the downtime, then replays every registered watch.
  sim::Co<void> Restart(sim::ExecCtx ctx, Request req);
  // The daemon-side cost of the store's last operation, from its effort
  // counters.
  lv::Duration EffortCost() const;
  // Moves each hit into the watching client's event channel.
  void DeliverWatchHits(std::vector<WatchHit> hits);

  sim::Engine* engine_;
  Costs costs_;
  Store store_;
  sim::Channel<Request> queue_;
  std::unordered_map<ClientId, sim::Channel<WatchEvent>*> clients_;
  ClientId next_client_ = 1;
  int64_t log_lines_ = 0;
  bool running_ = false;
  metrics::Tally ops_{"xenstore.daemon.ops"};
  metrics::Tally conflicts_{"xenstore.daemon.tx_conflicts"};
  metrics::Tally rotations_{"xenstore.daemon.log_rotations"};
  metrics::Tally watch_events_{"xenstore.daemon.watch_events"};
  metrics::Tally restarts_{"xenstore.daemon.restarts"};
  // Owner-held loop frame (own-and-drain teardown, see Stop()). Declared last
  // so the frame dies before any member it references.
  sim::Co<void> loop_;
};

// Client-side library handle (libxs / xenbus). One per consumer; methods are
// coroutines charging client-side protocol costs to the caller's ExecCtx.
class XsClient {
 public:
  XsClient(sim::Engine* engine, Daemon* daemon, hv::DomainId domid);
  ~XsClient();
  XsClient(const XsClient&) = delete;
  XsClient& operator=(const XsClient&) = delete;

  ClientId id() const { return id_; }
  hv::DomainId domid() const { return domid_; }

  // The hot verbs take their strings by value and move them into the
  // request.
  sim::Co<lv::Result<std::string>> Read(sim::ExecCtx ctx, std::string path,
                                        TxnId txn = kNoTxn);
  sim::Co<lv::Status> Write(sim::ExecCtx ctx, std::string path, std::string value,
                            TxnId txn = kNoTxn);
  sim::Co<lv::Status> Rm(sim::ExecCtx ctx, std::string path, TxnId txn = kNoTxn);
  sim::Co<lv::Status> Watch(sim::ExecCtx ctx, const std::string& path,
                            const std::string& token);
  sim::Co<lv::Status> Unwatch(sim::ExecCtx ctx, const std::string& path,
                              const std::string& token);
  sim::Co<lv::Result<TxnId>> TxBegin(sim::ExecCtx ctx);
  sim::Co<lv::Status> TxCommit(sim::ExecCtx ctx, TxnId txn);
  sim::Co<lv::Status> TxAbort(sim::ExecCtx ctx, TxnId txn);
  // Writes /local/domain/<domid>/name after the O(n) uniqueness scan.
  sim::Co<lv::Status> WriteUniqueName(sim::ExecCtx ctx, hv::DomainId domid,
                                      const std::string& name);

  // Blocks until the next watch event for this client arrives.
  sim::Channel<WatchEvent>::Awaiter NextWatchEvent() { return events_.Recv(); }
  size_t pending_watch_events() const { return events_.size(); }

  // Delivers a synthetic stop event (token kStopToken) to unblock a watcher
  // loop during teardown.
  static constexpr const char* kStopToken = "__stop__";
  void InjectShutdownEvent() { events_.Send(WatchEvent{"", kStopToken, ""}); }

 private:
  sim::Co<Response> Call(sim::ExecCtx ctx, Request req);

  sim::Engine* engine_;
  Daemon* daemon_;
  hv::DomainId domid_;
  ClientId id_;
  sim::Channel<WatchEvent> events_;
};

// Runs `body` inside a transaction, retrying on CONFLICT (EAGAIN) like every
// real XenStore client must. `body` receives the transaction id and performs
// its reads/writes through it.
sim::Co<lv::Status> RunTransaction(sim::ExecCtx ctx, XsClient* client, int max_retries,
                                   std::function<sim::Co<lv::Status>(TxnId)> body);

}  // namespace xs
