#include "src/xenstore/daemon.h"

#include <cstdlib>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace xs {

namespace {
constexpr const char* kMod = "xenstored";

// Static span names per op, so tracing does no formatting on the hot path.
// Client-side spans cover the whole round trip (marshal -> daemon -> reply);
// daemon-side spans cover just the serialized processing.
const char* ClientSpanName(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "xs.read";
    case OpType::kWrite:
      return "xs.write";
    case OpType::kMkdir:
      return "xs.mkdir";
    case OpType::kRm:
      return "xs.rm";
    case OpType::kDirectory:
      return "xs.directory";
    case OpType::kWatch:
      return "xs.watch";
    case OpType::kUnwatch:
      return "xs.unwatch";
    case OpType::kTxBegin:
      return "xs.tx_begin";
    case OpType::kTxCommit:
      return "xs.tx_commit";
    case OpType::kTxAbort:
      return "xs.tx_abort";
    case OpType::kWriteUniqueName:
      return "xs.write_unique_name";
    case OpType::kReleaseClient:
      return "xs.release_client";
    case OpType::kRestart:
      return "xs.restart";
    case OpType::kStop:
      return "xs.stop";
  }
  return "xs.?";
}

const char* DaemonSpanName(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "xsd.read";
    case OpType::kWrite:
      return "xsd.write";
    case OpType::kMkdir:
      return "xsd.mkdir";
    case OpType::kRm:
      return "xsd.rm";
    case OpType::kDirectory:
      return "xsd.directory";
    case OpType::kWatch:
      return "xsd.watch";
    case OpType::kUnwatch:
      return "xsd.unwatch";
    case OpType::kTxBegin:
      return "xsd.tx_begin";
    case OpType::kTxCommit:
      return "xsd.tx_commit";
    case OpType::kTxAbort:
      return "xsd.tx_abort";
    case OpType::kWriteUniqueName:
      return "xsd.write_unique_name";
    case OpType::kReleaseClient:
      return "xsd.release_client";
    case OpType::kRestart:
      return "xsd.restart";
    case OpType::kStop:
      return "xsd.stop";
  }
  return "xsd.?";
}

// Per-verb op counter, resolved to a cached handle per case (same shape as
// the span-name tables above: no formatting or map lookups after first use).
metrics::Counter& OpCounter(OpType op) {
  switch (op) {
    case OpType::kRead: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.read");
      return c;
    }
    case OpType::kWrite: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.write");
      return c;
    }
    case OpType::kMkdir: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.mkdir");
      return c;
    }
    case OpType::kRm: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.rm");
      return c;
    }
    case OpType::kDirectory: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.directory");
      return c;
    }
    case OpType::kWatch: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.watch");
      return c;
    }
    case OpType::kUnwatch: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.unwatch");
      return c;
    }
    case OpType::kTxBegin: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.tx_begin");
      return c;
    }
    case OpType::kTxCommit: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.tx_commit");
      return c;
    }
    case OpType::kTxAbort: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.tx_abort");
      return c;
    }
    case OpType::kWriteUniqueName: {
      static metrics::Counter& c =
          metrics::GetCounter("xenstore.daemon.ops.write_unique_name");
      return c;
    }
    case OpType::kReleaseClient: {
      static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.release_client");
      return c;
    }
    case OpType::kRestart:
    case OpType::kStop:
      break;
  }
  static metrics::Counter& c = metrics::GetCounter("xenstore.daemon.ops.other");
  return c;
}

}  // namespace

Daemon::Daemon(sim::Engine* engine, Costs costs)
    : engine_(engine), costs_(costs), queue_(engine) {}

Daemon::~Daemon() { Stop(); }

void Daemon::Start(sim::ExecCtx daemon_ctx) {
  LV_CHECK_MSG(!running_, "daemon already running");
  running_ = true;
  // The daemon gets its own trace row: all request processing is serialized
  // through this one coroutine, so its spans nest trivially. The frame is
  // owner-held (not detached) so Stop() can drain it deterministically.
  daemon_ctx = daemon_ctx.OnTrack(trace::Tracer::Get().NewTrack("xenstored"));
  loop_ = Run(daemon_ctx);
  loop_.Start();
}

void Daemon::Stop() {
  if (!running_) {
    return;
  }
  Request req;
  req.op = OpType::kStop;
  Submit(std::move(req));
  // Drain: step the engine until the loop frame completes, so no queued
  // event still references it. Resuming the frame after this daemon dies
  // would touch freed members (the write-after-free ROADMAP item 6 names).
  // Bounded: the kStop just submitted leads the loop straight out once any
  // in-flight request finishes.
  while (!loop_.done() && engine_->Step()) {
  }
}

void Daemon::InjectRestart(lv::Duration downtime) {
  if (!running_) {
    return;
  }
  Request req;
  req.op = OpType::kRestart;
  req.downtime = downtime;
  Submit(std::move(req));
}

void Daemon::Submit(Request req) {
  if (!running_) {
    if (req.reply != nullptr) {
      Response resp;
      resp.code = lv::ErrorCode::kUnavailable;
      resp.error_message = "xenstored not running";
      req.reply->Set(std::move(resp));
    }
    return;
  }
  queue_.Send(std::move(req));
}

ClientId Daemon::RegisterClient(hv::DomainId domid, sim::Channel<WatchEvent>* events) {
  (void)domid;
  ClientId id = next_client_++;
  clients_.emplace(id, events);
  return id;
}

void Daemon::UnregisterClient(ClientId id) {
  clients_.erase(id);
  store_.RemoveClientWatches(id);
}

sim::Co<void> Daemon::Run(sim::ExecCtx ctx) {
  while (true) {
    Request req = co_await queue_.Recv();
    if (req.op == OpType::kStop) {
      break;
    }
    if (req.op == OpType::kRestart) {
      co_await Restart(ctx, std::move(req));
      continue;
    }
    co_await Process(ctx, std::move(req));
  }
  running_ = false;
}

sim::Co<void> Daemon::Restart(sim::ExecCtx ctx, Request req) {
  restarts_.Inc();
  trace::Span span(ctx.track, "xsd.restart");
  LV_DEBUG(kMod, "restarting (down %lld ns)", (long long)req.downtime.ns());
  // The dying daemon drops its ring: every queued request fails like a
  // connection reset. A queued kStop survives the restart; back-to-back
  // restarts coalesce.
  bool stop_pending = false;
  while (std::optional<Request> pending = queue_.TryRecv()) {
    if (pending->op == OpType::kStop) {
      stop_pending = true;
      continue;
    }
    if (pending->op == OpType::kRestart) {
      continue;
    }
    if (pending->reply != nullptr) {
      Response resp;
      resp.code = lv::ErrorCode::kUnavailable;
      resp.error_message = "xenstored restarting";
      pending->reply->Set(std::move(resp));
    }
  }
  co_await engine_->Sleep(req.downtime);
  // Watch replay: on reconnect each registration fires once, so watch-driven
  // state machines re-evaluate instead of waiting for a write they missed.
  std::vector<WatchHit> hits = store_.ReplayWatches();
  if (!hits.empty()) {
    co_await ctx.Work(costs_.per_watch_fire * static_cast<double>(hits.size()));
    DeliverWatchHits(hits);
  }
  if (stop_pending) {
    Request stop;
    stop.op = OpType::kStop;
    Submit(std::move(stop));
  }
  if (req.reply != nullptr) {
    req.reply->Set(Response{});
  }
}

sim::Co<void> Daemon::ChargeEffort(sim::ExecCtx ctx) {
  const OpEffort& e = store_.last_effort();
  lv::Duration cost = costs_.per_node * static_cast<double>(e.nodes_visited) +
                      costs_.per_watch_check * static_cast<double>(e.watch_checks) +
                      costs_.per_name_check * static_cast<double>(e.names_compared) +
                      costs_.per_child * static_cast<double>(e.children_listed) +
                      costs_.per_byte * static_cast<double>(e.value_bytes);
  if (cost.ns() > 0) {
    co_await ctx.Work(cost);
  }
}

sim::Co<void> Daemon::AppendAccessLog(sim::ExecCtx ctx) {
  if (!costs_.logging_enabled) {
    co_return;
  }
  co_await ctx.Work(costs_.log_append);
  ++log_lines_;
  if (log_lines_ >= costs_.log_rotate_lines) {
    log_lines_ = 0;
    rotations_.Inc();
    LV_DEBUG(kMod, "rotating %d access logs", costs_.log_files);
    co_await ctx.Work(costs_.log_rotate_per_file * static_cast<double>(costs_.log_files));
  }
}

void Daemon::DeliverWatchHits(const std::vector<WatchHit>& hits) {
  for (const WatchHit& hit : hits) {
    auto it = clients_.find(hit.client);
    if (it == clients_.end()) {
      continue;  // Watcher died; drop the event like real xenstored.
    }
    watch_events_.Inc();
    it->second->Send(WatchEvent{hit.watch_path, hit.token, hit.fired_path});
  }
}

sim::Co<void> Daemon::Process(sim::ExecCtx ctx, Request req) {
  ops_.Inc();
  trace::Span span(ctx.track, DaemonSpanName(req.op));
  OpCounter(req.op).Inc();
  // Request arrival: daemon-side interrupts + base processing.
  co_await ctx.Work(costs_.soft_interrupt * static_cast<double>(costs_.daemon_interrupts) +
                    costs_.daemon_base);
  co_await AppendAccessLog(ctx);

  Response resp;
  std::vector<WatchHit> hits;
  switch (req.op) {
    case OpType::kRead: {
      auto r = store_.Read(req.path, req.txn);
      co_await ChargeEffort(ctx);
      if (r.ok()) {
        resp.value = *r;
      } else {
        resp.code = r.error().code;
        resp.error_message = r.error().message;
      }
      break;
    }
    case OpType::kWrite:
    case OpType::kMkdir: {
      lv::Status s = store_.Write(req.path, req.value, req.domid, req.txn, &hits);
      co_await ChargeEffort(ctx);
      if (!s.ok()) {
        resp.code = s.error().code;
        resp.error_message = s.error().message;
      }
      break;
    }
    case OpType::kRm: {
      lv::Status s = store_.Rm(req.path, req.txn, &hits, req.domid);
      co_await ChargeEffort(ctx);
      if (!s.ok()) {
        resp.code = s.error().code;
        resp.error_message = s.error().message;
      }
      break;
    }
    case OpType::kDirectory: {
      auto r = store_.Directory(req.path, req.txn);
      co_await ChargeEffort(ctx);
      if (r.ok()) {
        resp.entries = std::move(*r);
      } else {
        resp.code = r.error().code;
        resp.error_message = r.error().message;
      }
      break;
    }
    case OpType::kWatch: {
      WatchHit hit = store_.AddWatch(req.client, req.path, req.token);
      co_await ChargeEffort(ctx);
      hits.push_back(hit);  // Watches fire once immediately on registration.
      break;
    }
    case OpType::kUnwatch: {
      store_.RemoveWatch(req.client, req.path, req.token);
      co_await ChargeEffort(ctx);
      break;
    }
    case OpType::kTxBegin: {
      co_await ctx.Work(costs_.txn_overhead);
      TxnId id = store_.TxBegin();
      resp.value = lv::StrFormat("%lld", (long long)id);
      break;
    }
    case OpType::kTxCommit:
    case OpType::kTxAbort: {
      co_await ctx.Work(costs_.txn_overhead);
      lv::Status s = store_.TxCommit(req.txn, req.op == OpType::kTxAbort, &hits);
      co_await ChargeEffort(ctx);
      if (!s.ok()) {
        resp.code = s.error().code;
        resp.error_message = s.error().message;
        if (s.code() == lv::ErrorCode::kConflict) {
          conflicts_.Inc();
        }
      }
      break;
    }
    case OpType::kWriteUniqueName: {
      lv::Status unique = store_.CheckUniqueName(req.value);
      co_await ChargeEffort(ctx);
      if (!unique.ok()) {
        resp.code = unique.error().code;
        resp.error_message = unique.error().message;
        break;
      }
      lv::Status s = store_.Write(req.path, req.value, req.domid, kNoTxn, &hits);
      co_await ChargeEffort(ctx);
      if (!s.ok()) {
        resp.code = s.error().code;
        resp.error_message = s.error().message;
      }
      break;
    }
    case OpType::kReleaseClient: {
      store_.RemoveClientWatches(req.client);
      co_await ChargeEffort(ctx);
      break;
    }
    case OpType::kRestart:
    case OpType::kStop:
      LV_UNREACHABLE();  // Handled in Run(), never dispatched here.
  }

  // Quota rejections are worth a post-mortem breadcrumb: which domain hit
  // its node budget, and on which verb.
  if (resp.code == lv::ErrorCode::kQuotaExceeded) {
    quota_rejects_.Inc();
    obs::FlightRecorder::Get().Record(obs_node_, {}, "xenstore", "quota.reject",
                                      false, static_cast<int64_t>(req.domid));
  }

  // Deliver fired watches (one message + interrupt per event).
  if (!hits.empty()) {
    co_await ctx.Work(costs_.per_watch_fire * static_cast<double>(hits.size()));
    DeliverWatchHits(hits);
  }

  if (req.reply != nullptr) {
    req.reply->Set(std::move(resp));
  }
}

// --- XsClient ----------------------------------------------------------------

XsClient::XsClient(sim::Engine* engine, Daemon* daemon, hv::DomainId domid)
    : engine_(engine), daemon_(daemon), domid_(domid), events_(engine) {
  id_ = daemon_->RegisterClient(domid, &events_);
}

XsClient::~XsClient() { daemon_->UnregisterClient(id_); }

sim::Co<Response> XsClient::Call(sim::ExecCtx ctx, Request req) {
  trace::Span span(ctx.track, ClientSpanName(req.op));
  const Costs& costs = daemon_->costs();
  req.client = id_;
  req.domid = domid_;
  req.reply = std::make_shared<sim::SharedFuture<Response>>(engine_);
  // Marshal + send interrupt on the caller's core.
  co_await ctx.Work(costs.client_marshal + costs.soft_interrupt);
  auto reply = req.reply;
  daemon_->Submit(std::move(req));
  Response resp = co_await reply->Get();
  // Response-delivery interrupt(s) + unmarshal.
  co_await ctx.Work(costs.soft_interrupt *
                        static_cast<double>(costs.client_interrupts - 1) +
                    costs.client_marshal);
  co_return resp;
}

namespace {

lv::Status ToStatus(const Response& resp) {
  if (resp.ok()) {
    return lv::Status::Ok();
  }
  return lv::Err(resp.code, resp.error_message);
}

}  // namespace

sim::Co<lv::Result<std::string>> XsClient::Read(sim::ExecCtx ctx, const std::string& path,
                                                TxnId txn) {
  Request req;
  req.op = OpType::kRead;
  req.path = path;
  req.txn = txn;
  Response resp = co_await Call(ctx, std::move(req));
  if (!resp.ok()) {
    co_return lv::Err(resp.code, resp.error_message);
  }
  co_return resp.value;
}

sim::Co<lv::Status> XsClient::Write(sim::ExecCtx ctx, const std::string& path,
                                    const std::string& value, TxnId txn) {
  Request req;
  req.op = OpType::kWrite;
  req.path = path;
  req.value = value;
  req.txn = txn;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Status> XsClient::Mkdir(sim::ExecCtx ctx, const std::string& path, TxnId txn) {
  Request req;
  req.op = OpType::kMkdir;
  req.path = path;
  req.txn = txn;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Status> XsClient::Rm(sim::ExecCtx ctx, const std::string& path, TxnId txn) {
  Request req;
  req.op = OpType::kRm;
  req.path = path;
  req.txn = txn;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Result<std::vector<std::string>>> XsClient::Directory(sim::ExecCtx ctx,
                                                                  const std::string& path,
                                                                  TxnId txn) {
  Request req;
  req.op = OpType::kDirectory;
  req.path = path;
  req.txn = txn;
  Response resp = co_await Call(ctx, std::move(req));
  if (!resp.ok()) {
    co_return lv::Err(resp.code, resp.error_message);
  }
  co_return std::move(resp.entries);
}

sim::Co<lv::Status> XsClient::Watch(sim::ExecCtx ctx, const std::string& path,
                                    const std::string& token) {
  Request req;
  req.op = OpType::kWatch;
  req.path = path;
  req.token = token;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Status> XsClient::Unwatch(sim::ExecCtx ctx, const std::string& path,
                                      const std::string& token) {
  Request req;
  req.op = OpType::kUnwatch;
  req.path = path;
  req.token = token;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Result<TxnId>> XsClient::TxBegin(sim::ExecCtx ctx) {
  Request req;
  req.op = OpType::kTxBegin;
  Response resp = co_await Call(ctx, std::move(req));
  if (!resp.ok()) {
    co_return lv::Err(resp.code, resp.error_message);
  }
  co_return static_cast<TxnId>(std::atoll(resp.value.c_str()));
}

sim::Co<lv::Status> XsClient::TxCommit(sim::ExecCtx ctx, TxnId txn) {
  Request req;
  req.op = OpType::kTxCommit;
  req.txn = txn;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Status> XsClient::TxAbort(sim::ExecCtx ctx, TxnId txn) {
  Request req;
  req.op = OpType::kTxAbort;
  req.txn = txn;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Status> XsClient::WriteUniqueName(sim::ExecCtx ctx, hv::DomainId domid,
                                              const std::string& name) {
  Request req;
  req.op = OpType::kWriteUniqueName;
  req.path = lv::StrFormat("/local/domain/%lld/name", (long long)domid);
  req.value = name;
  co_return ToStatus(co_await Call(ctx, std::move(req)));
}

sim::Co<lv::Status> RunTransaction(sim::ExecCtx ctx, XsClient* client, int max_retries,
                                   std::function<sim::Co<lv::Status>(TxnId)> body) {
  lv::Status last = lv::Err(lv::ErrorCode::kConflict, "not attempted");
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    auto txn = co_await client->TxBegin(ctx);
    if (!txn.ok()) {
      co_return txn.error();
    }
    lv::Status body_status = co_await body(*txn);
    if (!body_status.ok()) {
      (void)co_await client->TxAbort(ctx, *txn);
      co_return body_status;
    }
    last = co_await client->TxCommit(ctx, *txn);
    if (last.ok() || last.code() != lv::ErrorCode::kConflict) {
      co_return last;
    }
    // Conflict: pay the whole transaction again, like a real client.
    static metrics::Counter& retries = metrics::GetCounter("xenstore.client.tx_retries");
    retries.Inc();
  }
  co_return last;
}

}  // namespace xs
