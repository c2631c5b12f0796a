#include "src/devices/backend.h"

#include <cstdlib>
#include <cstring>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/metrics/metrics.h"

namespace xdev {

namespace {
// Simulated latency from the toolstack announcing a device to the back-end
// being attached (ready + hotplugged), across both the XenStore and noxs
// paths.
metrics::Histogram& AttachHistogram() {
  static metrics::Histogram& h = metrics::GetHistogram("devices.backend.attach_ms", "ms");
  return h;
}
}  // namespace

namespace {
constexpr const char* kMod = "backend";
constexpr const char* kBackendWatchToken = "be-dir";
constexpr const char* kFrontendTokenPrefix = "fe-";
}  // namespace

const char* XenbusStateName(XenbusState s) {
  switch (s) {
    case XenbusState::kUnknown:
      return "Unknown";
    case XenbusState::kInitialising:
      return "Initialising";
    case XenbusState::kInitWait:
      return "InitWait";
    case XenbusState::kInitialised:
      return "Initialised";
    case XenbusState::kConnected:
      return "Connected";
    case XenbusState::kClosing:
      return "Closing";
    case XenbusState::kClosed:
      return "Closed";
  }
  return "?";
}

std::string XenbusStateValue(XenbusState s) {
  return lv::StrFormat("%d", static_cast<int>(s));
}

std::string VifName(hv::DomainId domid, int devid) {
  return lv::StrFormat("vif%lld.%d", (long long)domid, devid);
}

BackendDriver::BackendDriver(sim::Engine* engine, hv::Hypervisor* hv, hv::DeviceType type,
                             ControlPages* control_pages, xnet::Switch* sw,
                             const Costs* costs)
    : engine_(engine),
      hv_(hv),
      type_(type),
      control_pages_(control_pages),
      switch_(sw),
      costs_(costs) {}

const char* BackendDriver::Kind() const {
  return type_ == hv::DeviceType::kNet ? "vif" : "vbd";
}

std::string BackendDriver::BackendDir(hv::DomainId domid) const {
  return lv::StrFormat("/local/domain/0/backend/%s/%lld/0", Kind(), (long long)domid);
}

std::string BackendDriver::FrontendDir(hv::DomainId domid) const {
  return lv::StrFormat("/local/domain/%lld/device/%s/0", (long long)domid, Kind());
}

BackendDriver::Instance& BackendDriver::GetOrCreate(hv::DomainId domid) {
  auto it = instances_.find(domid);
  if (it == instances_.end()) {
    Instance inst;
    inst.domid = domid;
    inst.ready = std::make_unique<sim::OneShotEvent>(engine_);
    inst.connected = std::make_unique<sim::OneShotEvent>(engine_);
    inst.closed = std::make_unique<sim::OneShotEvent>(engine_);
    it = instances_.emplace(domid, std::move(inst)).first;
  }
  return it->second;
}

bool BackendDriver::IsConnected(hv::DomainId domid) const {
  auto it = instances_.find(domid);
  return it != instances_.end() &&
         it->second.backend_state == XenbusState::kConnected &&
         it->second.frontend_state == XenbusState::kConnected;
}

sim::Co<void> BackendDriver::WaitConnected(hv::DomainId domid) {
  co_await GetOrCreate(domid).connected->Wait();
}

void BackendDriver::SetGuestRx(hv::DomainId domid,
                               std::function<void(const xnet::Packet&)> rx) {
  GetOrCreate(domid).guest_rx = std::move(rx);
}

sim::Co<void> BackendDriver::DoHotplug(sim::ExecCtx ctx, HotplugRunner* runner,
                                       hv::DomainId domid) {
  co_await runner->Setup(ctx, type_);
  Instance& inst = GetOrCreate(domid);
  inst.hotplugged = true;
  if (type_ == hv::DeviceType::kNet && switch_ != nullptr) {
    co_await ctx.Work(switch_->costs().port_update);
    (void)switch_->AddPort(VifName(domid, inst.devid), [this, domid](const xnet::Packet& p) {
      auto it = instances_.find(domid);
      if (it != instances_.end() && it->second.guest_rx) {
        it->second.guest_rx(p);
      }
    });
  }
}

sim::Co<void> BackendDriver::UndoHotplug(sim::ExecCtx ctx, HotplugRunner* runner,
                                         hv::DomainId domid) {
  Instance& inst = GetOrCreate(domid);
  if (!inst.hotplugged) {
    co_return;
  }
  co_await runner->Teardown(ctx, type_);
  inst.hotplugged = false;
  if (type_ == hv::DeviceType::kNet && switch_ != nullptr) {
    co_await ctx.Work(switch_->costs().port_update);
    (void)switch_->RemovePort(VifName(domid, inst.devid));
  }
}

sim::Co<void> BackendDriver::ReleaseResources(sim::ExecCtx ctx, Instance& inst) {
  co_await ctx.Work(costs_->backend_teardown);
  if (inst.event_channel != hv::kInvalidPort) {
    (void)hv_->event_channels().Close(inst.event_channel);
    inst.event_channel = hv::kInvalidPort;
  }
  if (inst.grant_ref != hv::kInvalidGrant) {
    if (hv_->grant_table().IsMapped(inst.grant_ref)) {
      (void)hv_->grant_table().Unmap(inst.domid, inst.grant_ref);
    }
    (void)hv_->grant_table().Revoke(inst.grant_ref);
    control_pages_->Remove(inst.grant_ref);
    inst.grant_ref = hv::kInvalidGrant;
  }
}

// --- XenStore path -----------------------------------------------------------

void BackendDriver::StartXsWatcher(xs::Daemon* store, sim::ExecCtx backend_ctx) {
  LV_CHECK_MSG(!watcher_running_, "watcher already running");
  xs_client_ = std::make_unique<xs::XsClient>(engine_, store, hv::kDom0);
  backend_ctx_ = backend_ctx;
  watcher_running_ = true;
  watcher_loop_ = XsWatcherLoop(backend_ctx);
  watcher_loop_.Start();
}

void BackendDriver::StopXsWatcher() {
  if (!watcher_running_ || !xs_client_) {
    return;
  }
  watcher_running_ = false;
  xs_client_->InjectShutdownEvent();
  // Drain: step the engine until the watcher frame completes so no queued
  // wakeup still references it (same contract as ChaosDaemon::Stop).
  while (!watcher_loop_.done() && engine_->Step()) {
  }
}

sim::Co<void> BackendDriver::XsWatcherLoop(sim::ExecCtx ctx) {
  // The back-end registers a watch on its directory; the toolstack writing
  // there announces a new device (paper Fig. 7a, step 1).
  std::string watch_dir = lv::StrFormat("/local/domain/0/backend/%s", Kind());
  (void)co_await xs_client_->Watch(ctx, watch_dir, kBackendWatchToken);
  while (true) {
    xs::WatchEvent ev = co_await xs_client_->NextWatchEvent();
    if (ev.token == xs::XsClient::kStopToken) {
      break;
    }
    std::vector<std::string> segs = lv::Split(ev.fired_path, '/');
    if (ev.token == kBackendWatchToken) {
      // local/domain/0/backend/<kind>/<domid>/<devid>/<field>
      if (segs.size() < 8 || segs[7] != "state") {
        continue;
      }
      hv::DomainId domid = std::atoll(segs[5].c_str());
      auto state = co_await xs_client_->Read(ctx, ev.fired_path);
      if (!state.ok()) {
        continue;  // Entry vanished (device being torn down).
      }
      Instance& inst = GetOrCreate(domid);
      if (*state == XenbusStateValue(XenbusState::kInitialising) &&
          inst.backend_state == XenbusState::kInitialising && !inst.ready->triggered()) {
        co_await XsBackendInit(ctx, domid);
      } else if (*state == XenbusStateValue(XenbusState::kClosing)) {
        co_await XsBackendClose(ctx, domid);
      }
    } else if (lv::HasPrefix(ev.token, kFrontendTokenPrefix)) {
      hv::DomainId domid = std::atoll(ev.token.c_str() + strlen(kFrontendTokenPrefix));
      auto it = instances_.find(domid);
      if (it == instances_.end()) {
        continue;
      }
      auto state = co_await xs_client_->Read(ctx, ev.fired_path);
      if (!state.ok()) {
        continue;
      }
      if (*state == XenbusStateValue(XenbusState::kConnected)) {
        co_await XsBackendOnFrontendConnected(ctx, domid);
      }
    }
  }
}

sim::Co<void> BackendDriver::XsBackendInit(sim::ExecCtx ctx, hv::DomainId domid) {
  Instance& inst = GetOrCreate(domid);
  co_await ctx.Work(costs_->backend_init);
  // Paper Fig. 7a step 2: back-end assigns event channel + grant reference
  // and writes them back to the store.
  inst.event_channel = hv_->event_channels().Alloc(hv::kDom0, domid);
  inst.grant_ref = hv_->grant_table().Grant(hv::kDom0, domid);
  std::string be = BackendDir(domid);
  (void)co_await xs_client_->Write(ctx, be + "/event-channel",
                                   lv::StrFormat("%lld", (long long)inst.event_channel));
  (void)co_await xs_client_->Write(ctx, be + "/ring-ref",
                                   lv::StrFormat("%lld", (long long)inst.grant_ref));
  inst.backend_state = XenbusState::kInitWait;
  (void)co_await xs_client_->Write(ctx, be + "/state",
                                   XenbusStateValue(XenbusState::kInitWait));
  // Watch the front-end's state to complete the handshake later.
  (void)co_await xs_client_->Watch(ctx, FrontendDir(domid) + "/state",
                                   lv::StrFormat("%s%lld", kFrontendTokenPrefix,
                                                 (long long)domid));
  // udev event -> xendevd (chaos+XS mode). Under xl the toolstack runs the
  // hotplug script itself.
  if (udev_hotplug_ != nullptr) {
    engine_->Spawn(DoHotplug(backend_ctx_, udev_hotplug_, domid));
  }
  inst.ready->Trigger();
  LV_DEBUG(kMod, "%s backend for dom%lld ready", Kind(), (long long)domid);
}

sim::Co<void> BackendDriver::XsBackendOnFrontendConnected(sim::ExecCtx ctx,
                                                          hv::DomainId domid) {
  Instance& inst = GetOrCreate(domid);
  inst.frontend_state = XenbusState::kConnected;
  inst.backend_state = XenbusState::kConnected;
  (void)co_await xs_client_->Write(ctx, BackendDir(domid) + "/state",
                                   XenbusStateValue(XenbusState::kConnected));
  inst.connected->Trigger();
}

sim::Co<void> BackendDriver::XsBackendClose(sim::ExecCtx ctx, hv::DomainId domid) {
  auto it = instances_.find(domid);
  if (it == instances_.end()) {
    co_return;
  }
  Instance& inst = it->second;
  if (inst.backend_state == XenbusState::kClosed) {
    co_return;
  }
  if (udev_hotplug_ != nullptr) {
    co_await UndoHotplug(ctx, udev_hotplug_, domid);
  }
  co_await ReleaseResources(ctx, inst);
  (void)co_await xs_client_->Unwatch(ctx, FrontendDir(domid) + "/state",
                                     lv::StrFormat("%s%lld", kFrontendTokenPrefix,
                                                   (long long)domid));
  inst.backend_state = XenbusState::kClosed;
  (void)co_await xs_client_->Write(ctx, BackendDir(domid) + "/state",
                                   XenbusStateValue(XenbusState::kClosed));
  inst.closed->Trigger();
}

sim::Co<lv::Status> BackendDriver::XsToolstackCreate(sim::ExecCtx ctx, xs::XsClient* client,
                                                     hv::DomainId domid,
                                                     HotplugRunner* inline_hotplug) {
  lv::TimePoint attach_start = engine_->now();
  Instance& inst = GetOrCreate(domid);
  std::string be = BackendDir(domid);
  std::string fe = FrontendDir(domid);
  // libxl writes the front-end and back-end entries atomically.
  lv::Status wrote = co_await xs::RunTransaction(
      ctx, client, /*max_retries=*/8, [&](xs::TxnId txn) -> sim::Co<lv::Status> {
        lv::Status s = co_await client->Write(ctx, be + "/frontend", fe, txn);
        if (!s.ok()) {
          co_return s;
        }
        (void)co_await client->Write(ctx, be + "/online", "1", txn);
        (void)co_await client->Write(ctx, be + "/handle", "0", txn);
        if (type_ == hv::DeviceType::kNet) {
          (void)co_await client->Write(ctx, be + "/mac",
                                       lv::StrFormat("00:16:3e:00:%02x:%02x",
                                                     (int)(domid >> 8) & 0xff,
                                                     (int)domid & 0xff),
                                       txn);
        } else {
          (void)co_await client->Write(ctx, be + "/params", "aio:/vm/disk.img", txn);
        }
        (void)co_await client->Write(ctx, fe + "/backend", be, txn);
        (void)co_await client->Write(ctx, fe + "/backend-id", "0", txn);
        (void)co_await client->Write(ctx, fe + "/handle", "0", txn);
        (void)co_await client->Write(ctx, fe + "/state",
                                     XenbusStateValue(XenbusState::kInitialising), txn);
        // Writing the back-end state entry last fires the back-end's watch.
        co_return co_await client->Write(ctx, be + "/state",
                                         XenbusStateValue(XenbusState::kInitialising), txn);
      });
  if (!wrote.ok()) {
    co_return wrote;
  }
  // Wait for the back-end to pick the device up and reach InitWait.
  co_await inst.ready->Wait();
  if (inline_hotplug != nullptr) {
    // xl runs the hotplug script synchronously during creation (§5.3).
    co_await DoHotplug(ctx, inline_hotplug, domid);
  }
  static metrics::Counter& attaches = metrics::GetCounter("devices.backend.attaches");
  attaches.Inc();
  AttachHistogram().RecordDuration(engine_->now() - attach_start);
  co_return lv::Status::Ok();
}

sim::Co<lv::Status> BackendDriver::XsFrontendConnect(sim::ExecCtx guest_ctx,
                                                     xs::XsClient* guest_client,
                                                     hv::DomainId domid) {
  co_await guest_ctx.Work(costs_->frontend_init);
  std::string fe = FrontendDir(domid);
  // Paper Fig. 7a step 3: guest contacts the XenStore to retrieve what the
  // back-end wrote.
  auto be_path = co_await guest_client->Read(guest_ctx, fe + "/backend");
  if (!be_path.ok()) {
    co_return be_path.error();
  }
  auto chan = co_await guest_client->Read(guest_ctx, *be_path + "/event-channel");
  if (!chan.ok()) {
    co_return chan.error();
  }
  auto ring = co_await guest_client->Read(guest_ctx, *be_path + "/ring-ref");
  if (!ring.ok()) {
    co_return ring.error();
  }
  auto it = instances_.find(domid);
  if (it == instances_.end()) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no backend instance");
  }
  Instance& inst = it->second;
  lv::Status mapped = hv_->grant_table().Map(domid, inst.grant_ref);
  if (!mapped.ok()) {
    co_return mapped;
  }
  (void)hv_->event_channels().Bind(inst.event_channel, domid, [] {});
  // Announce Connected; the back-end's watch completes the handshake.
  co_return co_await guest_client->Write(guest_ctx, fe + "/state",
                                         XenbusStateValue(XenbusState::kConnected));
}

sim::Co<lv::Status> BackendDriver::XsToolstackDestroy(sim::ExecCtx ctx, xs::XsClient* client,
                                                      hv::DomainId domid,
                                                      HotplugRunner* inline_hotplug) {
  auto it = instances_.find(domid);
  if (it == instances_.end()) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no device for domain");
  }
  // References into instances_ survive rehashing, iterators do not — a
  // concurrent create can insert (and rehash) while we are suspended below.
  Instance& inst = it->second;
  // Ask the back-end to close, then remove the store entries.
  lv::Status s = co_await client->Write(ctx, BackendDir(domid) + "/state",
                                        XenbusStateValue(XenbusState::kClosing));
  if (!s.ok()) {
    co_return s;
  }
  co_await inst.closed->Wait();
  if (inline_hotplug != nullptr) {
    co_await UndoHotplug(ctx, inline_hotplug, domid);
  }
  (void)co_await client->Rm(ctx, FrontendDir(domid));
  (void)co_await client->Rm(ctx, BackendDir(domid));
  instances_.erase(domid);
  co_return lv::Status::Ok();
}

// --- noxs path ----------------------------------------------------------------

sim::Co<lv::Result<hv::DeviceInfo>> BackendDriver::NoxsCreate(sim::ExecCtx ctx,
                                                              hv::DomainId domid) {
  // Fig. 7b step 1: ioctl into the noxs kernel module; the back-end sets the
  // device up and returns the communication-channel details directly.
  lv::TimePoint attach_start = engine_->now();
  co_await ctx.Work(costs_->ioctl + costs_->backend_init);
  Instance& inst = GetOrCreate(domid);
  inst.via_noxs = true;
  inst.event_channel = hv_->event_channels().Alloc(hv::kDom0, domid);
  inst.grant_ref = hv_->grant_table().Grant(hv::kDom0, domid);
  inst.page = std::make_shared<DeviceControlPage>();
  inst.page->type = type_;
  inst.page->event_channel = inst.event_channel;
  inst.page->backend_state = XenbusState::kInitWait;
  inst.backend_state = XenbusState::kInitWait;
  control_pages_->RegisterDevice(inst.grant_ref, inst.page);
  // Back-end side of the channel: complete the handshake when the front-end
  // flips its control-page state and notifies.
  (void)hv_->event_channels().Bind(
      inst.event_channel, hv::kDom0, [this, domid] {
        auto it = instances_.find(domid);
        if (it == instances_.end() || !it->second.page) {
          return;
        }
        Instance& inst2 = it->second;
        if (inst2.page->frontend_state == XenbusState::kConnected &&
            inst2.backend_state != XenbusState::kConnected) {
          inst2.frontend_state = XenbusState::kConnected;
          inst2.backend_state = XenbusState::kConnected;
          inst2.page->backend_state = XenbusState::kConnected;
          inst2.connected->Trigger();
        }
      });
  if (udev_hotplug_ != nullptr) {
    engine_->Spawn(DoHotplug(backend_ctx_.cpu != nullptr ? backend_ctx_ : ctx,
                             udev_hotplug_, domid));
  }
  inst.ready->Trigger();
  static metrics::Counter& attaches = metrics::GetCounter("devices.backend.attaches");
  attaches.Inc();
  AttachHistogram().RecordDuration(engine_->now() - attach_start);
  hv::DeviceInfo info;
  info.type = type_;
  info.backend_domid = hv::kDom0;
  info.event_channel = inst.event_channel;
  info.grant_ref = inst.grant_ref;
  info.backend_handle = static_cast<int>(domid);
  co_return info;
}

sim::Co<lv::Status> BackendDriver::NoxsFrontendConnect(sim::ExecCtx guest_ctx,
                                                       hv::DomainId domid,
                                                       const hv::DeviceInfo& info) {
  co_await guest_ctx.Work(costs_->frontend_init);
  // Fig. 7b step 4: map the grant from the device page entry, bind the event
  // channel, flip the control-page state and notify the back-end.
  lv::Status mapped = hv_->grant_table().Map(domid, info.grant_ref);
  if (!mapped.ok()) {
    co_return mapped;
  }
  std::shared_ptr<DeviceControlPage> page = control_pages_->FindDevice(info.grant_ref);
  if (!page) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no control page behind grant");
  }
  (void)hv_->event_channels().Bind(info.event_channel, domid, [] {});
  co_await guest_ctx.Work(costs_->control_page_op);
  page->frontend_state = XenbusState::kConnected;
  co_return co_await hv_->event_channels().Notify(guest_ctx, info.event_channel, domid);
}

sim::Co<lv::Status> BackendDriver::NoxsDestroy(sim::ExecCtx ctx, hv::DomainId domid) {
  auto it = instances_.find(domid);
  if (it == instances_.end()) {
    co_return lv::Err(lv::ErrorCode::kNotFound, "no device for domain");
  }
  // References into instances_ survive rehashing, iterators do not — a
  // concurrent create can insert (and rehash) while we are suspended below.
  Instance& inst = it->second;
  co_await ctx.Work(costs_->ioctl + costs_->noxs_teardown_extra);
  if (udev_hotplug_ != nullptr) {
    co_await UndoHotplug(ctx, udev_hotplug_, domid);
  }
  co_await ReleaseResources(ctx, inst);
  inst.closed->Trigger();
  instances_.erase(domid);
  co_return lv::Status::Ok();
}

}  // namespace xdev
