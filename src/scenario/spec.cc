#include "src/scenario/spec.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/base/strings.h"
#include "src/cluster/placement.h"
#include "src/toolstack/config.h"

namespace scenario {

namespace {

using lv::Err;
using lv::ErrorCode;
using lv::json::Member;
using lv::json::Value;

lv::Error BadField(const std::string& context, const std::string& key,
                   const std::string& what) {
  return Err(ErrorCode::kInvalidArgument,
             lv::StrFormat("%s.%s: %s", context.c_str(), key.c_str(), what.c_str()));
}

lv::Error UnknownKey(const std::string& context, const std::string& key) {
  return Err(ErrorCode::kInvalidArgument,
             lv::StrFormat("unknown key '%s' in %s", key.c_str(), context.c_str()));
}

lv::Result<std::string> WantString(const std::string& context, const Member& m) {
  if (!m.second.is_string()) {
    return BadField(context, m.first,
                    lv::StrFormat("expected string, got %s", m.second.TypeName()));
  }
  return m.second.AsString();
}

lv::Result<double> WantNumber(const std::string& context, const Member& m) {
  if (!m.second.is_number()) {
    return BadField(context, m.first,
                    lv::StrFormat("expected number, got %s", m.second.TypeName()));
  }
  return m.second.AsDouble();
}

// Reads an integer into a field of type T; a value T cannot hold is an
// error, never a silent wrap.
template <typename T>
lv::Result<T> WantInt(const std::string& context, const Member& m) {
  auto d = WantNumber(context, m);
  if (!d.ok()) {
    return d.error();
  }
  if (*d != std::floor(*d)) {
    return BadField(context, m.first, "expected an integer");
  }
  // max() + 1 is a power of two, so exact as a double.
  if (*d < static_cast<double>(std::numeric_limits<T>::min()) ||
      *d >= static_cast<double>(std::numeric_limits<T>::max()) + 1.0) {
    return BadField(context, m.first, "out of range");
  }
  return static_cast<T>(*d);
}

// The latest time a spec may name: a quarter of what a Duration holds
// (~73 years), so fault times, a random plan's reboots (up to twice its
// horizon) and the engine clock never overflow.
constexpr double kMaxTimeNs = 0x1p61;

// Reads a time given in units of `unit_ns` nanoseconds (1e6 for `*_ms`
// keys, 1e3 for `*_us`). Negative times, times past kMaxTimeNs and, when
// `positive`, times that round down to 0 ns are errors.
lv::Result<lv::Duration> WantTime(const std::string& context, const Member& m,
                                  double unit_ns, bool positive) {
  auto d = WantNumber(context, m);
  if (!d.ok()) {
    return d.error();
  }
  const double ns = *d * unit_ns;
  if (ns < 0.0) {
    return BadField(context, m.first, positive ? "must be > 0" : "must be >= 0");
  }
  if (!(ns < kMaxTimeNs)) {
    return BadField(context, m.first, "out of range");
  }
  lv::Duration t = lv::Duration::Nanos(static_cast<int64_t>(ns));
  if (positive && t.ns() == 0) {
    return BadField(context, m.first, "must be > 0 (rounds to 0 ns)");
  }
  return t;
}

lv::Status WantObject(const std::string& context, const Member& m) {
  if (!m.second.is_object()) {
    return BadField(context, m.first,
                    lv::StrFormat("expected object, got %s", m.second.TypeName()));
  }
  return lv::Status::Ok();
}

// Plumbing for the if/else key chains below: assign-or-return-error.
#define LV_SPEC_ASSIGN(dest, expr)     \
  do {                                 \
    auto lv_spec_tmp = (expr);         \
    if (!lv_spec_tmp.ok()) {           \
      return lv_spec_tmp.error();      \
    }                                  \
    (dest) = *std::move(lv_spec_tmp);  \
  } while (0)

lv::Result<HostSpecConfig> ParseHost(const std::string& context, const Value& v) {
  HostSpecConfig host;
  for (const Member& m : v.AsObject()) {
    if (m.first == "preset") {
      LV_SPEC_ASSIGN(host.preset, WantString(context, m));
    } else {
      return UnknownKey(context, m.first);
    }
  }
  auto resolved = ResolveHostSpec(host);
  if (!resolved.ok()) {
    return resolved.error();
  }
  return host;
}

lv::Result<TopologyConfig> ParseTopology(const Value& v) {
  TopologyConfig topo;
  const std::string context = "topology";
  for (const Member& m : v.AsObject()) {
    if (m.first == "nodes") {
      LV_SPEC_ASSIGN(topo.nodes, WantInt<int>(context, m));
    } else if (m.first == "host") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      LV_SPEC_ASSIGN(topo.host, ParseHost("topology.host", m.second));
    } else {
      return UnknownKey(context, m.first);
    }
  }
  if (topo.nodes < 1) {
    return BadField(context, "nodes", "must be >= 1");
  }
  return topo;
}

lv::Result<ShellPoolConfig> ParseShellPool(const Value& v) {
  ShellPoolConfig pool;
  const std::string context = "shell_pool";
  for (const Member& m : v.AsObject()) {
    if (m.first == "image") {
      LV_SPEC_ASSIGN(pool.image, WantString(context, m));
    } else if (m.first == "target") {
      LV_SPEC_ASSIGN(pool.target, WantInt<int>(context, m));
    } else {
      return UnknownKey(context, m.first);
    }
  }
  if (pool.image.empty()) {
    return BadField(context, "image", "required");
  }
  if (!toolstack::ImageByName(pool.image).ok()) {
    return BadField(context, "image", "unknown image '" + pool.image + "'");
  }
  if (pool.target <= 0) {
    return BadField(context, "target", "must be > 0");
  }
  return pool;
}

lv::Result<GuestGroupConfig> ParseGuestGroup(int index, const Value& v) {
  GuestGroupConfig group;
  const std::string context = lv::StrFormat("workload.guests[%d]", index);
  if (!v.is_object()) {
    return Err(ErrorCode::kInvalidArgument, context + ": expected object");
  }
  for (const Member& m : v.AsObject()) {
    if (m.first == "series") {
      LV_SPEC_ASSIGN(group.series, WantString(context, m));
    } else if (m.first == "image") {
      LV_SPEC_ASSIGN(group.image, WantString(context, m));
    } else if (m.first == "runtime") {
      LV_SPEC_ASSIGN(group.runtime, WantString(context, m));
    } else if (m.first == "count") {
      LV_SPEC_ASSIGN(group.count, WantInt<int>(context, m));
    } else if (m.first == "name_prefix") {
      LV_SPEC_ASSIGN(group.name_prefix, WantString(context, m));
    } else {
      return UnknownKey(context, m.first);
    }
  }
  if (group.image.empty() == group.runtime.empty()) {
    return Err(ErrorCode::kInvalidArgument,
               context + ": exactly one of 'image' and 'runtime' is required");
  }
  if (!group.image.empty() && !toolstack::ImageByName(group.image).ok()) {
    return BadField(context, "image", "unknown image '" + group.image + "'");
  }
  if (!group.runtime.empty() && group.runtime != "docker" &&
      group.runtime != "process") {
    return BadField(context, "runtime", "must be 'docker' or 'process'");
  }
  if (group.count <= 0) {
    return BadField(context, "count", "must be > 0");
  }
  if (group.series.empty()) {
    group.series = group.image.empty() ? group.runtime : group.image;
  }
  if (group.name_prefix.empty()) {
    group.name_prefix = group.series + "-";
  }
  return group;
}

lv::Result<faults::FaultEvent> ParseFaultEvent(int index, const Value& v) {
  faults::FaultEvent ev;
  const std::string context = lv::StrFormat("faults.events[%d]", index);
  if (!v.is_object()) {
    return Err(ErrorCode::kInvalidArgument, context + ": expected object");
  }
  bool saw_at = false;
  bool saw_kind = false;
  bool saw_duration = false;
  bool saw_count = false;
  bool saw_peer = false;
  for (const Member& m : v.AsObject()) {
    if (m.first == "at_ms") {
      LV_SPEC_ASSIGN(ev.at, WantTime(context, m, 1e6, /*positive=*/false));
      saw_at = true;
    } else if (m.first == "kind") {
      std::string kind;
      LV_SPEC_ASSIGN(kind, WantString(context, m));
      if (!faults::FaultKindFromName(kind, &ev.kind)) {
        return BadField(context, "kind", "unknown fault kind '" + kind + "'");
      }
      saw_kind = true;
    } else if (m.first == "node") {
      LV_SPEC_ASSIGN(ev.node, WantInt<int>(context, m));
    } else if (m.first == "peer") {
      LV_SPEC_ASSIGN(ev.peer, WantInt<int>(context, m));
      saw_peer = true;
    } else if (m.first == "duration_ms") {
      LV_SPEC_ASSIGN(ev.duration, WantTime(context, m, 1e6, /*positive=*/true));
      saw_duration = true;
    } else if (m.first == "count") {
      LV_SPEC_ASSIGN(ev.count, WantInt<int>(context, m));
      saw_count = true;
    } else {
      return UnknownKey(context, m.first);
    }
  }
  if (!saw_kind) {
    return BadField(context, "kind", "required");
  }
  if (!saw_at) {
    return BadField(context, "at_ms", "required, must be >= 0");
  }
  if (ev.node < 0) {
    return BadField(context, "node", "must be >= 0");
  }
  const bool wants_duration = ev.kind == faults::FaultKind::kXsRestart ||
                              ev.kind == faults::FaultKind::kHotplugStall ||
                              ev.kind == faults::FaultKind::kLinkPartition;
  if (wants_duration && !saw_duration) {
    return BadField(context, "duration_ms", "required, must be > 0 for this kind");
  }
  if (!wants_duration && saw_duration) {
    return BadField(context, "duration_ms",
                    "only applies to xenstore-restart, hotplug-stall and "
                    "link-partition");
  }
  const bool wants_count = ev.kind == faults::FaultKind::kHotplugStall ||
                           ev.kind == faults::FaultKind::kCreateFault;
  if (saw_count && !wants_count) {
    return BadField(context, "count",
                    "only applies to hotplug-stall and create-fault");
  }
  if (ev.count < 1) {
    return BadField(context, "count", "must be >= 1");
  }
  if (ev.kind == faults::FaultKind::kLinkPartition) {
    if (!saw_peer) {
      return BadField(context, "peer", "required for link-partition");
    }
    if (ev.peer < 0 || ev.peer == ev.node) {
      return BadField(context, "peer", "must be >= 0 and differ from node");
    }
  } else if (saw_peer) {
    return BadField(context, "peer", "only applies to link-partition");
  }
  return ev;
}

lv::Result<FaultsConfig> ParseFaults(const Value& v) {
  FaultsConfig f;
  const std::string context = "faults";
  for (const Member& m : v.AsObject()) {
    if (m.first == "events") {
      if (!m.second.is_array()) {
        return BadField(context, m.first, "expected array");
      }
      int index = 0;
      for (const Value& item : m.second.AsArray()) {
        auto ev = ParseFaultEvent(index++, item);
        if (!ev.ok()) {
          return ev.error();
        }
        f.plan.events.push_back(*ev);
      }
    } else if (m.first == "random") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      for (const Member& rm : m.second.AsObject()) {
        if (rm.first == "events") {
          LV_SPEC_ASSIGN(f.random_events, WantInt<int>("faults.random", rm));
        } else if (rm.first == "horizon_ms") {
          LV_SPEC_ASSIGN(f.random_horizon,
                         WantTime("faults.random", rm, 1e6, /*positive=*/true));
        } else if (rm.first == "seed") {
          LV_SPEC_ASSIGN(f.random_seed, WantInt<uint64_t>("faults.random", rm));
        } else {
          return UnknownKey("faults.random", rm.first);
        }
      }
      if (f.random_events <= 0) {
        return BadField("faults.random", "events", "must be > 0");
      }
      if (f.random_horizon.ns() == 0) {
        return BadField("faults.random", "horizon_ms", "required, must be > 0");
      }
    } else {
      return UnknownKey(context, m.first);
    }
  }
  if (f.plan.empty() && f.random_events == 0) {
    return BadField(context, "events",
                    "at least one explicit event or a random plan required");
  }
  return f;
}

lv::Result<WorkloadKind> ParseWorkloadKind(const std::string& kind) {
  if (kind == "sequential-boots") {
    return WorkloadKind::kSequentialBoots;
  }
  if (kind == "churn-storm") {
    return WorkloadKind::kChurnStorm;
  }
  if (kind == "fleet-deploy") {
    return WorkloadKind::kFleetDeploy;
  }
  return Err(ErrorCode::kInvalidArgument,
             "workload.kind: unknown kind '" + kind +
                 "' (want sequential-boots, churn-storm or fleet-deploy)");
}

lv::Result<WorkloadConfig> ParseWorkload(const Value& v) {
  WorkloadConfig w;
  const std::string context = "workload";
  const Value* kind = v.Get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return Err(ErrorCode::kInvalidArgument, "workload.kind: required string");
  }
  LV_SPEC_ASSIGN(w.kind, ParseWorkloadKind(kind->AsString()));

  for (const Member& m : v.AsObject()) {
    if (m.first == "kind") {
      continue;
    }
    const bool churn = w.kind == WorkloadKind::kChurnStorm;
    const bool fleet = w.kind == WorkloadKind::kFleetDeploy;
    if (m.first == "guests" && w.kind == WorkloadKind::kSequentialBoots) {
      if (!m.second.is_array()) {
        return BadField(context, m.first, "expected array");
      }
      int index = 0;
      for (const Value& item : m.second.AsArray()) {
        auto group = ParseGuestGroup(index++, item);
        if (!group.ok()) {
          return group.error();
        }
        w.guests.push_back(*std::move(group));
      }
    } else if (m.first == "image" && (churn || fleet)) {
      LV_SPEC_ASSIGN(w.image, WantString(context, m));
    } else if (m.first == "concurrency" && (churn || fleet)) {
      LV_SPEC_ASSIGN(w.concurrency, WantInt<int>(context, m));
    } else if (m.first == "operations" && churn) {
      LV_SPEC_ASSIGN(w.operations, WantInt<int>(context, m));
    } else if (m.first == "max_live" && churn) {
      LV_SPEC_ASSIGN(w.max_live, WantInt<int>(context, m));
    } else if (m.first == "destroy_fraction" && churn) {
      LV_SPEC_ASSIGN(w.destroy_fraction, WantNumber(context, m));
    } else if (m.first == "vms" && fleet) {
      LV_SPEC_ASSIGN(w.vms, WantInt<int>(context, m));
    } else if (m.first == "policies" && fleet) {
      if (!m.second.is_array()) {
        return BadField(context, m.first, "expected array of policy names");
      }
      for (const Value& item : m.second.AsArray()) {
        if (!item.is_string()) {
          return BadField(context, m.first, "expected array of policy names");
        }
        w.policies.push_back(item.AsString());
      }
    } else {
      return Err(ErrorCode::kInvalidArgument,
                 lv::StrFormat("key '%s' in workload is unknown or does not apply "
                               "to kind '%s'",
                               m.first.c_str(), kind->AsString().c_str()));
    }
  }

  switch (w.kind) {
    case WorkloadKind::kSequentialBoots:
      if (w.guests.empty()) {
        return BadField(context, "guests", "at least one guest group required");
      }
      break;
    case WorkloadKind::kChurnStorm:
      if (w.operations <= 0) {
        return BadField(context, "operations", "must be > 0");
      }
      if (w.concurrency <= 0) {
        return BadField(context, "concurrency", "must be > 0");
      }
      if (w.max_live <= 0) {
        return BadField(context, "max_live", "must be > 0");
      }
      if (w.destroy_fraction < 0.0 || w.destroy_fraction >= 1.0) {
        return BadField(context, "destroy_fraction", "must be in [0, 1)");
      }
      break;
    case WorkloadKind::kFleetDeploy:
      if (w.vms <= 0) {
        return BadField(context, "vms", "must be > 0");
      }
      if (w.concurrency <= 0) {
        return BadField(context, "concurrency", "must be > 0");
      }
      if (w.policies.empty()) {
        w.policies.push_back("first-fit");
      }
      for (const std::string& p : w.policies) {
        if (cluster::MakePolicy(p) == nullptr) {
          return BadField(context, "policies", "unknown policy '" + p + "'");
        }
      }
      break;
  }
  if ((w.kind == WorkloadKind::kChurnStorm ||
       w.kind == WorkloadKind::kFleetDeploy) &&
      !toolstack::ImageByName(w.image).ok()) {
    return BadField(context, "image", "unknown image '" + w.image + "'");
  }
  return w;
}

lv::Result<obs::SloConfig> ParseSlo(const Value& v) {
  obs::SloConfig slo;
  const std::string context = "slo";
  // Every bound is an inclusive upper bound on a non-negative observable,
  // so negative bounds can never pass and are rejected as typos.
  auto bound = [&](const Member& m,
                   std::optional<double>* dest) -> lv::Status {
    double value = 0.0;
    auto parsed = WantNumber(context, m);
    if (!parsed.ok()) {
      return parsed.error();
    }
    value = *parsed;
    if (value < 0.0) {
      return BadField(context, m.first, "must be >= 0");
    }
    *dest = value;
    return lv::Status::Ok();
  };
  for (const Member& m : v.AsObject()) {
    lv::Status ok = lv::Status::Ok();
    if (m.first == "create_p99_ms") {
      ok = bound(m, &slo.create_p99_ms);
    } else if (m.first == "recovery_p99_ms") {
      ok = bound(m, &slo.recovery_p99_ms);
    } else if (m.first == "admission_drift") {
      ok = bound(m, &slo.admission_drift);
    } else if (m.first == "vms_lost") {
      ok = bound(m, &slo.vms_lost);
    } else if (m.first == "vms_unrecovered") {
      ok = bound(m, &slo.vms_unrecovered);
    } else if (m.first == "invariant_failures") {
      ok = bound(m, &slo.invariant_failures);
    } else {
      return UnknownKey(context, m.first);
    }
    if (!ok.ok()) {
      return ok.error();
    }
  }
  if (!slo.any()) {
    return BadField(context, "slo", "must set at least one bound");
  }
  return slo;
}

}  // namespace

lv::Result<lightvm::HostSpec> ResolveHostSpec(const HostSpecConfig& config) {
  lightvm::HostSpec spec;
  if (config.preset == "xeon4") {
    spec = lightvm::HostSpec::Xeon4Core();
  } else if (config.preset == "amd64") {
    spec = lightvm::HostSpec::Amd64Core();
  } else if (config.preset == "xeon14") {
    spec = lightvm::HostSpec::Xeon14Core();
  } else {
    return lv::Err(lv::ErrorCode::kInvalidArgument,
                   "unknown host preset '" + config.preset +
                       "' (want xeon4, amd64 or xeon14)");
  }
  return spec;
}

lv::Result<lightvm::Mechanisms> MechanismsByName(const std::string& name) {
  if (name == "xl") {
    return lightvm::Mechanisms::Xl();
  }
  if (name == "chaos-xs") {
    return lightvm::Mechanisms::ChaosXs();
  }
  if (name == "chaos-xs-split") {
    return lightvm::Mechanisms::ChaosXsSplit();
  }
  if (name == "chaos-noxs") {
    return lightvm::Mechanisms::ChaosNoxs();
  }
  if (name == "lightvm") {
    return lightvm::Mechanisms::LightVm();
  }
  if (name == "lightvm-shared") {
    return lightvm::Mechanisms::LightVmShared();
  }
  return lv::Err(lv::ErrorCode::kInvalidArgument,
                 "unknown mechanisms '" + name +
                     "' (want xl, chaos-xs, chaos-xs-split, chaos-noxs, "
                     "lightvm or lightvm-shared)");
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSequentialBoots: return "sequential-boots";
    case WorkloadKind::kChurnStorm: return "churn-storm";
    case WorkloadKind::kFleetDeploy: return "fleet-deploy";
  }
  return "?";
}

lv::Result<Spec> ParseSpec(std::string_view text) {
  auto doc = lv::json::Parse(text);
  if (!doc.ok()) {
    return doc.error();
  }
  if (!doc->is_object()) {
    return lv::Err(lv::ErrorCode::kInvalidArgument,
                   "scenario spec: top-level value must be an object");
  }

  Spec spec;
  bool saw_workload = false;
  std::optional<HostSpecConfig> host;  // the top-level shorthand
  const std::string context = "scenario";
  for (const Member& m : doc->AsObject()) {
    if (m.first == "name") {
      LV_SPEC_ASSIGN(spec.name, WantString(context, m));
    } else if (m.first == "title") {
      LV_SPEC_ASSIGN(spec.title, WantString(context, m));
    } else if (m.first == "seed") {
      LV_SPEC_ASSIGN(spec.seed, WantInt<uint64_t>(context, m));
    } else if (m.first == "mechanisms") {
      LV_SPEC_ASSIGN(spec.mechanisms, WantString(context, m));
    } else if (m.first == "xenstore_policy") {
      std::string policy;
      LV_SPEC_ASSIGN(policy, WantString(context, m));
      if (!xs::StorePolicyFromName(policy, &spec.xenstore_policy)) {
        return BadField(context, "xenstore_policy",
                        "unknown policy '" + policy + "' (want legacy or indexed)");
      }
    } else if (m.first == "topology") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      LV_SPEC_ASSIGN(spec.topology, ParseTopology(m.second));
    } else if (m.first == "host") {
      // Shorthand for topology.host.
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      LV_SPEC_ASSIGN(host, ParseHost("host", m.second));
    } else if (m.first == "shell_pool") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      auto pool = ParseShellPool(m.second);
      if (!pool.ok()) {
        return pool.error();
      }
      spec.shell_pool = *std::move(pool);
    } else if (m.first == "faults") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      auto faults = ParseFaults(m.second);
      if (!faults.ok()) {
        return faults.error();
      }
      spec.faults = *std::move(faults);
    } else if (m.first == "slo") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      auto slo = ParseSlo(m.second);
      if (!slo.ok()) {
        return slo.error();
      }
      spec.slo = *std::move(slo);
    } else if (m.first == "workload") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      LV_SPEC_ASSIGN(spec.workload, ParseWorkload(m.second));
      saw_workload = true;
    } else if (m.first == "output") {
      auto ok = WantObject(context, m);
      if (!ok.ok()) {
        return ok.error();
      }
      for (const Member& om : m.second.AsObject()) {
        if (om.first == "sample_points") {
          LV_SPEC_ASSIGN(spec.sample_points, WantInt<int>("output", om));
        } else {
          return UnknownKey("output", om.first);
        }
      }
    } else {
      return UnknownKey(context, m.first);
    }
  }

  if (spec.name.empty()) {
    return BadField(context, "name", "required");
  }
  if (!saw_workload) {
    return BadField(context, "workload", "required");
  }
  if (host.has_value()) {
    const Value* topology = doc->Get("topology");
    if (topology != nullptr && topology->Get("host") != nullptr) {
      return BadField(context, "host", "set host or topology.host, not both");
    }
    spec.topology.host = *host;
  }
  if (spec.sample_points <= 0) {
    return BadField("output", "sample_points", "must be > 0");
  }
  auto mechanisms = MechanismsByName(spec.mechanisms);
  if (!mechanisms.ok()) {
    return mechanisms.error();
  }
  const bool has_store =
      mechanisms->toolstack == lightvm::ToolstackKind::kXl || !mechanisms->noxs;
  if (spec.xenstore_policy != xs::StorePolicy::kLegacy && !has_store) {
    return BadField(context, "xenstore_policy",
                    "mechanisms preset '" + spec.mechanisms +
                        "' runs no xenstored (noxs); xenstore_policy does not "
                        "apply");
  }
  if (spec.shell_pool.has_value() && !mechanisms->split) {
    return BadField(context, "shell_pool",
                    "requires a split-toolstack mechanisms preset "
                    "(chaos-xs-split, lightvm or lightvm-shared)");
  }
  if (spec.topology.nodes > 1 &&
      spec.workload.kind != WorkloadKind::kFleetDeploy) {
    return BadField("topology", "nodes",
                    lv::StrFormat("workload '%s' runs on a single node "
                                  "(only fleet-deploy spans a cluster)",
                                  WorkloadKindName(spec.workload.kind)));
  }
  if (spec.workload.kind == WorkloadKind::kFleetDeploy &&
      spec.topology.nodes < 2) {
    return BadField("topology", "nodes", "fleet-deploy needs >= 2 nodes");
  }
  if (spec.faults.has_value()) {
    if (spec.workload.kind == WorkloadKind::kSequentialBoots) {
      return BadField(context, "faults",
                      "applies to churn-storm and fleet-deploy workloads only");
    }
    if (spec.faults->random_events > 0 && spec.topology.nodes < 2) {
      return BadField("faults", "random",
                      "random plans need a cluster (>= 2 nodes)");
    }
    for (size_t i = 0; i < spec.faults->plan.events.size(); ++i) {
      const faults::FaultEvent& ev = spec.faults->plan.events[i];
      const std::string ev_context = lv::StrFormat("faults.events[%d]", (int)i);
      if (ev.node >= spec.topology.nodes) {
        return BadField(ev_context, "node", "out of range for the topology");
      }
      const bool cluster_kind = ev.kind == faults::FaultKind::kNodeCrash ||
                                ev.kind == faults::FaultKind::kNodeReboot ||
                                ev.kind == faults::FaultKind::kLinkPartition;
      if (cluster_kind && spec.topology.nodes < 2) {
        return BadField(ev_context, "kind",
                        "needs a cluster (>= 2 nodes); a single node cannot "
                        "survive losing itself");
      }
      if (ev.kind == faults::FaultKind::kLinkPartition &&
          ev.peer >= spec.topology.nodes) {
        return BadField(ev_context, "peer", "out of range for the topology");
      }
    }
  }
  return spec;
}

lv::Result<Spec> LoadSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return lv::Err(lv::ErrorCode::kNotFound, "cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto spec = ParseSpec(buf.str());
  if (!spec.ok()) {
    return lv::Err(spec.error().code, path + ": " + spec.error().message);
  }
  return spec;
}

}  // namespace scenario
