#include "src/trace/trace.h"

namespace trace {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

TrackId Tracer::NewTrack(std::string name) {
  TrackId id = static_cast<TrackId>(track_names_.size());
  track_names_.push_back(std::move(name));
  open_.emplace_back();
  return id;
}

void Tracer::BeginSpan(TrackId track, std::string name) {
  if (!enabled_) {
    return;
  }
  if (track < 0 || static_cast<size_t>(track) >= open_.size()) {
    track = kHostTrack;
  }
  open_[static_cast<size_t>(track)].push_back(events_.size());
  events_.push_back(Event{EventType::kBegin, track, Now(), std::move(name)});
}

void Tracer::EndSpan(TrackId track) {
  if (track < 0 || static_cast<size_t>(track) >= open_.size()) {
    track = kHostTrack;
  }
  auto& stack = open_[static_cast<size_t>(track)];
  if (stack.empty()) {
    return;  // Unmatched end (e.g. Clear() between begin and end); drop it.
  }
  size_t begin_index = stack.back();
  stack.pop_back();
  // Name the end event after its begin so exporters and queries never have
  // to re-derive the pairing.
  events_.push_back(
      Event{EventType::kEnd, track, Now(), events_[begin_index].name});
}

void Tracer::Flow(TrackId track, std::string name, int64_t id) {
  if (!enabled_ || id == 0) {
    return;
  }
  if (track < 0 || static_cast<size_t>(track) >= open_.size()) {
    track = kHostTrack;
  }
  events_.push_back(Event{EventType::kFlow, track, Now(), std::move(name), id});
}

std::map<std::string, SpanStat> Tracer::SpanStats() const {
  std::map<std::string, SpanStat> stats;
  // Replay per-track begin stacks; only closed spans contribute.
  std::vector<std::vector<const Event*>> stacks(track_names_.size());
  for (const Event& ev : events_) {
    auto& stack = stacks[static_cast<size_t>(ev.track)];
    if (ev.type == EventType::kBegin) {
      stack.push_back(&ev);
    } else if (ev.type == EventType::kEnd && !stack.empty()) {
      const Event* begin = stack.back();
      stack.pop_back();
      SpanStat& s = stats[begin->name];
      ++s.count;
      s.total += ev.ts - begin->ts;
    }
  }
  return stats;
}

lv::Duration Tracer::SpanTotal(const std::string& name) const {
  auto stats = SpanStats();
  auto it = stats.find(name);
  return it == stats.end() ? lv::Duration() : it->second.total;
}

std::vector<std::string> Tracer::TopLevelSpans(TrackId track) const {
  std::vector<std::string> names;
  int depth = 0;
  for (const Event& ev : events_) {
    if (ev.track != track) {
      continue;
    }
    if (ev.type == EventType::kBegin) {
      if (depth == 0) {
        names.push_back(ev.name);
      }
      ++depth;
    } else if (ev.type == EventType::kEnd) {
      --depth;
    }
  }
  return names;
}

void Tracer::Clear() {
  events_.clear();
  for (auto& stack : open_) {
    stack.clear();
  }
  epoch_ = lv::Duration();
  end_ = lv::TimePoint();
}

void Tracer::Reset() {
  Clear();
  track_names_.assign(1, "host");
  open_.assign(1, {});
  enabled_ = false;
}

}  // namespace trace
