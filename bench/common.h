// Shared helpers for the figure-reproduction benchmarks: table printing,
// VM configs and the machine-readable BENCH_*.json report (--json=<file>).
// The timed create/boot (lightvm::CreateBootTimed, src/core/host.h) and the
// printed-row sampler (lv::SampleRow, src/base/stats.h) live in the library,
// shared with the scenario runner.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/core/host.h"
#include "src/obs/obs.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/sim/run.h"

namespace bench {

// Machine-readable benchmark results. Every figure binary records its full-
// resolution data points here (the printed table is usually downsampled via
// lv::SampleRow()); `--json=<file>` dumps them as a schema-versioned artifact
// together with a snapshot of the always-on metrics registry, so two runs of
// the same figure can be diffed point-by-point and counter-by-counter. With
// no `--json` flag the report is a no-op; nothing is ever written to stdout,
// which keeps the printed tables byte-identical either way.
//
// Usage, in a figure's main(int argc, char** argv):
//   bench::Report::Get().Init(argc, argv, "fig09_mechanisms");
//   ...
//   bench::Point("xl", {{"n", i}, {"create_ms", t.create_ms}});
//   ...
//   bench::Report::Get().Write();
class Report {
 public:
  static Report& Get() {
    static Report* report = new Report();
    return *report;
  }

  // Parses benchmark command-line flags. Currently: --json=<file>. An empty
  // file name is a usage error, like an unknown flag: it would drop the
  // results silently.
  void Init(int argc, char** argv, const std::string& name) {
    name_ = name;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--json=", 7) == 0 && arg[7] != '\0') {
        json_path_ = arg + 7;
      } else {
        std::fprintf(stderr, "usage: %s [--json=<file>]\n", argv[0]);
        std::exit(2);
      }
    }
  }

  void SetTitle(const std::string& title, const std::string& setup) {
    title_ = title;
    setup_ = setup;
  }
  void AddFootnote(const std::string& text) { footnotes_.push_back(text); }

  // Echo a config knob into the artifact (what was this run configured as?).
  void Config(const std::string& key, double value) {
    config_.emplace_back(key, metrics::JsonNumber(value));
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + metrics::JsonEscape(value) + "\"");
  }

  // Records one data point. The first point of a series fixes its columns;
  // later points must use the same columns in the same order.
  void Point(const std::string& series,
             std::vector<std::pair<std::string, double>> row) {
    Series* s = nullptr;
    for (Series& existing : series_) {
      if (existing.name == series) {
        s = &existing;
        break;
      }
    }
    if (s == nullptr) {
      series_.push_back(Series{series, {}, {}});
      s = &series_.back();
      for (const auto& [col, value] : row) {
        s->columns.push_back(col);
      }
    }
    LV_CHECK_MSG(row.size() == s->columns.size(), "point/column arity mismatch");
    for (size_t i = 0; i < row.size(); ++i) {
      LV_CHECK_MSG(row[i].first == s->columns[i], "point/column name mismatch");
    }
    std::vector<double> values;
    values.reserve(row.size());
    for (const auto& [col, value] : row) {
      values.push_back(value);
    }
    s->points.push_back(std::move(values));
  }

  // Writes the artifact if --json was requested. Failure to write is fatal:
  // a benchmark that silently drops its results is worse than one that dies.
  void Write() const {
    if (json_path_.empty()) {
      return;
    }
    std::ofstream out(json_path_);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path_.c_str());
      std::exit(1);
    }
    WriteJson(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "short write to %s\n", json_path_.c_str());
      std::exit(1);
    }
  }

 private:
  struct Series {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<double>> points;
  };

  Report() = default;

  void WriteJson(std::ostream& out) const {
    out << "{\"schema\":\"lightvm-bench/1\",\n";
    out << lv::StrFormat("\"name\":\"%s\",\n", metrics::JsonEscape(name_).c_str());
    out << lv::StrFormat("\"title\":\"%s\",\n", metrics::JsonEscape(title_).c_str());
    out << lv::StrFormat("\"setup\":\"%s\",\n", metrics::JsonEscape(setup_).c_str());
    out << "\"footnotes\":[";
    for (size_t i = 0; i < footnotes_.size(); ++i) {
      out << (i == 0 ? "" : ",")
          << lv::StrFormat("\"%s\"", metrics::JsonEscape(footnotes_[i]).c_str());
    }
    out << "],\n\"config\":{";
    for (size_t i = 0; i < config_.size(); ++i) {
      out << (i == 0 ? "" : ",")
          << lv::StrFormat("\"%s\":%s", metrics::JsonEscape(config_[i].first).c_str(),
                           config_[i].second.c_str());
    }
    out << "},\n\"series\":{";
    for (size_t i = 0; i < series_.size(); ++i) {
      const Series& s = series_[i];
      out << (i == 0 ? "" : ",")
          << lv::StrFormat("\n\"%s\":{\"columns\":[", metrics::JsonEscape(s.name).c_str());
      for (size_t c = 0; c < s.columns.size(); ++c) {
        out << (c == 0 ? "" : ",")
            << lv::StrFormat("\"%s\"", metrics::JsonEscape(s.columns[c]).c_str());
      }
      out << "],\"points\":[";
      for (size_t p = 0; p < s.points.size(); ++p) {
        out << (p == 0 ? "" : ",") << "[";
        for (size_t c = 0; c < s.points[p].size(); ++c) {
          out << (c == 0 ? "" : ",") << metrics::JsonNumber(s.points[p][c]);
        }
        out << "]";
      }
      out << "]}";
    }
    out << "},\n\"metrics\":";
    metrics::WriteJson(metrics::Registry::Get(), out);
    out << "}\n";
  }

  std::string name_;
  std::string title_;
  std::string setup_;
  std::string json_path_;
  std::vector<std::string> footnotes_;
  std::vector<std::pair<std::string, std::string>> config_;  // key -> JSON value
  std::vector<Series> series_;
};

// Shorthand for the common call.
inline void Point(const std::string& series,
                  std::vector<std::pair<std::string, double>> row) {
  Report::Get().Point(series, std::move(row));
}

// Aborts a benchmark run that cannot produce valid results. A figure that
// exits 0 with a silently truncated table poisons downstream comparisons,
// so failures are loud and nonzero. If a flight-recorder dump path is armed
// (--flight-out), the per-node event rings are written first — the
// post-mortem for exactly this situation.
[[noreturn]] inline void FailRun(const std::string& reason) {
  std::fprintf(stderr, "benchmark run failed: %s\n", reason.c_str());
  obs::FlightRecorder::Get().MaybeDump();
  std::exit(1);
}

inline void Header(const std::string& figure, const std::string& title,
                   const std::string& setup) {
  Report::Get().SetTitle(title, setup);
  std::printf("# %s — %s\n", figure.c_str(), title.c_str());
  std::printf("# setup: %s\n", setup.c_str());
}

inline void Footnote(const std::string& text) {
  Report::Get().AddFootnote(text);
  std::printf("# %s\n", text.c_str());
}

inline toolstack::VmConfig Config(const std::string& name, guests::GuestImage image) {
  toolstack::VmConfig config;
  config.name = name;
  config.image = std::move(image);
  return config;
}

}  // namespace bench
