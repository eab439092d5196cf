#ifndef SMDB_BENCH_BENCH_UTIL_H_
#define SMDB_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment drivers. Each bench binary regenerates
// one table/figure/measurement from the paper (see DESIGN.md's experiment
// index) by running workloads on the simulator and printing the series.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "workload/harness.h"

namespace smdb::bench {

inline void Header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper artifact: %s\n\n", paper_ref.c_str());
}

/// One table row: each cell left-aligned in `width` columns, and always at
/// least one space before the next cell even when a cell fills its width.
inline void Row(const std::vector<std::string>& cells, int width = 22) {
  for (const auto& c : cells) std::printf("%-*s ", width - 1, c.c_str());
  std::printf("\n");
}

/// Asserted shape checks: each Expect prints one "<id> <what>: ok|FAILED"
/// line; the bench's main returns ExitCode(), 1 if any check failed.
class ShapeChecks {
 public:
  explicit ShapeChecks(std::string id) : id_(std::move(id)) {}

  void Expect(bool holds, const std::string& what) {
    std::printf("%s %s: %s\n", id_.c_str(), what.c_str(),
                holds ? "ok" : "FAILED");
    failed_ = failed_ || !holds;
  }

  int ExitCode() const {
    if (failed_) std::fprintf(stderr, "%s failed\n", id_.c_str());
    return failed_ ? 1 : 0;
  }

 private:
  std::string id_;
  bool failed_ = false;
};

inline std::string Fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// Duration formatting lives with the histogram code; these are the
// historical bench spellings.
inline std::string FmtUs(SimTime ns) { return FormatSimTimeUs(ns); }
inline std::string FmtMs(SimTime ns) { return FormatSimTimeMs(ns); }

/// The three IFA protocols of Table 1, in the paper's column order.
inline std::vector<RecoveryConfig> Table1Protocols() {
  return {RecoveryConfig::StableTriggeredRedoAll(),
          RecoveryConfig::VolatileSelectiveRedo(),
          RecoveryConfig::VolatileRedoAll()};
}

/// Standard mixed workload used across experiments (override fields after).
inline HarnessConfig StandardConfig(RecoveryConfig rc, uint16_t nodes = 8,
                                    uint64_t seed = 42) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = nodes;
  cfg.db.recovery = rc;
  cfg.num_records = 256;
  cfg.workload.txns_per_node = 25;
  cfg.workload.ops_per_txn = 8;
  cfg.workload.write_ratio = 0.5;
  cfg.workload.index_op_ratio = 0.15;
  cfg.workload.seed = seed;
  cfg.seed = seed ^ 0xBEEF;
  cfg.steal_flush_prob = 0.01;
  return cfg;
}

/// The run's unified metrics snapshot (same shape --stats-json writes), so
/// bench output is machine-comparable against smdb_run sessions.
inline json::Value MetricsJson(const HarnessReport& report) {
  return MetricsRegistry::FromReport(report).ToJson();
}

/// Writes a {series-name: metrics-snapshot} document next to the bench's
/// BENCH_*.json series file.
inline void WriteMetricsSnapshots(
    const std::string& path,
    const std::vector<std::pair<std::string, json::Value>>& snapshots) {
  json::Value doc = json::Value::Object();
  for (const auto& [name, snap] : snapshots) doc.Set(name, snap);
  std::ofstream out(path);
  if (out) {
    out << doc.Dump(1) << "\n";
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

inline HarnessReport MustRun(Harness& h) {
  auto r = h.Run();
  if (!r.ok()) {
    std::fprintf(stderr, "harness failed: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  if (!r->verify_status.ok()) {
    std::fprintf(stderr, "IFA verification failed: %s\n",
                 r->verify_status.ToString().c_str());
  }
  return *r;
}

}  // namespace smdb::bench

#endif  // SMDB_BENCH_BENCH_UTIL_H_
