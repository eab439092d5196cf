// Experiment W1 — normal-operation (failure-free) throughput under each
// protocol (section 7's overall overhead summary), plus the execution
// profile baseline.
//
// Runs the same workload, with no crashes, under: plain FA (no IFA
// provisions), Volatile LBM + Redo All, Volatile LBM + Selective Redo, and
// both Stable LBM enforcements. Reports throughput and slowdown vs FA, and
// exits 1 unless the W1 shape holds: in txn/sim-s, Stable eager < Stable
// triggered < each Volatile LBM row, and in log forces the reverse order.
// The FA comparison is reported, not asserted: FA's synchronous split-page
// forces confound it.
// The profile section then runs a heavier Volatile LBM + Selective Redo
// workload with the profiler on and writes its sim-time phase breakdown
// (BENCH_exec_profile.json + .collapsed).

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"

namespace smdb::bench {
namespace {

HarnessConfig ProfileConfig() {
  HarnessConfig cfg =
      StandardConfig(RecoveryConfig::VolatileSelectiveRedo(), /*nodes=*/8,
                     /*seed=*/9090);
  cfg.workload.txns_per_node = 200;
  cfg.workload.index_op_ratio = 0.15;
  cfg.steal_flush_prob = 0.0;
  cfg.db.obs.profile = true;
  return cfg;
}

int Run() {
  Header("Failure-free throughput: the price of IFA during normal operation",
         "section 7 (overheads summary); related-work positioning of SM "
         "performance");

  struct Res {
    std::string name;
    double tps;
    uint64_t forces;
  };
  std::vector<Res> results;
  std::vector<std::pair<std::string, json::Value>> snapshots;
  for (auto rc : {RecoveryConfig::BaselineRebootAll(),  // plain FA
                  RecoveryConfig::VolatileRedoAll(),
                  RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::StableTriggeredRedoAll(),
                  RecoveryConfig::StableEagerRedoAll()}) {
    HarnessConfig cfg = StandardConfig(rc, /*nodes=*/8, /*seed=*/9090);
    cfg.workload.txns_per_node = 50;
    cfg.workload.index_op_ratio = 0.2;
    Harness h(cfg);
    HarnessReport r = MustRun(h);
    results.push_back(
        {rc.Name() + (rc.ensures_ifa() ? "" : " (FA-only)"),
         r.throughput_tps(), r.logs.forces});
    snapshots.emplace_back(rc.Name(), MetricsJson(r));
  }
  double base = results[0].tps;
  Row({"protocol", "txn/sim-s", "slowdown vs FA", "log forces"}, 34);
  for (const auto& res : results) {
    Row({res.name, Fmt(res.tps, 1),
         Fmt((base / res.tps - 1.0) * 100.0, 1) + "%",
         std::to_string(res.forces)},
        34);
  }
  std::printf("\n");
  const Res& eager = results[4];
  const Res& triggered = results[3];
  ShapeChecks checks("W1");
  checks.Expect(eager.tps < triggered.tps,
                "Stable eager is slower than Stable triggered");
  checks.Expect(eager.forces > triggered.forces,
                "Stable eager forces more than Stable triggered");
  for (size_t i : {size_t{1}, size_t{2}}) {
    checks.Expect(triggered.tps < results[i].tps,
                  "Stable triggered is slower than " + results[i].name);
    checks.Expect(triggered.forces > results[i].forces,
                  "Stable triggered forces more than " + results[i].name);
  }
  std::printf("\n");

  WriteMetricsSnapshots("BENCH_throughput_metrics.json", snapshots);

  // ---- Execution profile ----------------------------------------------
  Header("Execution profile: where simulated time goes",
         "Machine::Tick attribution per phase path");
  Harness h(ProfileConfig());
  HarnessReport r = MustRun(h);
  std::printf("txn/sim-s %s over %llu steps, %zu phase cells\n",
              Fmt(r.throughput_tps(), 1).c_str(),
              static_cast<unsigned long long>(r.steps),
              r.profile.phases.size());
  WriteMetricsSnapshots("BENCH_exec_profile.json",
                        {{"profile", ProfileJsonFromReport(r)}});
  std::ofstream out("BENCH_exec_profile.collapsed");
  if (out) {
    out << r.profile.ToCollapsed();
    std::printf("wrote BENCH_exec_profile.collapsed\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_exec_profile.collapsed\n");
  }
  return checks.ExitCode();
}

}  // namespace
}  // namespace smdb::bench

int main() { return smdb::bench::Run(); }
