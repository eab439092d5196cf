#ifndef SMDB_OBS_PROFILER_H_
#define SMDB_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace smdb {

struct HarnessReport;

/// Hierarchical sim-time phases. Roots (kStep, kSweep, kRecovery) open an
/// attribution window; the others nest inside it.
enum class ProfPhase : uint8_t {
  kStep,      ///< one executor step
  kSweep,     ///< one sweeper discharge
  kRecovery,  ///< the eager crash-time recovery prefix
  kLockWait,
  kCoherence,
  kWalAppend,
  kWalForce,
  kIndexDescent,
  kApply,
};
const char* ProfPhaseName(ProfPhase p);

struct ProfilerConfig {
  /// Runtime switch. Attribution only observes Machine::Tick charges, so
  /// enabling the profiler never changes the run it profiles.
  bool enabled = false;
};

/// One collapsed-stack bucket: total sim-ns of Machine::Tick charges that
/// landed while this exact phase path was innermost, how many Tick calls
/// those were, and how many times the path was entered.
struct ProfPhaseCell {
  SimTime ns = 0;
  uint64_t ticks = 0;
  uint64_t samples = 0;
};

/// Copyable end-of-run snapshot (rides in HarnessReport::profile).
struct ProfilerReport {
  bool enabled = false;
  /// Keyed by semicolon-joined phase path ("step;apply;wal_append").
  std::map<std::string, ProfPhaseCell> phases;

  json::Value ToJson() const;
  /// flamegraph.pl-compatible collapsed stacks: "stack ns\n" per bucket.
  std::string ToCollapsed() const;
};

/// The execution/recovery profiler: exact sim-time cost accounting per
/// phase. Time attribution piggybacks on Machine::Tick — every
/// simulated-time charge that lands while a root scope is open is credited
/// to the innermost phase path, so there is no clock sampling and no
/// self-time reconstruction.
class Profiler {
 public:
  explicit Profiler(ProfilerConfig cfg = {}) : enabled_(cfg.enabled) {}

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const {
#ifdef SMDB_PROFILER_DISABLED
    return false;
#else
    return enabled_;
#endif
  }
  void set_enabled(bool on) { enabled_ = on; }

  /// True when a root scope is open — the gate every emission site
  /// checks first.
  bool InScope() const { return depth_ > 0; }

  // -- Sim-time attribution (use ProfRoot / ProfScope, not these) ---------
  void OnTick(SimTime ns) {
    if (cur_ != nullptr) {
      cur_->ns += ns;
      ++cur_->ticks;
    }
  }
  void BeginRoot(ProfPhase root);
  void EndRoot();
  void Enter(ProfPhase phase);
  void Exit();

  ProfilerReport Snapshot() const;
  void Reset();

 private:
  uint32_t depth_ = 0;
  bool enabled_ = false;
  std::map<std::string, ProfPhaseCell> cells_;
  std::string path_;
  std::vector<size_t> frames_;  ///< path_ lengths to restore on Exit
  ProfPhaseCell* cur_ = nullptr;
};

/// RAII attribution window for one unit of work (an executor step, a
/// sweeper discharge, the recovery prefix). No-ops when the profiler is
/// null/disabled or a root is already open.
class ProfRoot {
 public:
#ifdef SMDB_PROFILER_DISABLED
  ProfRoot(Profiler*, ProfPhase) {}
#else
  ProfRoot(Profiler* p, ProfPhase root) {
    if (p != nullptr && p->enabled() && !p->InScope()) {
      p_ = p;
      p->BeginRoot(root);
    }
  }
  ~ProfRoot() {
    if (p_ != nullptr) p_->EndRoot();
  }

 private:
  Profiler* p_ = nullptr;
#endif
  ProfRoot(const ProfRoot&) = delete;
  ProfRoot& operator=(const ProfRoot&) = delete;
};

/// RAII nested phase. Engages only inside an open root.
class ProfScope {
 public:
#ifdef SMDB_PROFILER_DISABLED
  ProfScope(Profiler*, ProfPhase) {}
#else
  ProfScope(Profiler* p, ProfPhase phase) {
    if (p != nullptr && p->InScope()) {
      p_ = p;
      p->Enter(phase);
    }
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->Exit();
  }

 private:
  Profiler* p_ = nullptr;
#endif
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
};

/// Assembles the standalone profile document `smdb_run --profile-out` and
/// bench_throughput write (and smdb_profile_check validates).
json::Value ProfileJsonFromReport(const HarnessReport& report);

}  // namespace smdb

/// Tick hook (sim/machine.h): attributes a sim-time charge to the current
/// phase path. Compiled out under SMDB_PROFILER_DISABLED; otherwise one
/// branch when no root is open.
#ifdef SMDB_PROFILER_DISABLED
#define SMDB_PROF_TICK(prof_expr, ns) ((void)0)
#else
#define SMDB_PROF_TICK(prof_expr, ns)                        \
  do {                                                       \
    ::smdb::Profiler* smdb_prof_p = (prof_expr);             \
    if (smdb_prof_p != nullptr && smdb_prof_p->InScope()) {  \
      smdb_prof_p->OnTick(ns);                               \
    }                                                        \
  } while (0)
#endif

#endif  // SMDB_OBS_PROFILER_H_
