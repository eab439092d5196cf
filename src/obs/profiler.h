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
  kLockWait,  ///< lock-table acquisition (LCB reads/writes, queueing)
  kLineWait,  ///< queueing for a line lock held by another node
  kCoherence,
  kWalAppend,
  kWalForce,
  kIndexDescent,
  kApply,
};
/// Number of phases — smdb_profile_check builds its known-phase set by
/// iterating [0, kNumProfPhases). Keep in sync with the enum tail.
inline constexpr size_t kNumProfPhases =
    static_cast<size_t>(ProfPhase::kApply) + 1;
const char* ProfPhaseName(ProfPhase p);

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
  /// Attribution only observes Machine::Tick charges, so enabling the
  /// profiler never changes the run it profiles.
  explicit Profiler(bool enabled = false) : enabled_(enabled) {}

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_; }

  /// True when a root scope is open — the gate every emission site
  /// checks first.
  bool InScope() const { return depth_ > 0; }

  // -- Sim-time attribution (use ProfRoot / ProfScope / ProfTick from
  //    obs/instruments.h, not these) ---------------------------------------
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

 private:
  uint32_t depth_ = 0;
  bool enabled_ = false;
  std::map<std::string, ProfPhaseCell> cells_;
  std::string path_;
  std::vector<size_t> frames_;  ///< path_ lengths to restore on Exit
  ProfPhaseCell* cur_ = nullptr;
};

/// Assembles the standalone profile document `smdb_run --profile-out` and
/// bench_throughput write (and smdb_profile_check validates).
json::Value ProfileJsonFromReport(const HarnessReport& report);

}  // namespace smdb

#endif  // SMDB_OBS_PROFILER_H_
