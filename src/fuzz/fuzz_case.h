#ifndef SMDB_FUZZ_FUZZ_CASE_H_
#define SMDB_FUZZ_FUZZ_CASE_H_

#include <cstdint>
#include <vector>

#include "common/json.h"
#include "workload/harness.h"

namespace smdb {

/// One fully-specified fuzz scenario: machine size, table, workload spec,
/// crash schedule, steal/checkpoint cadences, and the harness seed. A
/// FuzzCase plus a RecoveryConfig determines a run bit-exactly — every
/// source of randomness downstream is derived from the seeds stored here.
struct FuzzCase {
  uint16_t num_nodes = 4;
  uint32_t num_records = 64;
  uint16_t record_data_size = 22;
  WorkloadSpec workload;
  std::vector<CrashPlan> crashes;
  double steal_flush_prob = 0.0;
  uint64_t checkpoint_every_steps = 0;
  uint64_t harness_seed = 0;
  /// The executor's interleaving. Replay documents that predate the field
  /// read as uniform, the only interleaving there was.
  SchedulePolicy schedule = SchedulePolicy::kUniform;

  json::Value ToJson() const;
  static Result<FuzzCase> FromJson(const json::Value& v);
};

/// Deterministically samples a scenario from `seed` (equal seeds, equal
/// cases): machine of 2..8 nodes, a small heavily-shared table, a workload
/// from SampleWorkloadSpec, and a crash schedule from SampleCrashPlans —
/// multi-node plans, repeated crashes of one node, crash-with-restart,
/// crash-all, steps past drain, duplicate node ids — and a 50/50 schedule
/// policy, drawn last so every other field matches earlier samplers.
FuzzCase SampleFuzzCase(uint64_t seed);

/// Assembles the HarnessConfig that runs `fuzz_case` under `protocol`.
HarnessConfig MakeHarnessConfig(const FuzzCase& fuzz_case,
                                const RecoveryConfig& protocol);

}  // namespace smdb

#endif  // SMDB_FUZZ_FUZZ_CASE_H_
