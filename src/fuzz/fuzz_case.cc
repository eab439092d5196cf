#include "fuzz/fuzz_case.h"

#include "common/rng.h"
#include "workload/spec_json.h"

namespace smdb {

json::Value FuzzCase::ToJson() const {
  json::Value v = json::Value::Object();
  v.Set("num_nodes", json::Value::Uint(num_nodes));
  v.Set("num_records", json::Value::Uint(num_records));
  v.Set("record_data_size", json::Value::Uint(record_data_size));
  v.Set("workload", smdb::ToJson(workload));
  v.Set("crashes", smdb::ToJson(crashes));
  v.Set("steal_flush_prob", json::Value::Double(steal_flush_prob));
  v.Set("checkpoint_every_steps", json::Value::Uint(checkpoint_every_steps));
  v.Set("harness_seed", json::Value::Uint(harness_seed));
  v.Set("schedule", json::Value::Str(SchedulePolicyName(schedule)));
  return v;
}

Result<FuzzCase> FuzzCase::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("fuzz case: expected object");
  }
  FuzzCase c;
  c.num_nodes = static_cast<uint16_t>(v.GetUint("num_nodes", c.num_nodes));
  if (c.num_nodes == 0) {
    return Status::InvalidArgument("fuzz case: num_nodes must be > 0");
  }
  c.num_records =
      static_cast<uint32_t>(v.GetUint("num_records", c.num_records));
  c.record_data_size = static_cast<uint16_t>(
      v.GetUint("record_data_size", c.record_data_size));
  const json::Value* w = v.Find("workload");
  if (w != nullptr) {
    SMDB_ASSIGN_OR_RETURN(c.workload, WorkloadSpecFromJson(*w));
  }
  const json::Value* crashes = v.Find("crashes");
  if (crashes != nullptr) {
    SMDB_ASSIGN_OR_RETURN(c.crashes, CrashPlansFromJson(*crashes));
  }
  c.steal_flush_prob = v.GetDouble("steal_flush_prob", c.steal_flush_prob);
  c.checkpoint_every_steps =
      v.GetUint("checkpoint_every_steps", c.checkpoint_every_steps);
  c.harness_seed = v.GetUint("harness_seed", c.harness_seed);
  std::optional<SchedulePolicy> schedule = ParseSchedulePolicy(
      v.GetString("schedule", SchedulePolicyName(SchedulePolicy::kUniform)));
  if (!schedule) {
    return Status::InvalidArgument("fuzz case: unknown schedule");
  }
  c.schedule = *schedule;
  return c;
}

FuzzCase SampleFuzzCase(uint64_t seed) {
  // Decorrelate from the many small seeds tests use directly.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xF1EA5EED);
  FuzzCase c;
  c.num_nodes = static_cast<uint16_t>(rng.Range(2, 8));
  c.num_records = static_cast<uint32_t>(rng.Range(1, 4)) * 32;
  const uint16_t kRecordSizes[] = {16, 22, 30};
  c.record_data_size = kRecordSizes[rng.Uniform(3)];
  c.workload = SampleWorkloadSpec(rng);
  // One executor step is one op; horizon approximates the drain point
  // (each txn runs ops_per_txn ops plus its commit/abort).
  uint64_t horizon = uint64_t(c.num_nodes) * c.workload.txns_per_node *
                     (c.workload.ops_per_txn + 1);
  c.crashes = SampleCrashPlans(rng, c.num_nodes, horizon);
  c.steal_flush_prob = rng.Bernoulli(0.5) ? 0.03 : 0.0;
  c.checkpoint_every_steps = rng.Bernoulli(0.35) ? rng.Range(40, 160) : 0;
  c.harness_seed = rng.Next();
  c.schedule = rng.Bernoulli(0.5) ? SchedulePolicy::kTimeOrdered
                                  : SchedulePolicy::kUniform;
  return c;
}

HarnessConfig MakeHarnessConfig(const FuzzCase& fuzz_case,
                                const RecoveryConfig& protocol) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = fuzz_case.num_nodes;
  cfg.db.record_data_size = fuzz_case.record_data_size;
  cfg.db.recovery = protocol;
  cfg.num_records = fuzz_case.num_records;
  cfg.workload = fuzz_case.workload;
  cfg.crashes = fuzz_case.crashes;
  cfg.steal_flush_prob = fuzz_case.steal_flush_prob;
  cfg.checkpoint_every_steps = fuzz_case.checkpoint_every_steps;
  cfg.seed = fuzz_case.harness_seed;
  cfg.schedule = fuzz_case.schedule;
  cfg.verify = true;
  return cfg;
}

}  // namespace smdb
