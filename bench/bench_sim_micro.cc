// Host-level microbenchmarks (google-benchmark) of the simulator and
// database primitives: how fast the reproduction itself executes. These
// measure wall-clock ns/op of the simulation, complementing the
// simulated-time experiment drivers.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/database.h"

namespace smdb {
namespace {

void BM_MachineLocalWrite(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  Machine m(cfg);
  Addr a = m.AllocShared(128);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.WriteValue(0, a, ++v));
  }
}
BENCHMARK(BM_MachineLocalWrite);

void BM_MachineRemotePingPong(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  Machine m(cfg);
  Addr a = m.AllocShared(128);
  uint64_t v = 0;
  NodeId n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.WriteValue(n, a, ++v));
    n = (n + 1) % 2;  // alternate writers: every write migrates the line
  }
}
BENCHMARK(BM_MachineRemotePingPong);

void BM_LineLockAcquireRelease(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  Machine m(cfg);
  LineAddr line = m.LineOf(m.AllocShared(128));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.GetLine(0, line));
    m.ReleaseLine(0, line);
  }
}
BENCHMARK(BM_LineLockAcquireRelease);

// Per-layer benches at realistic state size: the costs that grow with
// simulated state only show against a machine and logs of the size a long
// run builds up (perfbench's steady_long ends with ~3.4k lines, ~13.5k
// cached copies and stable streams of ~10k records per node).

// Random writers over 8 nodes x 4096 lines: almost every write migrates
// its line from another node's cache.
void BM_MachineRandomMigration(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_nodes = 8;
  Machine m(cfg);
  const size_t kLines = 4096;
  Addr base = m.AllocShared(kLines * cfg.line_size);
  Rng rng(7);
  for (size_t i = 0; i < kLines; ++i) {
    (void)m.WriteValue<uint64_t>(i % 8, base + i * cfg.line_size, i);
  }
  uint64_t v = 0;
  for (auto _ : state) {
    NodeId n = static_cast<NodeId>(rng.Uniform(8));
    Addr a = base + rng.Uniform(kLines) * cfg.line_size;
    benchmark::DoNotOptimize(m.WriteValue(n, a, ++v));
  }
  state.counters["migrations"] = static_cast<double>(m.stats().migrations);
}
BENCHMARK(BM_MachineRandomMigration);

// Selective Redo's sequential cache scan of one survivor whose cache holds
// about 1700 of 4096 lines (13.5k copies over 8 nodes).
void BM_SelectiveRedoCacheScan(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_nodes = 8;
  Machine m(cfg);
  const size_t kLines = 4096;
  Addr base = m.AllocShared(kLines * cfg.line_size);
  Rng rng(11);
  for (NodeId n = 0; n < 8; ++n) {
    for (int i = 0; i < 2400; ++i) {
      (void)m.ReadValue<uint64_t>(
          n, base + rng.Uniform(kLines) * cfg.line_size);
    }
  }
  std::vector<LineAddr> lines;
  for (auto _ : state) {
    lines.clear();
    m.ForEachCachedLine(3, [&](LineAddr line) { lines.push_back(line); });
    benchmark::DoNotOptimize(lines.data());
  }
  state.counters["lines"] = static_cast<double>(lines.size());
}
BENCHMARK(BM_SelectiveRedoCacheScan);

// Appends a commit-sized batch (8 records) and forces it onto a stable
// stream of 10k-18k records; every 1000 forces a checkpoint-style
// truncation (untimed) cuts the stream back to 10k.
void BM_LogAppendForceLongStream(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_nodes = 2;
  Machine m(cfg);
  StableLogStore stable(2);
  LogManager log(&m, &stable);
  auto update = [](uint64_t usn) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn = MakeTxnId(0, 1);
    UpdatePayload u;
    u.rid = RecordId{1, 0};
    u.usn = usn;
    u.before.assign(22, 0);
    u.after.assign(22, 1);
    rec.payload = std::move(u);
    return rec;
  };
  uint64_t usn = 0;
  for (int i = 0; i < 10000; ++i) log.Append(0, update(++usn));
  (void)log.Force(0, 0);
  uint64_t forces = 0;
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) log.Append(0, update(++usn));
    benchmark::DoNotOptimize(log.Force(0, 0));
    if (++forces % 1000 == 0) {
      state.PauseTiming();
      log.TruncateThrough(0, log.stable_lsn(0) - 10000);
      state.ResumeTiming();
    }
  }
  state.counters["stream"] = static_cast<double>(stable.Records(0).size());
}
BENCHMARK(BM_LogAppendForceLongStream);

void BM_LockTableAcquireRelease(benchmark::State& state) {
  DatabaseConfig dc;
  dc.machine.num_nodes = 4;
  Database db(dc);
  TxnId t = MakeTxnId(0, 1);
  uint64_t name = 0;
  for (auto _ : state) {
    ++name;
    benchmark::DoNotOptimize(
        db.locks().Acquire(0, t, name % 500 + 1, LockMode::kExclusive,
                           nullptr));
    benchmark::DoNotOptimize(db.locks().Release(0, t, name % 500 + 1,
                                                nullptr));
  }
}
BENCHMARK(BM_LockTableAcquireRelease);

void BM_BTreeInsert(benchmark::State& state) {
  DatabaseConfig dc;
  dc.machine.num_nodes = 4;
  Database db(dc);
  Lsn chain = kInvalidLsn;
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.index().Insert(
        0, MakeTxnId(0, 1), ++key, RecordId{1, 0}, kTagNone, &chain));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_TxnUpdateCommit(benchmark::State& state) {
  DatabaseConfig dc;
  dc.machine.num_nodes = 4;
  Database db(dc);
  auto table = db.CreateTable(128);
  std::vector<uint8_t> value(22, 7);
  uint64_t i = 0;
  for (auto _ : state) {
    Transaction* t = db.txn().Begin(i % 4);
    benchmark::DoNotOptimize(db.txn().Update(t, (*table)[i % 128], value));
    benchmark::DoNotOptimize(db.txn().Commit(t));
    ++i;
  }
}
BENCHMARK(BM_TxnUpdateCommit);

void BM_CrashRecoverySelectiveRedo(benchmark::State& state) {
  std::vector<uint8_t> value(22, 7);
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseConfig dc;
    dc.machine.num_nodes = 4;
    dc.recovery = RecoveryConfig::VolatileSelectiveRedo();
    Database db(dc);
    auto table = db.CreateTable(128);
    (void)db.Checkpoint(0);
    for (int i = 0; i < 32; ++i) {
      Transaction* t = db.txn().Begin(i % 4);
      (void)db.txn().Update(t, (*table)[i], value);
      (void)db.txn().Commit(t);
    }
    Transaction* active = db.txn().Begin(1);
    (void)db.txn().Update(active, (*table)[0], value);
    state.ResumeTiming();
    benchmark::DoNotOptimize(db.Crash({1}));
  }
}
BENCHMARK(BM_CrashRecoverySelectiveRedo);

}  // namespace
}  // namespace smdb

BENCHMARK_MAIN();
