// smdb_perfbench — smdb's end-to-end and per-layer benchmark driver.
//
//   smdb_perfbench --workload steady_long|crash_cycle|fuzz_campaign
//                  --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// One process, one host thread. The driver links libsmdb and reaches the
// simulator only through its public calls (Harness::Setup,
// SystemExecutor::StepOnce, NodeExecutor::Enqueue/OnCrash, Database::Crash/
// RestartNodes/Checkpoint, BufferManager::DirtyPages/FlushPage,
// IfaChecker::VerifyAll, ComputeStateDigest, WorkloadGenerator::Generate,
// SampleFuzzCase, CrashScheduleFuzzer::RunCase), timing them from outside
// and reading the public stats structs. See METRICS.md for what every
// metric means and which workload and end-to-end metric it should move.
//
// A run repeats one seeded episode until --seconds have passed. Host times
// are medians (and p90s) over many samples inside the run: commit windows,
// crashes or fuzz cases, each the fastest of its repetitions across the
// episodes. Everything simulated repeats exactly from episode to episode;
// any drift fails the run as nondeterminism. The last line of stdout is one
// JSON object; any failed check exits 2 without printing it.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/state_digest.h"
#include "fuzz/fuzzer.h"
#include "workload/harness.h"

namespace smdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) { return double(NowNs() - start_ns) / 1e6; }

std::string g_workload;  // named in every failure message

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: workload %s FAILED: %s\n",
               g_workload.c_str(), why.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Spans (--trace 1): recorded in memory around every public call, written
// out at the end. A span's self time is its duration minus its children's.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
};

class SpanLog {
 public:
  int32_t Open(const char* name) {
    int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void Close(int32_t id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for its lifetime; does nothing without a log.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->Open(name) : -1) {}
  ~Scope() {
    if (log_) log_->Close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Microseconds since the span opened (traced runs only).
  double ElapsedUs() const {
    return double(NowNs() - log_->spans()[id_].start_ns) / 1e3;
  }

 private:
  SpanLog* log_;
  int32_t id_;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

void AddSpanTotals(const SpanLog& log, std::map<std::string, SpanTotals>* out) {
  const auto& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = (*out)[spans[i].name];
    int64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++t.count;
    t.total_ms += double(dur) / 1e6;
    t.self_ms += double(dur - child_ns[i]) / 1e6;
  }
}

void WriteSpans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) Fail("cannot write spans to " + path);
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  const auto& spans = log.spans();
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    out << i << '\t' << spans[i].parent << '\t' << spans[i].name << '\t'
        << spans[i].start_ns - t0 << '\t' << spans[i].end_ns - t0 << '\n';
  }
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Pct(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double Median(const std::vector<double>& v) { return Pct(v, 0.5); }

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

// ---------------------------------------------------------------------------
// Host speed. Other tenants of the host slow memory-bound code by up to 2x
// for minutes at a time, far longer than a run. A fixed reference kernel,
// timed around every episode, measures that slowdown; host times are
// reported at the reference speed, i.e. scaled by
// kReferenceProbeMs / (the probe's time around the episode).

volatile uint64_t g_probe_sink;  // keeps the probe's work observable

/// Hash-map churn with small allocations: the access pattern that dominates
/// smdb's host time, and the one whose slowdown tracks smdb's best.
double ProbeOnceMs() {
  int64_t t0 = NowNs();
  std::unordered_map<uint64_t, std::vector<uint8_t>> m;
  uint64_t sum = 0;
  for (uint64_t k = 0; k < 60000; ++k) {
    std::vector<uint8_t>& e = m[(k * 7919) % 40000];
    e.push_back(static_cast<uint8_t>(k));
    sum += e.size();
    if (k % 3 == 0) m.erase((k * 31) % 40000);
  }
  g_probe_sink = sum;
  return MsSince(t0);
}

/// Median of three probes, in ms.
double ProbeMs() {
  std::vector<double> v = {ProbeOnceMs(), ProbeOnceMs(), ProbeOnceMs()};
  std::sort(v.begin(), v.end());
  return v[1];
}

/// The probe's time on an unloaded 4-CPU Xeon VM (-O2 build): the speed
/// every host time is reported at.
constexpr double kReferenceProbeMs = 5.0;

/// Element-wise minimum of one host-time sample series over a run's
/// episodes, each sample first scaled to the reference speed. Every episode
/// repeats identical simulated work, so sample i is the same window, crash
/// or case each time; its fastest repetition is the one least slowed by
/// other load on the host (which only ever adds time).
template <typename Episode>
std::vector<double> BestOf(const std::vector<Episode>& eps,
                           std::vector<double> Episode::*series) {
  std::vector<double> best(eps.front().*series);
  for (double& b : best) b *= eps.front().speed;
  for (const Episode& ep : eps) {
    const std::vector<double>& v = ep.*series;
    if (v.size() != best.size()) {
      Fail("nondeterminism: sample counts changed between runs of one seed");
    }
    for (size_t i = 0; i < v.size(); ++i) {
      best[i] = std::min(best[i], v[i] * ep.speed);
    }
  }
  return best;
}

/// Every set-up sample of the run, in seconds at the reference speed.
template <typename Episode>
std::vector<double> SetupSeconds(const std::vector<Episode>& untraced,
                                 const std::vector<Episode>& traced) {
  std::vector<double> out;
  for (const auto* set : {&untraced, &traced}) {
    for (const Episode& ep : *set) {
      for (double s : ep.setup_samples_s) out.push_back(s * ep.speed);
    }
  }
  return out;
}

/// Peak resident memory of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's memory at fork: Linux keeps it
/// across exec.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  Fail("cannot read VmHWM from /proc/self/status");
}

/// Deterministic per-episode values: must repeat exactly for one seed.
using Counters = std::map<std::string, double>;

void CheckRepeat(const Counters& a, const Counters& b, const char* what) {
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it != b.end() && it->second != v) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "nondeterminism: %s %s changed between runs of one "
                    "seed (%.17g vs %.17g)",
                    what, k.c_str(), v, it->second);
      Fail(buf);
    }
  }
}

void CheckRepeat(const std::vector<double>& a, const std::vector<double>& b,
                 const char* what) {
  if (a != b) {
    Fail(std::string("nondeterminism: ") + what +
         " samples changed between runs of one seed");
  }
}

// ---------------------------------------------------------------------------
// Workloads.

/// Commits per host/sim timing window of the run loop.
constexpr uint64_t kWindowCommits = 64;
/// A client keeps at most this many scripts queued (in flight included).
constexpr size_t kClientDepth = 2;
/// Fuzz seeds per campaign sweep; every seed runs all DefaultProtocols().
constexpr uint64_t kFuzzSeeds = 150;
/// The fixed case every fuzz set-up runs once as a warm-up.
constexpr uint64_t kWarmupFuzzSeed = 7;
/// Set-ups timed per episode (the episode's own plus discarded extras), so
/// setup_s is a median of samples spread over the whole run.
constexpr int kSetupsPerEpisode = 3;

struct LoopSpec {
  /// The full configuration; Harness::Setup runs it with no scripts and
  /// the driver's clients feed the generated scripts instead.
  HarnessConfig cfg;
  /// Crash one node round-robin (and restart it) every N steps; 0 = never.
  uint64_t crash_every_steps = 0;
};

HarnessConfig BaseConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = 8;
  cfg.db.recovery = RecoveryConfig::VolatileSelectiveRedo();
  cfg.workload.ops_per_txn = 8;
  cfg.workload.write_ratio = 0.5;
  cfg.workload.index_op_ratio = 0.15;
  cfg.workload.voluntary_abort_ratio = 0.05;
  cfg.workload.seed = seed;
  cfg.seed = seed ^ 0xBEEF;
  cfg.steal_flush_prob = 0.01;
  return cfg;
}

// Execution-bound: a large table, long per-node logs, no crashes.
LoopSpec SteadyLong(uint64_t seed) {
  LoopSpec s{BaseConfig(seed), 0};
  s.cfg.num_records = 4096;
  s.cfg.workload.txns_per_node = 600;
  return s;
}

// Recovery-bound: the dense 256-record table, dirty reads, frequent
// single-node crashes with restart, checkpoints keeping logs short.
LoopSpec CrashCycle(uint64_t seed) {
  LoopSpec s{BaseConfig(seed), 300};
  s.cfg.num_records = 256;
  s.cfg.workload.txns_per_node = 450;
  s.cfg.workload.dirty_read_ratio = 0.1;
  s.cfg.checkpoint_every_steps = 2000;
  return s;
}

/// Closed-loop clients, one per node: each keeps at most kClientDepth
/// scripts queued, resubmits what a crash dropped once its node restarts,
/// and classifies every finished script as committed, voluntarily aborted
/// (as scripted) or dropped (retries exhausted: a failed request).
class Clients {
 public:
  Clients(std::vector<std::vector<TxnScript>> scripts, SystemExecutor* exec,
          SpanLog* spans)
      : scripts_(std::move(scripts)), exec_(exec), spans_(spans) {
    size_t n = scripts_.size();
    next_.assign(n, 0);
    given_.resize(n);
    seen_committed_.assign(n, 0);
    seen_other_.assign(n, 0);
    for (NodeId node = 0; node < n; ++node) Refill(node);
  }

  /// Retires scripts the last step finished and tops every client up.
  void Collect() {
    for (NodeId node = 0; node < given_.size(); ++node) {
      NodeExecutor& e = exec_->executor(node);
      while (given_[node].size() > e.pending()) {
        size_t idx = given_[node].front();
        given_[node].pop_front();
        const ExecutorStats& st = e.stats();
        const std::vector<Op>& ops = scripts_[node][idx].ops;
        if (st.committed > seen_committed_[node]) {
          ++commits_;
        } else if (!ops.empty() && ops.back().kind == Op::Kind::kAbort &&
                   st.aborted_other > seen_other_[node]) {
          ++voluntary_;
        } else {
          ++dropped_;
        }
        seen_committed_[node] = st.committed;
        seen_other_[node] = st.aborted_other;
      }
      Refill(node);
    }
  }

  /// After the node restarts: re-enqueue the scripts its crash dropped.
  void Resubmit(NodeId node) {
    for (size_t idx : given_[node]) Enqueue(node, idx);
  }

  uint64_t commits() const { return commits_; }
  uint64_t voluntary() const { return voluntary_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void Refill(NodeId node) {
    NodeExecutor& e = exec_->executor(node);
    while (e.pending() < kClientDepth &&
           next_[node] < scripts_[node].size()) {
      given_[node].push_back(next_[node]);
      Enqueue(node, next_[node]++);
    }
  }
  void Enqueue(NodeId node, size_t idx) {
    Scope sc(spans_, "NodeExecutor::Enqueue");
    exec_->executor(node).Enqueue(scripts_[node][idx]);
  }

  std::vector<std::vector<TxnScript>> scripts_;
  SystemExecutor* exec_;
  SpanLog* spans_;
  std::vector<size_t> next_;
  std::vector<std::deque<size_t>> given_;  // handed out, not yet finished
  std::vector<uint64_t> seen_committed_;
  std::vector<uint64_t> seen_other_;
  uint64_t commits_ = 0;
  uint64_t voluntary_ = 0;
  uint64_t dropped_ = 0;
};

/// Steps classified by which public counters a StepOnce call moved.
enum StepClass { kForceStep, kIndexStep, kAbortStep, kWaitStep, kNumClasses };
constexpr const char* kStepClassNames[kNumClasses] = {
    "wal.force_step", "btree.index_step", "txn.abort_step",
    "lockmgr.wait_step"};

struct LoopEpisode {
  // Host times (vary run to run).
  double speed = 1;  // reference probe time / probe time around the episode
  std::vector<double> setup_samples_s;
  double setup_ms = 0;
  double harness_setup_ms = 0;
  double generate_ms = 0;
  double loop_ms = 0;
  double digest_ms = 0;
  std::vector<double> window_us_per_commit;
  std::vector<double> window_ms;
  std::vector<double> crash_ms;
  std::vector<double> flush_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> verify_ms;
  std::vector<double> step_us;                          // traced only
  std::array<std::vector<double>, kNumClasses> class_us;  // traced only
  // Simulated outputs (repeat exactly for one seed).
  Counters det;
  std::vector<double> sim_window_ms;
  std::vector<double> sim_recovery_ms;
  std::vector<double> sim_ttfc_ms;
  std::array<std::vector<double>, kNumRecoveryPhases> phase_sim_ms;
  StateDigest digest;
};

struct StepCounters {
  uint64_t forces, index_ops, aborts, lock_waits;
};

StepCounters ReadStepCounters(Database& db, SystemExecutor& exec) {
  const BTreeStats& bt = db.index().stats();
  return {db.log().stats().forces, bt.inserts + bt.deletes + bt.lookups,
          db.txn().stats().aborts, exec.TotalStats().lock_waits};
}

size_t MaxStableLogRecords(Database& db) {
  size_t m = 0;
  for (NodeId n = 0; n < db.machine().num_nodes(); ++n) {
    m = std::max(m, db.stable_log().Records(n).size());
  }
  return m;
}

/// An episode's set-up: Harness::Setup with no scripts, then the generated
/// scripts the clients will feed.
struct LoopSetup {
  std::unique_ptr<Harness> harness;
  std::vector<std::vector<TxnScript>> scripts;
  double harness_setup_ms = 0;
  double generate_ms = 0;
};

LoopSetup SetUpLoop(const LoopSpec& spec, SpanLog* spans) {
  LoopSetup s;
  HarnessConfig setup_cfg = spec.cfg;
  setup_cfg.workload.txns_per_node = 0;  // the clients feed the scripts
  Scope setup(spans, "episode.setup");
  int64_t t0 = NowNs();
  s.harness = std::make_unique<Harness>(setup_cfg);
  {
    Scope sc(spans, "Harness::Setup");
    Check(s.harness->Setup(), "Harness::Setup");
  }
  s.harness_setup_ms = MsSince(t0);
  int64_t tg = NowNs();
  {
    Scope sc(spans, "WorkloadGenerator::Generate");
    WorkloadGenerator gen(spec.cfg.workload, s.harness->table(),
                          spec.cfg.db.machine.num_nodes,
                          spec.cfg.db.record_data_size);
    s.scripts = gen.Generate();
  }
  s.generate_ms = MsSince(tg);
  return s;
}

LoopEpisode RunLoopEpisode(const LoopSpec& spec, SpanLog* spans) {
  LoopEpisode ep;
  const HarnessConfig& cfg = spec.cfg;
  const uint16_t nodes = cfg.db.machine.num_nodes;

  int64_t t0 = NowNs();
  LoopSetup setup = SetUpLoop(spec, spans);
  ep.setup_ms = MsSince(t0);
  ep.harness_setup_ms = setup.harness_setup_ms;
  ep.generate_ms = setup.generate_ms;
  Harness& h = *setup.harness;
  std::vector<std::vector<TxnScript>> scripts = std::move(setup.scripts);

  Database& db = h.db();
  SystemExecutor& exec = h.executor();
  IfaChecker& checker = h.checker();
  Rng steal_rng(cfg.seed);  // the same stream Harness::Run's daemon draws

  uint64_t crashes = 0, checkpoints = 0, steal_flushes = 0, gate_forces = 0;
  uint64_t recovery_disk_reads = 0, forced_aborts = 0;
  size_t stable_log_max = 0;
  Counters rec;  // RecoveryOutcome work counters summed over crashes
  std::vector<SimTime> ttfc_pending;  // crash start times awaiting a commit
  uint64_t ttfc_base = 0;
  std::array<uint64_t, kNumClasses> class_steps{};

  auto verify = [&](const char* when) {
    int64_t tv = NowNs();
    Status v;
    {
      Scope sc(spans, "IfaChecker::VerifyAll");
      v = checker.VerifyAll();
    }
    ep.verify_ms.push_back(MsSince(tv));
    if (!v.ok()) Fail(std::string("IFA verification ") + when + ": " +
                      v.ToString());
  };

  int64_t loop_start = NowNs();
  {
    Scope loop(spans, "episode.loop");
    Clients clients(std::move(scripts), &exec, spans);
    uint64_t next_crash = spec.crash_every_steps;
    uint64_t win_commits = 0;
    int64_t win_host = NowNs();
    SimTime win_sim = db.machine().GlobalTime();

    while (true) {
      if (spec.crash_every_steps > 0 && exec.steps() >= next_crash) {
        next_crash += spec.crash_every_steps;
        NodeId victim = static_cast<NodeId>(crashes % nodes);
        ++crashes;
        stable_log_max = std::max(stable_log_max, MaxStableLogRecords(db));
        {
          Scope sc(spans, "NodeExecutor::OnCrash");
          exec.executor(victim).OnCrash();
        }
        SimTime sim_start = db.machine().GlobalTime();
        uint64_t reads_before = db.stable_db().reads();
        int64_t tc = NowNs();
        Result<RecoveryOutcome> out = [&] {
          Scope sc(spans, "Database::Crash");
          return db.Crash({victim});
        }();
        ep.crash_ms.push_back(MsSince(tc));
        Check(out.status(), "Database::Crash");
        const RecoveryOutcome& o = *out;
        recovery_disk_reads += db.stable_db().reads() - reads_before;
        forced_aborts += o.forced_aborts.size();
        ep.sim_recovery_ms.push_back(double(o.recovery_time_ns) / 1e6);
        for (size_t p = 0; p < kNumRecoveryPhases; ++p) {
          ep.phase_sim_ms[p].push_back(double(o.phase_ns[p]) / 1e6);
        }
        rec["redo_applied"] += double(o.redo_applied);
        rec["undo_applied"] += double(o.undo_applied);
        rec["tags_scanned"] += double(o.tags_scanned);
        rec["pages_reloaded"] += double(o.pages_reloaded);
        rec["lines_reinstalled"] += double(o.lines_reinstalled);
        verify("after a recovery");
        if (!o.forced_aborts.empty()) {
          Fail("recovery forced " + std::to_string(o.forced_aborts.size()) +
               " surviving-node aborts");
        }
        if (!o.whole_machine_restart) {
          Scope sc(spans, "Database::RestartNodes");
          db.RestartNodes({victim});
        }
        clients.Resubmit(victim);
        ttfc_pending.push_back(sim_start);
        ttfc_base = exec.TotalStats().committed;
      }

      bool stepped;
      if (spans == nullptr) {
        stepped = exec.StepOnce();
      } else {
        StepCounters before = ReadStepCounters(db, exec);
        double us;
        {
          Scope sc(spans, "SystemExecutor::StepOnce");
          stepped = exec.StepOnce();
          us = sc.ElapsedUs();
        }
        StepCounters after = ReadStepCounters(db, exec);
        if (stepped) {
          ep.step_us.push_back(us);
          bool moved[kNumClasses] = {after.forces != before.forces,
                                     after.index_ops != before.index_ops,
                                     after.aborts != before.aborts,
                                     after.lock_waits != before.lock_waits};
          for (int c = 0; c < kNumClasses; ++c) {
            if (!moved[c]) continue;
            ++class_steps[c];
            ep.class_us[c].push_back(us);
          }
        }
      }
      if (!stepped) break;
      clients.Collect();

      if (!ttfc_pending.empty() && exec.TotalStats().committed > ttfc_base) {
        SimTime now = db.machine().GlobalTime();
        for (SimTime t : ttfc_pending) {
          ep.sim_ttfc_ms.push_back(double(now - t) / 1e6);
        }
        ttfc_pending.clear();
      }

      if (cfg.steal_flush_prob > 0.0 &&
          steal_rng.Bernoulli(cfg.steal_flush_prob)) {
        std::vector<PageId> dirty;
        {
          Scope sc(spans, "BufferManager::DirtyPages");
          dirty = db.buffers().DirtyPages();
        }
        if (!dirty.empty()) {
          PageId page = dirty[steal_rng.Uniform(dirty.size())];
          std::vector<NodeId> alive = db.machine().AliveNodes();
          if (!alive.empty()) {
            NodeId node = alive[steal_rng.Uniform(alive.size())];
            uint64_t forces = db.log().stats().forces;
            int64_t tf = NowNs();
            Status s;
            {
              Scope sc(spans, "BufferManager::FlushPage");
              s = db.buffers().FlushPage(node, page);
            }
            ep.flush_us.push_back(double(NowNs() - tf) / 1e3);
            ++steal_flushes;
            gate_forces += db.log().stats().forces - forces;
            // Blocked by a crashed updater's tail or a lost line: the
            // steal daemon skips, as Harness::Run's does.
            if (!s.ok() && !s.IsNodeFailed() && !s.IsLineLost()) {
              Check(s, "BufferManager::FlushPage");
            }
          }
        }
      }

      if (cfg.checkpoint_every_steps > 0 &&
          exec.steps() % cfg.checkpoint_every_steps == 0) {
        std::vector<NodeId> alive = db.machine().AliveNodes();
        if (!alive.empty()) {
          stable_log_max = std::max(stable_log_max, MaxStableLogRecords(db));
          int64_t tk = NowNs();
          {
            Scope sc(spans, "Database::Checkpoint");
            Check(db.Checkpoint(alive[0]), "Database::Checkpoint");
          }
          ep.checkpoint_ms.push_back(MsSince(tk));
          ++checkpoints;
        }
      }

      if (clients.commits() - win_commits >= kWindowCommits) {
        int64_t now = NowNs();
        SimTime sim_now = db.machine().GlobalTime();
        double n = double(clients.commits() - win_commits);
        ep.window_ms.push_back(double(now - win_host) / 1e6);
        ep.window_us_per_commit.push_back(double(now - win_host) / 1e3 / n);
        ep.sim_window_ms.push_back(double(sim_now - win_sim) / 1e6);
        win_commits = clients.commits();
        win_host = now;
        win_sim = sim_now;
      }
    }
    ep.det["scripts.committed"] = double(clients.commits());
    ep.det["scripts.voluntary_aborts"] = double(clients.voluntary());
    ep.det["scripts.dropped"] = double(clients.dropped());
  }
  ep.loop_ms = MsSince(loop_start);

  verify("at the end of the run");
  int64_t td = NowNs();
  {
    Scope sc(spans, "ComputeStateDigest");
    ep.digest = ComputeStateDigest(db);
  }
  ep.digest_ms = MsSince(td);
  stable_log_max = std::max(stable_log_max, MaxStableLogRecords(db));

  const ExecutorStats es = exec.TotalStats();
  const MachineStats& ms = db.machine().stats();
  const LogStats& ls = db.log().stats();
  const LockTableStats& lk = db.locks().stats();
  const BTreeStats& bt = db.index().stats();
  Counters& d = ep.det;
  d["exec.committed"] = double(es.committed);
  d["exec.aborted_deadlock"] = double(es.aborted_deadlock);
  d["exec.aborted_other"] = double(es.aborted_other);
  d["exec.steps"] = double(exec.steps());
  d["sim.time_ns"] = double(db.machine().GlobalTime());
  d["machine.reads"] = double(ms.reads);
  d["machine.migrations"] = double(ms.migrations);
  d["machine.line_lock_acquires"] = double(ms.line_lock_acquires);
  d["machine.line_lock_wait_ns"] = double(ms.line_lock_wait_ns);
  d["log.appends"] = double(ls.appends);
  d["log.forces"] = double(ls.forces);
  d["log.forced_records"] = double(ls.forced_records);
  d["locks.acquires"] = double(lk.acquires);
  d["locks.queued"] = double(lk.queued);
  d["locks.lock_log_records"] = double(lk.lock_log_records);
  d["btree.splits"] = double(bt.splits);
  d["btree.early_commits"] = double(bt.early_commits);
  d["disk.reads"] = double(db.stable_db().reads());
  d["disk.writes"] = double(db.stable_db().writes());
  d["crashes"] = double(crashes);
  d["checkpoints"] = double(checkpoints);
  d["steal.flushes"] = double(steal_flushes);
  d["steal.gate_forces"] = double(gate_forces);
  d["recovery.disk_reads"] = double(recovery_disk_reads);
  d["recovery.forced_aborts"] = double(forced_aborts);
  d["stable_log.max_records"] = double(stable_log_max);
  for (const auto& [k, v] : rec) d["recovery." + k] = v;
  if (spans != nullptr) {
    for (int c = 0; c < kNumClasses; ++c) {
      d[std::string(kStepClassNames[c]) + "s"] = double(class_steps[c]);
    }
  }
  return ep;
}

// ---------------------------------------------------------------------------
// fuzz_campaign: a fixed seed range x DefaultProtocols() through RunCase.

struct FuzzEpisode {
  double speed = 1;  // reference probe time / probe time around the episode
  std::vector<double> setup_samples_s;
  double setup_ms = 0;
  double sample_ms = 0;
  double loop_ms = 0;
  std::vector<double> case_ms;
  std::vector<double> case_us_per_commit;
  std::map<std::string, std::vector<double>> proto_ms;
  std::vector<uint64_t> case_commits;  // deterministic, per RunCase
  Counters det;
};

std::vector<FuzzCase> SampleCases(uint64_t seed, SpanLog* spans) {
  std::vector<FuzzCase> cases;
  for (uint64_t i = 0; i < kFuzzSeeds; ++i) {
    Scope sc(spans, "SampleFuzzCase");
    cases.push_back(SampleFuzzCase(seed * 1000 + i));
  }
  return cases;
}

/// The campaign's set-up: sample every case, then run one warm-up case under
/// every protocol so the first timed cases do not pay first-touch costs
/// alone. The warm-up case is fixed, so set-up cost does not depend on the
/// seed.
std::vector<FuzzCase> SetUpFuzz(uint64_t seed, CrashScheduleFuzzer* fuzzer,
                                SpanLog* spans, double* sample_ms) {
  Scope setup(spans, "episode.setup");
  int64_t t0 = NowNs();
  std::vector<FuzzCase> cases = SampleCases(seed, spans);
  if (sample_ms != nullptr) *sample_ms = MsSince(t0);
  const FuzzCase warmup = SampleFuzzCase(kWarmupFuzzSeed);
  for (const RecoveryConfig& p : CrashScheduleFuzzer::DefaultProtocols()) {
    Scope sc(spans, "CrashScheduleFuzzer::RunCase");
    if (fuzzer->RunCase(warmup, p).failed) {
      Fail("warm-up fuzz case failed under " + p.FlagName());
    }
  }
  return cases;
}

FuzzEpisode RunFuzzEpisode(uint64_t seed, SpanLog* spans) {
  FuzzEpisode ep;
  const auto protocols = CrashScheduleFuzzer::DefaultProtocols();
  CrashScheduleFuzzer fuzzer;
  int64_t t0 = NowNs();
  std::vector<FuzzCase> cases = SetUpFuzz(seed, &fuzzer, spans, &ep.sample_ms);
  ep.setup_ms = MsSince(t0);

  int64_t loop_start = NowNs();
  {
    Scope loop(spans, "episode.loop");
    for (const FuzzCase& c : cases) {
      for (const RecoveryConfig& p : protocols) {
        uint64_t committed = fuzzer.stats().committed;
        int64_t tc = NowNs();
        FuzzVerdict v;
        {
          Scope sc(spans, "CrashScheduleFuzzer::RunCase");
          v = fuzzer.RunCase(c, p);
        }
        double ms = MsSince(tc);
        uint64_t n = fuzzer.stats().committed - committed;
        ep.case_ms.push_back(ms);
        ep.proto_ms[p.FlagName()].push_back(ms);
        ep.case_commits.push_back(n);
        if (n > 0) ep.case_us_per_commit.push_back(ms * 1e3 / double(n));
        if (v.failed) {
          Fail("fuzz verdict " + v.kind + " under " + p.FlagName() + ": " +
               v.detail);
        }
      }
    }
  }
  ep.loop_ms = MsSince(loop_start);
  fuzzer.stats().ForEachCounter(
      [&](const char* name, uint64_t v) {
        ep.det[std::string("fuzz.") + name] = double(v);
      });
  return ep;
}

/// The campaign's simulated outputs. RunCase reports only a verdict, so the
/// same (case, protocol) runs are replayed once through Harness::Run — the
/// run RunCase performs — and their committed counts must match RunCase's.
struct FuzzSim {
  std::vector<double> case_sim_ms;
  Counters det;  // summed HarnessReport counters
  std::vector<RecoveryOutcome> recoveries;
};

FuzzSim ReplayFuzzSim(uint64_t seed, const std::vector<uint64_t>& commits) {
  FuzzSim fs;
  const auto protocols = CrashScheduleFuzzer::DefaultProtocols();
  size_t i = 0;
  Counters& d = fs.det;
  for (const FuzzCase& c : SampleCases(seed, nullptr)) {
    for (const RecoveryConfig& p : protocols) {
      Harness h(MakeHarnessConfig(c, p));
      Result<HarnessReport> r = h.Run();
      Check(r.status(), "fuzz replay Harness::Run");
      if (r->exec.committed != commits[i++]) {
        Fail("fuzz replay of " + p.FlagName() +
             " committed a different count than RunCase");
      }
      fs.case_sim_ms.push_back(double(r->total_time_ns) / 1e6);
      d["exec.committed"] += double(r->exec.committed);
      d["exec.aborted_deadlock"] += double(r->exec.aborted_deadlock);
      d["exec.aborted_other"] += double(r->exec.aborted_other);
      d["sim.time_ns"] += double(r->total_time_ns);
      d["machine.reads"] += double(r->machine.reads);
      d["machine.migrations"] += double(r->machine.migrations);
      d["machine.line_lock_acquires"] += double(r->machine.line_lock_acquires);
      d["machine.line_lock_wait_ns"] += double(r->machine.line_lock_wait_ns);
      d["log.appends"] += double(r->logs.appends);
      d["log.forces"] += double(r->logs.forces);
      d["log.forced_records"] += double(r->logs.forced_records);
      d["locks.acquires"] += double(r->locks.acquires);
      d["locks.queued"] += double(r->locks.queued);
      d["locks.lock_log_records"] += double(r->locks.lock_log_records);
      d["btree.splits"] += double(r->btree.splits);
      d["btree.early_commits"] += double(r->btree.early_commits);
      for (const RecoveryOutcome& o : r->recoveries) {
        fs.recoveries.push_back(o);
        d["recovery.redo_applied"] += double(o.redo_applied);
        d["recovery.undo_applied"] += double(o.undo_applied);
        d["recovery.tags_scanned"] += double(o.tags_scanned);
        d["recovery.pages_reloaded"] += double(o.pages_reloaded);
        d["recovery.lines_reinstalled"] += double(o.lines_reinstalled);
      }
    }
  }
  d["crashes"] = double(fs.recoveries.size());
  return fs;
}

// ---------------------------------------------------------------------------
// Metric tables.

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0) and per-layer metrics (--trace 1), in
// BENCHMARK.json's order. Every workload reports every one; a layer a
// workload does not run reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"sim_tps", "txn/sim-s"},         {"sim_event_ms_p50", "sim-ms"},
    {"sim_event_ms_p90", "sim-ms"},   {"attempts_per_commit", "ratio"},
    {"setup_s", "s"},                 {"peak_rss_mb", "MB"},
};

// Run-loop host times. Between runs minutes apart they vary by more than
// the largest bound an end-to-end metric may have, so they are per-layer
// metrics (no bound); every run prints them.
constexpr MetricDef kHostDefs[] = {
    {"host.us_per_commit", "us"},
    {"host.event_ms_p50", "ms"},
    {"host.event_ms_p90", "ms"},
    {"host.speed_factor", "ratio"},
};

constexpr const char* kPhaseMetric[kNumRecoveryPhases] = {
    "core.phase.analysis_sim_ms", nullptr, "core.phase.reload_sim_ms",
    "core.phase.redo_sim_ms",     "core.phase.undo_sim_ms",
    "core.phase.tag_scan_sim_ms", "core.phase.lock_rebuild_sim_ms"};

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> defs(std::begin(kHostDefs), std::end(kHostDefs));
  std::vector<MetricDef> layers = {
      {"txn.step_us_p50", "us"},
      {"txn.step_us_p99", "us"},
      {"wal.force_step_us", "us"},
      {"wal.force_steps", "count"},
      {"wal.force_step_ms", "ms"},
      {"btree.index_step_us", "us"},
      {"btree.index_steps", "count"},
      {"btree.index_step_ms", "ms"},
      {"txn.abort_step_us", "us"},
      {"txn.abort_steps", "count"},
      {"txn.abort_step_ms", "ms"},
      {"lockmgr.wait_step_us", "us"},
      {"lockmgr.wait_steps", "count"},
      {"lockmgr.wait_step_ms", "ms"},
      {"txn.abort_ratio", "fraction"},
      {"sim.reads_per_commit", "count/commit"},
      {"sim.migrations_per_commit", "count/commit"},
      {"sim.line_lock_acquires_per_commit", "count/commit"},
      {"sim.line_lock_wait_ms", "sim-ms"},
      {"wal.appends_per_commit", "count/commit"},
      {"wal.forces_per_commit", "count/commit"},
      {"wal.records_per_force", "count/force"},
      {"storage.stable_log_records_max", "count"},
      {"lockmgr.acquires_per_commit", "count/commit"},
      {"lockmgr.queued_per_commit", "count/commit"},
      {"lockmgr.lock_log_records_per_commit", "count/commit"},
      {"btree.splits", "count"},
      {"btree.early_commits", "count"},
      {"core.redo_applied", "count/crash"},
      {"core.undo_applied", "count/crash"},
      {"core.tags_scanned", "count/crash"},
      {"core.pages_reloaded", "count/crash"},
      {"core.lines_reinstalled", "count/crash"},
  };
  defs.insert(defs.end(), layers.begin(), layers.end());
  for (const char* m : kPhaseMetric) {
    if (m != nullptr) defs.push_back({m, "sim-ms"});
  }
  std::vector<MetricDef> tail = {
      {"core.ttfc_sim_ms_p50", "sim-ms"},
      {"core.ttfc_sim_ms_p90", "sim-ms"},
      {"storage.disk_reads_per_crash", "count/crash"},
      {"db.steal_flush_us", "us"},
      {"db.wal_gate_forces", "count"},
      {"workload.generate_ms", "ms"},
      {"harness.setup_ms", "ms"},
      {"wal.checkpoint_ms", "ms"},
      {"core.verify_ms", "ms"},
      {"core.digest_ms", "ms"},
      {"core.crash_ms", "ms"},
      {"fuzz.sample_ms", "ms"},
  };
  defs.insert(defs.end(), tail.begin(), tail.end());
  static std::vector<std::string> proto_names;
  if (proto_names.empty()) {
    for (const RecoveryConfig& p : CrashScheduleFuzzer::DefaultProtocols()) {
      proto_names.push_back("fuzz.case_ms." + p.FlagName());
    }
  }
  for (const std::string& n : proto_names) defs.push_back({n.c_str(), "ms"});
  defs.push_back({"trace.overhead_ms", "ms"});
  return defs;
}

struct Value {
  double v = 0;
  size_t n = 0;  // samples behind the value (0 = a count or ratio)
};
using Metrics = std::map<std::string, Value>;

Value Get(const Metrics& m, const char* name) {
  auto it = m.find(name);
  return it == m.end() ? Value{} : it->second;
}

void PrintTable(const std::vector<MetricDef>& defs, const Metrics& m,
                const char* title) {
  std::printf("\n%s (workload %s)\n", title, g_workload.c_str());
  for (const MetricDef& d : defs) {
    Value val = Get(m, d.name);
    if (val.n > 0) {
      std::printf("  %-38s %14.6f %-12s n=%zu\n", d.name, val.v, d.unit,
                  val.n);
    } else {
      std::printf("  %-38s %14.6f %s\n", d.name, val.v, d.unit);
    }
  }
}

void PrintAndEmit(const std::vector<MetricDef>& defs, const Metrics& m,
                  uint64_t attempted, uint64_t failed, const char* title) {
  PrintTable(defs, m, title);
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    Value val = Get(m, d.name);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, val.v, d.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintSpanTable(const std::map<std::string, SpanTotals>& totals,
                    double overhead_ms, double untraced_ms) {
  std::printf("\nspans of the traced run (host ms, summed over traced "
              "episodes)\n");
  std::printf("  %-34s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : totals) {
    std::printf("  %-34s %10" PRIu64 " %12.3f %12.3f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
  std::printf("tracing overhead: %.3f ms per episode (%.1f%% of %.3f ms "
              "untraced)\n",
              overhead_ms,
              untraced_ms > 0 ? 100.0 * overhead_ms / untraced_ms : 0.0,
              untraced_ms);
}

double PerCommit(const Counters& d, const char* key) {
  double c = d.at("exec.committed");
  return c == 0 ? 0.0 : d.at(key) / c;
}

/// Per-layer values that come from simulated counters (loop or fuzz replay).
void FillSimLayers(const Counters& d, Metrics* m) {
  Metrics& out = *m;
  out["sim.reads_per_commit"] = {PerCommit(d, "machine.reads")};
  out["sim.migrations_per_commit"] = {PerCommit(d, "machine.migrations")};
  out["sim.line_lock_acquires_per_commit"] = {
      PerCommit(d, "machine.line_lock_acquires")};
  out["sim.line_lock_wait_ms"] = {d.at("machine.line_lock_wait_ns") / 1e6};
  out["wal.appends_per_commit"] = {PerCommit(d, "log.appends")};
  out["wal.forces_per_commit"] = {PerCommit(d, "log.forces")};
  double forces = d.at("log.forces");
  out["wal.records_per_force"] = {
      forces == 0 ? 0.0 : d.at("log.forced_records") / forces};
  out["lockmgr.acquires_per_commit"] = {PerCommit(d, "locks.acquires")};
  out["lockmgr.queued_per_commit"] = {PerCommit(d, "locks.queued")};
  out["lockmgr.lock_log_records_per_commit"] = {
      PerCommit(d, "locks.lock_log_records")};
  out["btree.splits"] = {d.at("btree.splits")};
  out["btree.early_commits"] = {d.at("btree.early_commits")};
  double crashes = d.at("crashes");
  for (const char* k : {"redo_applied", "undo_applied", "tags_scanned",
                        "pages_reloaded", "lines_reinstalled"}) {
    auto it = d.find(std::string("recovery.") + k);
    double total = it == d.end() ? 0.0 : it->second;
    out[std::string("core.") + k] = {crashes == 0 ? 0.0 : total / crashes};
  }
}

double AttemptsPerCommit(const Counters& d) {
  double c = d.at("exec.committed");
  if (c == 0) Fail("no transaction committed");
  return (c + d.at("exec.aborted_deadlock") + d.at("exec.aborted_other")) / c;
}

Value PctOf(const std::vector<double>& v, double q) {
  return {Pct(v, q), v.size()};
}

// ---------------------------------------------------------------------------
// Drivers.

template <typename Episode>
std::vector<double> Speeds(const std::vector<Episode>& eps) {
  std::vector<double> v;
  for (const Episode& ep : eps) v.push_back(ep.speed);
  return v;
}

/// host.*: run-loop host times from the untraced episodes, each sample the
/// fastest of its repetitions at the reference speed. The event is a
/// 64-commit window (steady_long) or one Database::Crash (crash_cycle).
void AddLoopHostMetrics(const std::vector<LoopEpisode>& untraced, bool crashy,
                        Metrics* m) {
  std::vector<double> ev = crashy ? BestOf(untraced, &LoopEpisode::crash_ms)
                                  : BestOf(untraced, &LoopEpisode::window_ms);
  (*m)["host.us_per_commit"] =
      PctOf(BestOf(untraced, &LoopEpisode::window_us_per_commit), 0.5);
  (*m)["host.event_ms_p50"] = PctOf(ev, 0.5);
  (*m)["host.event_ms_p90"] = PctOf(ev, 0.9);
  (*m)["host.speed_factor"] = PctOf(Speeds(untraced), 0.5);
}

/// host.* for fuzz_campaign, where the event is one RunCase.
void AddFuzzHostMetrics(const std::vector<FuzzEpisode>& untraced, Metrics* m) {
  std::vector<double> ev = BestOf(untraced, &FuzzEpisode::case_ms);
  (*m)["host.us_per_commit"] =
      PctOf(BestOf(untraced, &FuzzEpisode::case_us_per_commit), 0.5);
  (*m)["host.event_ms_p50"] = PctOf(ev, 0.5);
  (*m)["host.event_ms_p90"] = PctOf(ev, 0.9);
  (*m)["host.speed_factor"] = PctOf(Speeds(untraced), 0.5);
}

void PrintHostTable(const Metrics& host) {
  PrintTable(std::vector<MetricDef>(std::begin(kHostDefs), std::end(kHostDefs)),
             host, "host times (per-layer metrics)");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

/// Runs episodes until the deadline (at least `min_untraced` untraced and,
/// with tracing, one traced), alternating untraced and traced when tracing.
/// Returns the peak RSS in MB after the first episode: later episodes repeat
/// the same work, so only allocator fragmentation could raise it further.
template <typename Episode, typename RunFn>
double RunEpisodes(const Args& a, RunFn run, size_t min_untraced,
                 std::vector<Episode>* untraced, std::vector<Episode>* traced,
                 std::vector<SpanLog>* logs) {
  ProbeMs();  // the first probe pays for the cold allocator; discard it
  int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  double peak_rss_mb = 0;
  while (true) {
    bool enough = untraced->size() >= min_untraced &&
                  (!a.trace || !traced->empty());
    if (enough && NowNs() >= deadline) break;
    bool trace_next = a.trace && untraced->size() > traced->size();
    if (trace_next) logs->emplace_back();
    double probe_before = ProbeMs();
    Episode ep = run(trace_next ? &logs->back() : nullptr);
    ep.speed = kReferenceProbeMs / ((probe_before + ProbeMs()) / 2);
    (trace_next ? traced : untraced)->push_back(std::move(ep));
    if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
  }
  return peak_rss_mb;
}

template <typename Episode>
void PrintSpeed(const std::vector<Episode>& eps) {
  std::vector<double> v = Speeds(eps);
  std::printf("host speed factor (reference probe %.1f ms / probe time): "
              "%.3f..%.3f, median %.3f over %zu episodes; host times below "
              "are at the reference speed\n",
              kReferenceProbeMs, *std::min_element(v.begin(), v.end()),
              *std::max_element(v.begin(), v.end()), Median(v), v.size());
}

int RunLoopWorkload(const Args& a, const LoopSpec& spec, bool faithful) {
  const bool crashy = spec.crash_every_steps > 0;
  std::vector<LoopEpisode> untraced, traced;
  std::vector<SpanLog> logs;

  // Faithful driver: Harness::Run on the same configuration must reach the
  // driver loop's final StateDigest and sim_tps. It also warms the process.
  StateDigest harness_digest;
  double harness_tps = 0;
  if (faithful) {
    Harness h(spec.cfg);
    Result<HarnessReport> r = h.Run();
    Check(r.status(), "Harness::Run");
    Check(r->verify_status, "Harness::Run IFA verification");
    harness_digest = ComputeStateDigest(h.db());
    harness_tps = r->throughput_tps();
  }

  double peak_rss_mb = RunEpisodes<LoopEpisode>(
      a,
      [&](SpanLog* log) {
        std::vector<double> setups;
        for (int i = 1; i < kSetupsPerEpisode; ++i) {
          int64_t t0 = NowNs();
          SetUpLoop(spec, nullptr);
          setups.push_back(MsSince(t0) / 1e3);
        }
        LoopEpisode ep = RunLoopEpisode(spec, log);
        setups.push_back(ep.setup_ms / 1e3);
        ep.setup_samples_s = std::move(setups);
        return ep;
      },
      a.trace ? 1 : 2, &untraced, &traced, &logs);

  // Exact-repeat anchor and the traced-vs-untraced digest gate.
  const LoopEpisode& ref = untraced.front();
  for (const auto* set : {&untraced, &traced}) {
    for (const LoopEpisode& ep : *set) {
      CheckRepeat(ref.det, ep.det, "counter");
      CheckRepeat(ref.sim_window_ms, ep.sim_window_ms, "sim window");
      CheckRepeat(ref.sim_recovery_ms, ep.sim_recovery_ms, "sim recovery");
      CheckRepeat(ref.sim_ttfc_ms, ep.sim_ttfc_ms, "sim ttfc");
      if (!(ep.digest == ref.digest)) {
        Fail("nondeterminism: StateDigest differs between runs of one seed "
             "(traced and untraced runs included)");
      }
    }
  }
  for (size_t i = 1; i < traced.size(); ++i) {
    CheckRepeat(traced[0].det, traced[i].det, "traced counter");
  }
  const Counters& d = ref.det;
  double sim_tps = d.at("exec.committed") * 1e9 / d.at("sim.time_ns");
  if (faithful) {
    if (!(harness_digest == ref.digest)) {
      Fail("driver loop StateDigest {" + ref.digest.ToString() +
           "} differs from Harness::Run {" + harness_digest.ToString() + "}");
    }
    if (harness_tps != sim_tps) {
      Fail("driver loop sim_tps differs from Harness::Run");
    }
  }
  if (d.at("recovery.forced_aborts") != 0) Fail("forced survivor aborts");
  if (crashy && ref.sim_recovery_ms.size() < 100) {
    Fail("fewer than 100 crashes fired");
  }

  uint64_t voluntary = uint64_t(d.at("scripts.voluntary_aborts"));
  double attempts = d.at("exec.committed") + d.at("exec.aborted_deadlock") +
                    d.at("exec.aborted_other");
  double failed_attempts =
      d.at("exec.aborted_deadlock") +
      std::max(0.0, d.at("exec.aborted_other") - double(voluntary)) +
      d.at("recovery.forced_aborts");
  uint64_t scripts = uint64_t(d.at("scripts.committed")) + voluntary +
                     uint64_t(d.at("scripts.dropped"));
  const auto& episodes_for_counts = a.trace ? traced : untraced;
  uint64_t attempted = scripts * episodes_for_counts.size();
  uint64_t failed =
      uint64_t(d.at("scripts.dropped")) * episodes_for_counts.size();

  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced "
              "episodes; per episode %.0f commits, %.0f steps, %.0f crashes, "
              "digest %s\n",
              a.workload.c_str(), a.seed, untraced.size(), traced.size(),
              d.at("exec.committed"), d.at("exec.steps"), d.at("crashes"),
              ref.digest.ToString().c_str());
  if (faithful) {
    std::printf("faithful driver: Harness::Run reaches the same StateDigest "
                "and sim_tps %.6f\n", harness_tps);
  }

  if (!a.trace) {
    const std::vector<double>& sim_ev =
        crashy ? ref.sim_recovery_ms : ref.sim_window_ms;
    Metrics m;
    m["sim_tps"] = {sim_tps};
    m["sim_event_ms_p50"] = PctOf(sim_ev, 0.5);
    m["sim_event_ms_p90"] = PctOf(sim_ev, 0.9);
    m["attempts_per_commit"] = {AttemptsPerCommit(d)};
    m["setup_s"] = PctOf(SetupSeconds(untraced, traced), 0.5);
    m["peak_rss_mb"] = {peak_rss_mb};
    std::printf("event: %s; abort_ratio %.6f (%.0f failed of %.0f attempts); "
                "sim ttfc p50 %.6f p90 %.6f sim-ms (n=%zu)\n",
                crashy ? "one Database::Crash (a recovery)"
                       : "a window of 64 commits",
                failed_attempts / attempts, failed_attempts, attempts,
                Pct(ref.sim_ttfc_ms, 0.5), Pct(ref.sim_ttfc_ms, 0.9),
                ref.sim_ttfc_ms.size());
    PrintSpeed(untraced);
    Metrics host;
    AddLoopHostMetrics(untraced, crashy, &host);
    PrintHostTable(host);
    std::vector<MetricDef> defs(std::begin(kEndToEnd), std::end(kEndToEnd));
    PrintAndEmit(defs, m, attempted, failed, "end-to-end metrics");
    return 0;
  }

  // Traced run: per-layer metrics.
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog& log : logs) AddSpanTotals(log, &totals);
  std::vector<double> step_us, flush_us, ckpt_ms, verify_ms, crash_ms,
      digest_ms, gen_ms, setup_ms;
  std::array<std::vector<double>, kNumClasses> class_us;
  for (const LoopEpisode& ep : traced) {
    Append(&step_us, ep.step_us);
    Append(&flush_us, ep.flush_us);
    Append(&ckpt_ms, ep.checkpoint_ms);
    Append(&verify_ms, ep.verify_ms);
    Append(&crash_ms, ep.crash_ms);
    digest_ms.push_back(ep.digest_ms);
    gen_ms.push_back(ep.generate_ms);
    setup_ms.push_back(ep.harness_setup_ms);
    for (int c = 0; c < kNumClasses; ++c) Append(&class_us[c], ep.class_us[c]);
  }
  std::vector<double> loop_u, loop_t;
  for (const LoopEpisode& ep : untraced) loop_u.push_back(ep.loop_ms);
  for (const LoopEpisode& ep : traced) loop_t.push_back(ep.loop_ms);
  double overhead = Median(loop_t) - Median(loop_u);

  Metrics m;
  AddLoopHostMetrics(untraced, crashy, &m);
  m["txn.step_us_p50"] = PctOf(step_us, 0.5);
  m["txn.step_us_p99"] = PctOf(step_us, 0.99);
  const Counters& td = traced.front().det;
  for (int c = 0; c < kNumClasses; ++c) {
    std::string base = kStepClassNames[c];
    double total = 0;
    for (double us : class_us[c]) total += us;
    m[base + "_us"] = PctOf(class_us[c], 0.5);
    m[base + "s"] = {td.at(base + "s")};
    m[base + "_ms"] = {total / 1e3 / double(traced.size())};
  }
  m["txn.abort_ratio"] = {failed_attempts / attempts};
  FillSimLayers(d, &m);
  m["storage.stable_log_records_max"] = {d.at("stable_log.max_records")};
  for (size_t p = 0; p < kNumRecoveryPhases; ++p) {
    if (kPhaseMetric[p] != nullptr) {
      m[kPhaseMetric[p]] = PctOf(ref.phase_sim_ms[p], 0.5);
    }
  }
  m["core.ttfc_sim_ms_p50"] = PctOf(ref.sim_ttfc_ms, 0.5);
  m["core.ttfc_sim_ms_p90"] = PctOf(ref.sim_ttfc_ms, 0.9);
  double crashes = d.at("crashes");
  m["storage.disk_reads_per_crash"] = {
      crashes == 0 ? 0.0 : d.at("recovery.disk_reads") / crashes};
  m["db.steal_flush_us"] = PctOf(flush_us, 0.5);
  m["db.wal_gate_forces"] = {d.at("steal.gate_forces")};
  m["workload.generate_ms"] = PctOf(gen_ms, 0.5);
  m["harness.setup_ms"] = PctOf(setup_ms, 0.5);
  m["wal.checkpoint_ms"] = PctOf(ckpt_ms, 0.5);
  m["core.verify_ms"] = PctOf(verify_ms, 0.5);
  m["core.digest_ms"] = PctOf(digest_ms, 0.5);
  m["core.crash_ms"] = PctOf(crash_ms, 0.5);
  m["trace.overhead_ms"] = {overhead, loop_t.size() + loop_u.size()};

  PrintSpanTable(totals, overhead, Median(loop_u));
  if (!a.spans_out.empty()) WriteSpans(logs.back(), a.spans_out);
  PrintAndEmit(PerLayerDefs(), m, attempted, failed, "per-layer metrics");
  return 0;
}

int RunFuzzWorkload(const Args& a) {
  std::vector<FuzzEpisode> untraced, traced;
  std::vector<SpanLog> logs;
  double peak_rss_mb = RunEpisodes<FuzzEpisode>(
      a,
      [&](SpanLog* log) {
        std::vector<double> setups;
        for (int i = 1; i < kSetupsPerEpisode; ++i) {
          CrashScheduleFuzzer fuzzer;
          int64_t t0 = NowNs();
          SetUpFuzz(a.seed, &fuzzer, nullptr, nullptr);
          setups.push_back(MsSince(t0) / 1e3);
        }
        FuzzEpisode ep = RunFuzzEpisode(a.seed, log);
        setups.push_back(ep.setup_ms / 1e3);
        ep.setup_samples_s = std::move(setups);
        return ep;
      },
      a.trace ? 1 : 2, &untraced, &traced, &logs);

  const FuzzEpisode& ref = untraced.front();
  for (const auto* set : {&untraced, &traced}) {
    for (const FuzzEpisode& ep : *set) {
      CheckRepeat(ref.det, ep.det, "fuzz counter");
      if (ep.case_commits != ref.case_commits) {
        Fail("nondeterminism: per-case commit counts changed between runs");
      }
    }
  }
  FuzzSim sim = ReplayFuzzSim(a.seed, ref.case_commits);
  const Counters& d = sim.det;
  uint64_t cases_per_sweep = ref.case_ms.size();
  const auto& counted = a.trace ? traced : untraced;
  uint64_t attempted = cases_per_sweep * counted.size();
  uint64_t failed = 0;  // any failed verdict has already ended the run
  double sim_tps = d.at("exec.committed") * 1e9 / d.at("sim.time_ns");

  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced "
              "sweeps of %" PRIu64 " cases; per sweep %.0f commits, "
              "%.0f recoveries; every verdict passed\n",
              a.workload.c_str(), a.seed, untraced.size(), traced.size(),
              cases_per_sweep, d.at("exec.committed"), d.at("crashes"));

  if (!a.trace) {
    Metrics m;
    m["sim_tps"] = {sim_tps};
    m["sim_event_ms_p50"] = PctOf(sim.case_sim_ms, 0.5);
    m["sim_event_ms_p90"] = PctOf(sim.case_sim_ms, 0.9);
    m["attempts_per_commit"] = {AttemptsPerCommit(d)};
    m["setup_s"] = PctOf(SetupSeconds(untraced, traced), 0.5);
    m["peak_rss_mb"] = {peak_rss_mb};
    std::printf("event: one CrashScheduleFuzzer::RunCase (one seed x one "
                "protocol); abort_ratio %.6f (%" PRIu64 " failed verdicts of "
                "%" PRIu64 " cases)\n",
                double(failed) / double(attempted), failed, attempted);
    PrintSpeed(untraced);
    Metrics host;
    AddFuzzHostMetrics(untraced, &host);
    PrintHostTable(host);
    std::vector<MetricDef> defs(std::begin(kEndToEnd), std::end(kEndToEnd));
    PrintAndEmit(defs, m, attempted, failed, "end-to-end metrics");
    return 0;
  }

  std::map<std::string, SpanTotals> totals;
  for (const SpanLog& log : logs) AddSpanTotals(log, &totals);
  std::map<std::string, std::vector<double>> proto_ms;
  std::vector<double> sample_ms, loop_u, loop_t;
  for (const FuzzEpisode& ep : traced) {
    for (const auto& [name, v] : ep.proto_ms) Append(&proto_ms[name], v);
    sample_ms.push_back(ep.sample_ms);
    loop_t.push_back(ep.loop_ms);
  }
  for (const FuzzEpisode& ep : untraced) loop_u.push_back(ep.loop_ms);
  double overhead = Median(loop_t) - Median(loop_u);

  Metrics m;
  AddFuzzHostMetrics(untraced, &m);
  m["txn.abort_ratio"] = {double(failed) / double(attempted)};
  FillSimLayers(d, &m);
  std::array<std::vector<double>, kNumRecoveryPhases> phases;
  for (const RecoveryOutcome& o : sim.recoveries) {
    for (size_t p = 0; p < kNumRecoveryPhases; ++p) {
      phases[p].push_back(double(o.phase_ns[p]) / 1e6);
    }
  }
  for (size_t p = 0; p < kNumRecoveryPhases; ++p) {
    if (kPhaseMetric[p] != nullptr) m[kPhaseMetric[p]] = PctOf(phases[p], 0.5);
  }
  m["fuzz.sample_ms"] = PctOf(sample_ms, 0.5);
  for (const auto& [name, v] : proto_ms) {
    m["fuzz.case_ms." + name] = PctOf(v, 0.5);
  }
  m["trace.overhead_ms"] = {overhead, loop_t.size() + loop_u.size()};
  PrintSpanTable(totals, overhead, Median(loop_u));
  if (!a.spans_out.empty()) WriteSpans(logs.back(), a.spans_out);
  PrintAndEmit(PerLayerDefs(), m, attempted, failed, "per-layer metrics");
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: smdb_perfbench --workload "
               "steady_long|crash_cycle|fuzz_campaign --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

}  // namespace
}  // namespace smdb::perfbench

int main(int argc, char** argv) {
  using namespace smdb::perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    Usage();
    return 1;
  }
  g_workload = a.workload;
  if (a.workload == "steady_long") {
    return RunLoopWorkload(a, SteadyLong(a.seed), /*faithful=*/true);
  }
  if (a.workload == "crash_cycle") {
    return RunLoopWorkload(a, CrashCycle(a.seed), /*faithful=*/false);
  }
  if (a.workload == "fuzz_campaign") return RunFuzzWorkload(a);
  Usage();
  return 1;
}
