#include "workload/harness.h"

#include <algorithm>

#include "core/on_demand.h"

namespace smdb {

Harness::Harness(HarnessConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

Harness::~Harness() = default;

Status Harness::Setup() {
  if (setup_done_) return Status::Ok();
  db_ = std::make_unique<Database>(config_.db);
  db_->on_demand().SetCloseHook(
      [this](const RecoveryOutcome& out) { closed_.push_back(out); });
  checker_ = std::make_unique<IfaChecker>(db_.get());
  db_->txn().AddObserver(checker_.get());

  SMDB_ASSIGN_OR_RETURN(table_, db_->CreateTable(config_.num_records));
  checker_->RegisterTable(table_);
  SMDB_RETURN_IF_ERROR(db_->Checkpoint());

  WorkloadGenerator gen(config_.workload, table_,
                        config_.db.machine.num_nodes,
                        config_.db.record_data_size);
  auto scripts = gen.Generate();
  exec_ = std::make_unique<SystemExecutor>(&db_->txn(), &db_->machine(),
                                           config_.seed ^ 0x5eed,
                                           config_.schedule);
  for (NodeId n = 0; n < config_.db.machine.num_nodes; ++n) {
    for (auto& s : scripts[n]) exec_->executor(n).Enqueue(std::move(s));
  }
  setup_done_ = true;
  return Status::Ok();
}

Status Harness::StealFlushOne() {
  auto dirty = db_->buffers().DirtyPages();
  if (dirty.empty()) return Status::Ok();
  PageId page = dirty[rng_.Uniform(dirty.size())];
  auto alive = db_->machine().AliveNodes();
  if (alive.empty()) return Status::Ok();  // no node left to run the daemon
  NodeId node = alive[rng_.Uniform(alive.size())];
  Status s = db_->buffers().FlushPage(node, page);
  // A flush blocked by a crashed updater's unforced tail, or by a page
  // whose lines died with a node, is expected; the steal daemon just skips.
  if (s.IsNodeFailed() || s.IsLineLost()) return Status::Ok();
  return s;
}

Result<HarnessReport> Harness::Run() {
  SMDB_RETURN_IF_ERROR(Setup());
  HarnessReport report;

  size_t next_crash = 0;
  size_t fired = 0;
  std::sort(config_.crashes.begin(), config_.crashes.end(),
            [](const CrashPlan& a, const CrashPlan& b) {
              return a.at_step < b.at_step;
            });

  while (exec_->steps() < config_.max_steps) {
    // Crash injection before the next step.
    while (next_crash < config_.crashes.size() &&
           exec_->steps() >= config_.crashes[next_crash].at_step) {
      const CrashPlan& plan = config_.crashes[next_crash];
      size_t plan_index = next_crash;
      ++next_crash;
      // Deduplicate the plan's node set (crashing a node twice in one plan
      // is meaningless and must not reach OnCrash/Crash twice) and drop
      // nodes that are already dead.
      std::vector<NodeId> to_crash;
      for (NodeId n : plan.nodes) {
        if (db_->machine().NodeAlive(n) &&
            std::find(to_crash.begin(), to_crash.end(), n) ==
                to_crash.end()) {
          to_crash.push_back(n);
        }
      }
      if (to_crash.empty()) {
        report.skipped_crashes.push_back(
            {plan_index, plan, SkippedCrash::Reason::kTargetsAlreadyDead});
        continue;
      }
      if (fired < config_.recovery_stream_overrides.size()) {
        db_->SetRecoveryStreams(config_.recovery_stream_overrides[fired]);
      }
      ++fired;
      for (NodeId n : to_crash) exec_->executor(n).OnCrash();
      SMDB_ASSIGN_OR_RETURN(RecoveryOutcome outcome, db_->Crash(to_crash));
      if (config_.drain_recovery_immediately) {
        SMDB_RETURN_IF_ERROR(db_->DrainRecovery());
      }
      if (config_.capture_digests) {
        report.digests.push_back(ComputeStateDigest(*db_));
      }
      // While obligations are still pending the oracle would read
      // unrecovered state; the final (post-drain) VerifyAll covers the run.
      if (config_.verify && !db_->RecoveringActive()) {
        Status v = checker_->VerifyAll();
        if (!v.ok()) {
          report.verify_status = v;
          // The remaining schedule never ran; record it so triage can tell
          // which crashes this failing run actually contains.
          for (size_t i = next_crash; i < config_.crashes.size(); ++i) {
            report.skipped_crashes.push_back(
                {i, config_.crashes[i], SkippedCrash::Reason::kNeverReached});
          }
          FillReport(&report);
          return report;
        }
      }
      // A whole-machine failure already rebooted every node as part of
      // recovery; restarting again would be a double restart.
      if (plan.restart_after && !outcome.whole_machine_restart) {
        db_->RestartNodes(to_crash);
      }
    }

    if (!exec_->StepOnce()) break;

    if (config_.pump_recovery_per_step > 0 && db_->RecoveringActive()) {
      SMDB_ASSIGN_OR_RETURN(
          int swept, db_->PumpRecovery(config_.pump_recovery_per_step));
      (void)swept;
    }
    if (config_.steal_flush_prob > 0.0 &&
        rng_.Bernoulli(config_.steal_flush_prob)) {
      // The daemon pauses while Recovering: a steal flush could overwrite a
      // stable image that pending lazy redo still needs to load from. (The
      // Bernoulli draw stays unconditional so the rng stream matches runs
      // without the pause.)
      if (!db_->RecoveringActive()) SMDB_RETURN_IF_ERROR(StealFlushOne());
    }
    if (config_.checkpoint_every_steps > 0 &&
        exec_->steps() % config_.checkpoint_every_steps == 0 &&
        !db_->machine().AliveNodes().empty()) {
      SMDB_RETURN_IF_ERROR(db_->Checkpoint());
    }
  }

  // Plans scheduled past the workload's drain point (or past max_steps)
  // silently never fire; record them so "survived N crashes" is honest.
  for (; next_crash < config_.crashes.size(); ++next_crash) {
    report.skipped_crashes.push_back({next_crash, config_.crashes[next_crash],
                                      SkippedCrash::Reason::kNeverReached});
  }

  // The workload drained; discharge whatever the traffic never touched so
  // the end state is fully recovered before verification and digests.
  SMDB_RETURN_IF_ERROR(db_->DrainRecovery());

  if (config_.verify) {
    report.verify_status = checker_->VerifyAll();
  }
  if (config_.capture_digests) {
    // Final end-of-run digest. Note: only digests up to and including the
    // first partitioned recovery are comparable against a one-stream run —
    // CLR/log placement after that point is performer-dependent
    // (performance state) and can steer later forces and the *next*
    // recovery differently. The differential tests therefore override one
    // recovery at a time and compare that recovery's digest.
    report.digests.push_back(ComputeStateDigest(*db_));
  }

  FillReport(&report);
  return report;
}

void Harness::FillReport(HarnessReport* report) {
  // Every fired recovery has closed by now: verification only runs outside
  // a Recovering window, and the run ends with a drain.
  report->recoveries = closed_;
  report->exec = exec_->TotalStats();
  report->machine = db_->machine().stats();
  report->logs = db_->log().stats();
  report->txns = db_->txn().stats();
  report->locks = db_->locks().stats();
  report->btree = db_->index().stats();
  report->checkpoint = db_->checkpoint_stats();
  if (db_->group_commit() != nullptr) {
    report->gc = db_->group_commit()->stats();
  }
  report->disk_reads = db_->stable_db().reads();
  report->disk_writes = db_->stable_db().writes();
  report->steps = exec_->steps();
  report->total_time_ns = db_->machine().GlobalTime();
  report->latency = db_->instruments().observatory().Snapshot();
  report->profile = db_->instruments().profiler().Snapshot();
}

}  // namespace smdb
