#include "obs/profiler.h"

#include <cassert>

#include "workload/harness.h"

namespace smdb {

const char* ProfPhaseName(ProfPhase p) {
  switch (p) {
    case ProfPhase::kStep:
      return "step";
    case ProfPhase::kSweep:
      return "sweep";
    case ProfPhase::kRecovery:
      return "recovery";
    case ProfPhase::kLockWait:
      return "lock_wait";
    case ProfPhase::kLineWait:
      return "line_wait";
    case ProfPhase::kCoherence:
      return "coherence";
    case ProfPhase::kWalAppend:
      return "wal_append";
    case ProfPhase::kWalForce:
      return "wal_force";
    case ProfPhase::kIndexDescent:
      return "index_descent";
    case ProfPhase::kApply:
      return "apply";
  }
  return "unknown";
}

void Profiler::BeginRoot(ProfPhase root) {
  assert(depth_ == 0);
  depth_ = 1;
  path_.assign(ProfPhaseName(root));
  frames_.clear();
  cur_ = &cells_[path_];
  ++cur_->samples;
}

void Profiler::EndRoot() {
  assert(depth_ == 1);
  depth_ = 0;
  path_.clear();
  frames_.clear();
  cur_ = nullptr;
}

void Profiler::Enter(ProfPhase phase) {
  assert(depth_ >= 1);
  ++depth_;
  frames_.push_back(path_.size());
  path_.push_back(';');
  path_.append(ProfPhaseName(phase));
  cur_ = &cells_[path_];
  ++cur_->samples;
}

void Profiler::Exit() {
  assert(depth_ >= 2 && !frames_.empty());
  path_.resize(frames_.back());
  frames_.pop_back();
  --depth_;
  cur_ = &cells_[path_];
}

ProfilerReport Profiler::Snapshot() const {
  ProfilerReport rep;
  rep.enabled = enabled();
  rep.phases = cells_;
  return rep;
}

json::Value ProfilerReport::ToJson() const {
  json::Value doc = json::Value::Object();
  doc.Set("enabled", json::Value::Bool(enabled));

  json::Value ph = json::Value::Object();
  for (const auto& [path, cell] : phases) {
    json::Value c = json::Value::Object();
    c.Set("ns", json::Value::Uint(cell.ns));
    c.Set("ticks", json::Value::Uint(cell.ticks));
    c.Set("samples", json::Value::Uint(cell.samples));
    ph.Set(path, std::move(c));
  }
  doc.Set("phases", std::move(ph));
  return doc;
}

std::string ProfilerReport::ToCollapsed() const {
  std::string out;
  for (const auto& [path, cell] : phases) {
    out.append(path);
    out.push_back(' ');
    out.append(std::to_string(cell.ns));
    out.push_back('\n');
  }
  return out;
}

json::Value ProfileJsonFromReport(const HarnessReport& report) {
  json::Value doc = json::Value::Object();
  doc.Set("profiler", report.profile.ToJson());
  return doc;
}

}  // namespace smdb
