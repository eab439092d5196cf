// smdb_profile_check — validates a profiler export produced by
// `smdb_run --profile-out=...` (or bench_throughput's BENCH_exec_profile
// snapshots).
//
// Checks: the document parses, carries a profiler section, and every phase
// path is rooted at step/sweep/recovery, names only phases this build knows
// (ProfPhase), and has ns/ticks/samples cells.
//
// Accepts either a single profile document (smdb_run) or a snapshot map of
// them keyed by series name (bench_throughput's BENCH_exec_profile.json);
// every member is validated.
//
// With a second argument, also validates a collapsed-stack file (the
// `--profile-out` sibling PATH.collapsed): every line is "<stack> <uint>"
// with ';'-separated known phase names rooted at a known phase root.
//
// Exits 0 on success, 1 on any violation — a CI smoke step, like
// smdb_trace_check.
//
// Usage: smdb_profile_check PROFILE.json [PROFILE.json.collapsed]

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "obs/profiler.h"

namespace smdb {
namespace {

bool ReadAll(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool IsPhaseRoot(const std::string& frame) {
  return frame == ProfPhaseName(ProfPhase::kStep) ||
         frame == ProfPhaseName(ProfPhase::kSweep) ||
         frame == ProfPhaseName(ProfPhase::kRecovery);
}

bool IsKnownPhase(const std::string& frame) {
  for (size_t p = 0; p < kNumProfPhases; ++p) {
    if (frame == ProfPhaseName(static_cast<ProfPhase>(p))) return true;
  }
  return false;
}

/// Empty when `stack` is ';'-joined known phase names under a phase root;
/// otherwise what is wrong with it.
std::string StackError(const std::string& stack) {
  size_t start = 0;
  bool first = true;
  while (start <= stack.size()) {
    size_t semi = stack.find(';', start);
    if (semi == std::string::npos) semi = stack.size();
    const std::string frame = stack.substr(start, semi - start);
    if (frame.empty()) return "empty frame";
    if (first && !IsPhaseRoot(frame)) return "unknown root \"" + frame + "\"";
    if (!IsKnownPhase(frame)) return "unknown phase \"" + frame + "\"";
    first = false;
    start = semi + 1;
  }
  return "";
}

int CheckProfileDoc(const std::string& path, const json::Value& doc) {
  const json::Value* prof = doc.Find("profiler");
  if (prof == nullptr || !prof->is_object()) {
    std::fprintf(stderr, "%s: missing profiler section\n", path.c_str());
    return 1;
  }
  if (!prof->GetBool("enabled")) {
    // A run without the profiler (or a build with it compiled out) exports
    // an empty report; there is nothing to cross-check.
    std::printf("%s: ok — profiler disabled, nothing to validate\n",
                path.c_str());
    return 0;
  }

  const json::Value* phases = prof->Find("phases");
  if (phases == nullptr || !phases->is_object()) {
    std::fprintf(stderr, "%s: missing phases object\n", path.c_str());
    return 1;
  }
  for (const auto& [stack, cell] : phases->members()) {
    const std::string err = StackError(stack);
    if (!err.empty()) {
      std::fprintf(stderr, "%s: phase path \"%s\": %s\n", path.c_str(),
                   stack.c_str(), err.c_str());
      return 1;
    }
    if (!cell.is_object() || cell.Find("ns") == nullptr ||
        cell.Find("ticks") == nullptr || cell.Find("samples") == nullptr) {
      std::fprintf(stderr, "%s: phase \"%s\" lacks ns/ticks/samples\n",
                   path.c_str(), stack.c_str());
      return 1;
    }
  }

  std::printf("%s: ok — %zu phase cells\n", path.c_str(),
              phases->members().size());
  return 0;
}

int CheckProfile(const std::string& path) {
  std::string text;
  if (!ReadAll(path, &text)) return 1;
  auto parsed = json::Value::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: JSON parse failed: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  if (!parsed->is_object()) {
    std::fprintf(stderr, "%s: top level is not an object\n", path.c_str());
    return 1;
  }
  if (parsed->Find("profiler") != nullptr) {
    return CheckProfileDoc(path, *parsed);
  }
  // Snapshot map: every member is a profile document.
  if (parsed->members().empty()) {
    std::fprintf(stderr, "%s: no profile documents\n", path.c_str());
    return 1;
  }
  for (const auto& [name, doc] : parsed->members()) {
    int rc = CheckProfileDoc(path + "#" + name, doc);
    if (rc != 0) return rc;
  }
  return 0;
}

int CheckCollapsed(const std::string& path) {
  std::string text;
  if (!ReadAll(path, &text)) return 1;
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  size_t stacks = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space == line.size() - 1) {
      std::fprintf(stderr, "%s:%zu: not \"<stack> <value>\": %s\n",
                   path.c_str(), lineno, line.c_str());
      return 1;
    }
    const std::string value = line.substr(space + 1);
    if (value.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "%s:%zu: value \"%s\" is not a non-negative "
                   "integer\n", path.c_str(), lineno, value.c_str());
      return 1;
    }
    const std::string stack = line.substr(0, space);
    const std::string err = StackError(stack);
    if (!err.empty()) {
      std::fprintf(stderr, "%s:%zu: stack \"%s\": %s\n", path.c_str(),
                   lineno, stack.c_str(), err.c_str());
      return 1;
    }
    ++stacks;
  }
  std::printf("%s: ok — %zu collapsed stacks\n", path.c_str(), stacks);
  return 0;
}

}  // namespace
}  // namespace smdb

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr,
                 "usage: smdb_profile_check PROFILE.json "
                 "[PROFILE.json.collapsed]\n");
    return 1;
  }
  int rc = smdb::CheckProfile(argv[1]);
  if (rc != 0) return rc;
  if (argc == 3) rc = smdb::CheckCollapsed(argv[2]);
  return rc;
}
