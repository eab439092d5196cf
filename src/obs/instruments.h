#ifndef SMDB_OBS_INSTRUMENTS_H_
#define SMDB_OBS_INSTRUMENTS_H_

#include <cstdint>

#include "common/types.h"
#include "obs/observatory.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace smdb {

/// False in a build configured with -DSMDB_DISABLE_OBS=ON: every emission
/// site, profiler scope and tick hook is compiled out, and every view
/// reports itself disabled whatever the ObsConfig asked for.
#ifdef SMDB_OBS_DISABLED
inline constexpr bool kObsCompiledIn = false;
#else
inline constexpr bool kObsCompiledIn = true;
#endif

/// The one instrumentation plane. Database owns it and hands a pointer to
/// each instrumented component at construction. Sites emit typed
/// TraceEvents through SMDB_EMIT; the plane passes each event to its
/// views: the trace ring records it, the latency/availability observatory
/// folds it into its aggregates. The phase profiler is the third view; it
/// is fed by the ProfRoot/ProfScope scopes and the ProfTick clock hook
/// instead of by events.
class Instruments {
 public:
  Instruments(uint16_t num_nodes, const ObsConfig& config)
      : config_(CompiledIn(config)),
        tracer_(num_nodes, config_.trace_capacity_per_node),
        observatory_(num_nodes, config_),
        profiler_(config_.profile) {}

  TraceRecorder& tracer() { return tracer_; }
  Observatory& observatory() { return observatory_; }
  Profiler& profiler() { return profiler_; }

  /// True when some view consumes events — the test SMDB_EMIT makes
  /// before it builds the event.
  bool emitting() const { return config_.trace || config_.latency; }

  void Emit(const TraceEvent& ev) {
    if (config_.trace) tracer_.Record(ev);
    if (config_.latency) observatory_.Consume(ev);
  }

 private:
  static ObsConfig CompiledIn(ObsConfig c) {
    if (!kObsCompiledIn) c.trace = c.latency = c.profile = false;
    return c;
  }

  ObsConfig config_;
  TraceRecorder tracer_;
  Observatory observatory_;
  Profiler profiler_;
};

/// The profiler behind `inst`, or null when there is none or the plane is
/// compiled out.
inline Profiler* ProfilerOf(Instruments* inst) {
  if (!kObsCompiledIn || inst == nullptr) return nullptr;
  return &inst->profiler();
}

/// Tick hook (sim/machine.h): attributes a sim-time charge to the current
/// phase path. One branch when no root is open.
inline void ProfTick(Instruments* inst, SimTime ns) {
  Profiler* p = ProfilerOf(inst);
  if (p != nullptr && p->InScope()) p->OnTick(ns);
}

/// RAII attribution window for one unit of work (an executor step, a
/// sweeper discharge, the recovery prefix). No-ops when the profiler is
/// absent/disabled or a root is already open.
class ProfRoot {
 public:
  ProfRoot(Instruments* inst, ProfPhase root) {
    Profiler* p = ProfilerOf(inst);
    if (p != nullptr && p->enabled() && !p->InScope()) {
      p_ = p;
      p->BeginRoot(root);
    }
  }
  ~ProfRoot() {
    if (p_ != nullptr) p_->EndRoot();
  }
  ProfRoot(const ProfRoot&) = delete;
  ProfRoot& operator=(const ProfRoot&) = delete;

 private:
  Profiler* p_ = nullptr;
};

/// RAII nested phase. Engages only inside an open root.
class ProfScope {
 public:
  ProfScope(Instruments* inst, ProfPhase phase) {
    Profiler* p = ProfilerOf(inst);
    if (p != nullptr && p->InScope()) {
      p_ = p;
      p->Enter(phase);
    }
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->Exit();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_ = nullptr;
};

}  // namespace smdb

/// The one emission macro. `inst_expr` evaluates to an Instruments*
/// (possibly null); the rest is a braced TraceEvent initializer, built
/// only when some view consumes events. Compiled out, the site is still
/// type-checked but its branch is constant-false.
#define SMDB_EMIT(inst_expr, ...)                                    \
  do {                                                               \
    ::smdb::Instruments* smdb_emit_inst = (inst_expr);               \
    if (::smdb::kObsCompiledIn && smdb_emit_inst != nullptr &&       \
        smdb_emit_inst->emitting()) {                                \
      smdb_emit_inst->Emit(::smdb::TraceEvent __VA_ARGS__);          \
    }                                                                \
  } while (0)

#endif  // SMDB_OBS_INSTRUMENTS_H_
