// The benchmark's workloads, and how one leg of a workload is run and checked.
//
// A workload is a list of legs; a leg is one ExperimentSpec run for one
// registered scheduling class. Every leg runs on the calling thread, one
// after another, with the simulator's defaults (one engine shard, the default
// event queue, tickless on), so the host time measured is the simulator's and
// not contention between worker threads.
#ifndef SIMBENCH_LEGS_H_
#define SIMBENCH_LEGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/spec.h"
#include "src/sched/machine.h"
#include "timed_sched.h"

namespace simbench {

// The seed the reference digests (digests.txt) were recorded with, and one
// seed kept out of tuning so a later claim can be re-checked on it.
inline constexpr uint64_t kDefaultSeed = 42;
inline constexpr uint64_t kHeldOutSeed = 7;

struct Leg {
  std::string label;  // "serve1024/cfs", "paper-fig8/MG/ule"
  schedbattle::SchedKind kind = schedbattle::SchedKind::kCfs;
  schedbattle::ExperimentSpec spec;
};

// Workload names, in documentation order.
const std::vector<std::string>& WorkloadNames();

// The legs of `workload` for `seed`: every registered class, in registry
// order within each spec. Empty for an unknown workload.
std::vector<Leg> MakeLegs(const std::string& workload, uint64_t seed);

// What one leg produced, and the host time of each ExecuteSpec phase.
struct LegOutcome {
  // ExecuteSpec entry -> hooks.on_start -> hooks.on_finish -> return.
  int64_t setup_ns = 0;
  int64_t run_ns = 0;
  int64_t harvest_ns = 0;

  uint64_t events = 0;  // engine().events_executed()
  double sim_s = 0;     // simulated seconds the run advanced
  schedbattle::TickElisionCounters elision;
  schedbattle::RunResult result;

  // Serving legs only (the spec's first app is a ServingApp).
  bool serving = false;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t good = 0;
  schedbattle::SimDuration p50 = 0;
  schedbattle::SimDuration p99 = 0;
  schedbattle::SimDuration p999 = 0;
  schedbattle::SimDuration max = 0;

  std::string check_failure;  // empty when the output check passed
  uint64_t digest = 0;        // FNV-1a of the simulated outputs
};

// Executes one leg. With a tracer, the scheduler is wrapped in a
// TimedScheduler and the spec's observers in TimedObservers.
LegOutcome RunLeg(const Leg& leg, SpanTracer* tracer);

}  // namespace simbench

#endif  // SIMBENCH_LEGS_H_
