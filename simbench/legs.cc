#include "legs.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/apps/registry.h"
#include "src/apps/serving.h"
#include "src/core/scenarios.h"
#include "src/metrics/slo.h"
#include "src/sched/registry.h"

namespace simbench {

using namespace schedbattle;

namespace {

// Request-volume scale of the serve presets. It stretches the arrival window
// (rates stay as calibrated), so one leg stays short enough to repeat.
constexpr double kServeScale = 0.1;

// Figure 8 runs the whole BenchmarkSuite() at the fig8 bench binary's
// default scale.
constexpr double kFig8Scale = 0.2;

// The CLI's default wakeup objectives for suite runs.
std::vector<SloObjective> SuiteSlo() {
  std::vector<SloObjective> slo;
  for (const char* text : {"wakeup_p99<1s", "wakeup_p999<5s"}) {
    SloObjective o;
    std::string error;
    if (ParseSloObjective(text, &o, &error)) {
      slo.push_back(o);
    }
  }
  return slo;
}

class Digest {
 public:
  Digest& Add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ = (h_ ^ c) * 0x100000001b3ULL;
    }
    return Add('|');
  }
  Digest& Add(char c) {
    h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return *this;
  }
  Digest& Add(int64_t v) { return Add(std::to_string(v)); }
  Digest& Add(uint64_t v) { return Add(std::to_string(v)); }
  Digest& Add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Add(std::string(buf));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Digest of what the simulated machine produced: counters, per-app results,
// request latencies and SLO verdicts. Simulator bookkeeping (event count,
// tick-elision counters) is left out, so a change that only makes the
// simulator cheaper keeps every digest.
uint64_t DigestOf(const LegOutcome& o) {
  Digest d;
  const RunResult& r = o.result;
  const MachineCounters& c = r.counters;
  d.Add(static_cast<int64_t>(r.finish_time))
      .Add(c.context_switches)
      .Add(c.wakeup_preemptions)
      .Add(c.tick_preemptions)
      .Add(c.migrations)
      .Add(c.wakeups)
      .Add(c.forks)
      .Add(c.exits)
      .Add(c.pickcpu_scans)
      .Add(c.balance_invocations);
  for (const SimDuration ns : c.overhead_ns) {
    d.Add(static_cast<int64_t>(ns));
  }
  for (const AppResult& a : r.apps) {
    d.Add(a.name).Add(a.ops).Add(static_cast<int64_t>(a.finish_time)).Add(a.metric);
  }
  d.Add(o.admitted).Add(o.completed).Add(o.good);
  d.Add(static_cast<int64_t>(o.p50)).Add(static_cast<int64_t>(o.p99));
  d.Add(static_cast<int64_t>(o.p999)).Add(static_cast<int64_t>(o.max));
  for (const SloVerdict& v : r.slo_verdicts) {
    d.Add(v.objective.name.empty() ? std::string(SloMetricName(v.objective.metric))
                                   : v.objective.name)
        .Add(static_cast<int64_t>(v.observed))
        .Add(v.pass ? 'P' : 'F');
  }
  return d.value();
}

// Empty when the leg's outputs are self-consistent; otherwise the reason.
std::string CheckOutputs(const Leg& leg, const LegOutcome& o) {
  if (o.result.slo_verdicts.size() != leg.spec.slo.size() || o.result.slo_verdicts.empty()) {
    return "SLO verdicts missing";
  }
  if (o.events == 0 || o.sim_s <= 0) {
    return "the run did not advance";
  }
  if (o.serving) {
    if (o.admitted <= 0) {
      return "no requests admitted";
    }
    if (!(o.good <= o.completed && o.completed <= o.admitted)) {
      return "request counts out of order (need good <= completed <= admitted)";
    }
    if (!(o.p50 <= o.p99 && o.p99 <= o.p999 && o.p999 <= o.max)) {
      return "request latency percentiles out of order";
    }
    return "";
  }
  for (const AppResult& a : o.result.apps) {
    if (!a.finished || !(a.metric > 0)) {
      return "app " + a.name + " did not finish with a positive metric";
    }
  }
  return "";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"serve1024", "serve1024-colo", "paper-fig8"};
  return kNames;
}

std::vector<Leg> MakeLegs(const std::string& workload, uint64_t seed) {
  const std::vector<SchedKind> kinds = SchedulerRegistry::Instance().AllKinds();
  std::vector<Leg> legs;
  if (workload == "serve1024" || workload == "serve1024-colo") {
    for (const SchedKind kind : kinds) {
      legs.push_back({workload + "/" + std::string(SchedId(kind)), kind,
                      ServeSpec(workload, kind, seed, kServeScale)});
    }
  } else if (workload == "paper-fig8") {
    const std::vector<SloObjective> slo = SuiteSlo();
    for (const AppEntry& app : BenchmarkSuite()) {
      for (const SchedKind kind : kinds) {
        ExperimentSpec spec = ExperimentSpec::Multicore(kind, seed);
        spec.WithScale(kFig8Scale).Named(app.name);
        spec.slo = slo;
        spec.Add(RegistryApp(app.name));
        legs.push_back({workload + "/" + app.name + "/" + std::string(SchedId(kind)), kind,
                        std::move(spec)});
      }
    }
  }
  return legs;
}

LegOutcome RunLeg(const Leg& leg, SpanTracer* tracer) {
  LegOutcome out;
  ExperimentSpec spec = leg.spec;
  if (tracer != nullptr) {
    spec.scheduler_factory = [tracer](const ExperimentConfig& config) {
      ExperimentConfig plain = config;
      plain.scheduler_factory = nullptr;
      return std::make_unique<TimedScheduler>(MakeSchedulerFor(plain), tracer);
    };
  }

  int64_t start_ns = 0;
  int64_t finish_ns = 0;
  std::vector<std::unique_ptr<TimedObserver>> wrapped;
  const std::function<void(SpecRunContext&)> prev_start = spec.hooks.on_start;
  spec.hooks.on_start = [&](SpecRunContext& ctx) {
    if (prev_start) {
      prev_start(ctx);
    }
    if (tracer != nullptr) {
      // Swap each attached observer (the spec's stats/SLO collector) for a
      // timed forwarder; on_finish swaps them back before ExecuteSpec
      // detaches them.
      Machine& m = ctx.run.machine();
      const std::vector<MachineObserver*> attached = m.observers().items();
      for (MachineObserver* o : attached) {
        wrapped.push_back(std::make_unique<TimedObserver>(o, tracer));
        m.RemoveObserver(o);
        m.AddObserver(wrapped.back().get());
      }
    }
    start_ns = HostNowNs();
  };
  const std::function<void(SpecRunContext&, RunResult&)> prev_finish = spec.hooks.on_finish;
  spec.hooks.on_finish = [&](SpecRunContext& ctx, RunResult& result) {
    finish_ns = HostNowNs();
    Machine& m = ctx.run.machine();
    for (const std::unique_ptr<TimedObserver>& w : wrapped) {
      m.RemoveObserver(w.get());
      m.AddObserver(w->inner());
    }
    out.events = ctx.run.engine().events_executed();
    out.sim_s = ToSeconds(ctx.run.engine().now());
    out.elision = m.tick_elision();
    if (!ctx.apps.empty()) {
      if (const auto* app = dynamic_cast<const ServingApp*>(ctx.apps[0])) {
        out.serving = true;
        out.admitted = app->admitted();
        out.completed = app->completed();
        out.good = app->good();
        const LatencyHistogram& lat = app->stats().latency;
        out.p50 = lat.Percentile(50);
        out.p99 = lat.Percentile(99);
        out.p999 = lat.Percentile(99.9);
        out.max = lat.max();
      }
    }
    if (prev_finish) {
      prev_finish(ctx, result);
    }
  };

  const int64_t enter_ns = HostNowNs();
  out.result = ExecuteSpec(spec);
  const int64_t exit_ns = HostNowNs();
  out.setup_ns = start_ns - enter_ns;
  out.run_ns = finish_ns - start_ns;
  out.harvest_ns = exit_ns - finish_ns;
  out.check_failure = CheckOutputs(leg, out);
  out.digest = DigestOf(out);
  return out;
}

}  // namespace simbench
