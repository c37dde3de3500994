// The traced run must simulate exactly what the untraced run simulates: for
// every registered class, a leg run through TimedScheduler/TimedObserver
// matches the plain leg in events executed, machine counters, tick-elision
// counters and the digest of its simulated outputs. A decorator that fails to
// forward TickBoundary arms every tick and shows here as different event and
// elision counts.
#include <string>

#include <gtest/gtest.h>

#include "legs.h"
#include "src/core/scenarios.h"
#include "src/metrics/slo.h"
#include "src/sched/registry.h"

namespace simbench {
namespace {

using namespace schedbattle;

std::vector<Leg> EquivalenceLegs() {
  std::vector<Leg> legs;
  for (const SchedKind kind : SchedulerRegistry::Instance().AllKinds()) {
    const std::string id(SchedId(kind));
    legs.push_back({"serve-smoke/" + id, kind, ServeSpec("serve-smoke", kind, kDefaultSeed, 0.25)});

    ExperimentSpec fig8 = ExperimentSpec::Multicore(kind, kDefaultSeed);
    fig8.WithScale(0.05).Named("MG");
    SloObjective p99;
    std::string error;
    EXPECT_TRUE(ParseSloObjective("wakeup_p99<1s", &p99, &error)) << error;
    fig8.slo = {p99};
    fig8.Add(RegistryApp("MG"));
    legs.push_back({"fig8-MG/" + id, kind, std::move(fig8)});
  }
  return legs;
}

void ExpectSameCounters(const MachineCounters& a, const MachineCounters& b) {
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.wakeup_preemptions, b.wakeup_preemptions);
  EXPECT_EQ(a.tick_preemptions, b.tick_preemptions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.forks, b.forks);
  EXPECT_EQ(a.exits, b.exits);
  EXPECT_EQ(a.pickcpu_scans, b.pickcpu_scans);
  EXPECT_EQ(a.balance_invocations, b.balance_invocations);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.overhead_ns[i], b.overhead_ns[i]);
  }
}

TEST(DecoratorEquivalenceTest, TracedLegMatchesPlainLegForEveryClass) {
  for (const Leg& leg : EquivalenceLegs()) {
    SCOPED_TRACE(leg.label);
    const LegOutcome plain = RunLeg(leg, nullptr);
    SpanTracer tracer;
    const LegOutcome traced = RunLeg(leg, &tracer);

    EXPECT_EQ(plain.check_failure, "");
    EXPECT_EQ(traced.check_failure, "");
    EXPECT_EQ(plain.events, traced.events);
    ExpectSameCounters(plain.result.counters, traced.result.counters);
    EXPECT_EQ(plain.elision.ticks_fired, traced.elision.ticks_fired);
    EXPECT_EQ(plain.elision.ticks_elided, traced.elision.ticks_elided);
    EXPECT_EQ(plain.elision.batch_updates, traced.elision.batch_updates);
    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_EQ(plain.sim_s, traced.sim_s);

    // The decorator was in the path, and so was the observer forwarder.
    const SpanTracer::Tallies tallies = tracer.tallies();
    for (const Layer layer : {Layer::kPickNext, Layer::kEnqueue, Layer::kTickBoundary,
                              Layer::kObserver}) {
      EXPECT_GT(tallies[static_cast<int>(layer)].calls, 0u) << LayerName(layer);
    }
  }
}

}  // namespace
}  // namespace simbench
