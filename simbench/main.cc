// simbench: runs one workload's legs (every registered scheduling class) for
// a fixed host-time budget and prints the benchmark's metrics. The last line
// of stdout is one JSON object:
//   {"correct": ..., "attempted": <legs run>, "failed": <legs whose output
//    check failed>, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 ok, 1 an output check failed, 2 usage error. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "legs.h"
#include "src/sched/registry.h"

using namespace schedbattle;
using namespace simbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string digests;  // reference digest file (digests.txt)
};

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n >= 1 && n <= 600) {
      args->seconds = static_cast<int>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (flag == "--digests") {
      args->digests = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

// One named value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Element-wise median of per-round lists that share one key order.
MetricList MedianOf(const std::vector<MetricList>& rounds) {
  MetricList out = rounds.front();
  for (size_t k = 0; k < out.size(); ++k) {
    std::vector<double> values;
    for (const MetricList& r : rounds) {
      values.push_back(r[k].value);
    }
    out[k].value = Median(std::move(values));
  }
  return out;
}

// A fixed piece of work owned by the benchmark, shaped like the simulator's
// inner loop: a binary-heap event queue whose pops chase indexes through a
// 4 MB ring. On a shared host every program slows down and speeds up
// together, by as much as 1.5x over minutes. Timing the probe around each
// group of legs gives the host's speed at that moment. Each end-to-end time
// is scaled to the speed at which the probe takes kProbeReferenceNs. A
// change to the simulator cannot move the probe, so the scaled times move
// with the simulator alone.
class SpeedProbe {
 public:
  static constexpr double kProbeReferenceNs = 20e6;
  // Legs run between two probes: at least this much host time.
  static constexpr int64_t kProbeEveryNs = 250000000;

  SpeedProbe() : ring_(1u << 20) {
    for (uint32_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = i;
    }
    uint64_t x = 7;
    for (size_t i = ring_.size() - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[Next(x) % i]);
    }
  }

  int64_t RunNs() {
    const int64_t start = HostNowNs();
    using Event = std::pair<int64_t, uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    uint64_t x = 42;
    uint32_t j = 0;
    for (uint32_t i = 0; i < 16384; ++i) {
      queue.push({static_cast<int64_t>(Next(x) % 1000000), i});
    }
    for (int i = 0; i < 100000; ++i) {
      const Event top = queue.top();
      queue.pop();
      j = ring_[j ^ (top.second & 1023)];
      queue.push({top.first + static_cast<int64_t>(Next(x) % 100000 + (j & 7)), top.second});
    }
    sink_ += static_cast<uint64_t>(queue.top().first) + j;
    return HostNowNs() - start;
  }

  uint64_t sink() const { return sink_; }  // printed, so the work cannot be elided

 private:
  static uint64_t Next(uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::vector<uint32_t> ring_;
  uint64_t sink_ = 0;
};

struct LegRun {
  LegOutcome outcome;
  SpanTracer::Tallies tallies{};  // traced rounds only
  // kProbeReferenceNs over the mean of the probes run just before and just
  // after the leg's group: below 1 when the host ran slow.
  double speed = 1;
};

struct Round {
  std::vector<LegRun> legs;
};

Round RunRound(const std::vector<Leg>& legs, bool traced, SpeedProbe& probe) {
  Round round;
  int64_t probe_before = probe.RunNs();
  size_t group_start = 0;
  int64_t group_ns = 0;
  for (size_t i = 0; i < legs.size(); ++i) {
    LegRun lr;
    if (traced) {
      SpanTracer tracer;
      lr.outcome = RunLeg(legs[i], &tracer);
      lr.tallies = tracer.tallies();
    } else {
      lr.outcome = RunLeg(legs[i], nullptr);
    }
    group_ns += lr.outcome.setup_ns + lr.outcome.run_ns + lr.outcome.harvest_ns;
    round.legs.push_back(std::move(lr));
    if (group_ns >= SpeedProbe::kProbeEveryNs || i + 1 == legs.size()) {
      const int64_t probe_after = probe.RunNs();
      const double speed =
          2 * SpeedProbe::kProbeReferenceNs / static_cast<double>(probe_before + probe_after);
      for (size_t g = group_start; g <= i; ++g) {
        round.legs[g].speed = speed;
      }
      probe_before = probe_after;
      group_start = i + 1;
      group_ns = 0;
    }
  }
  return round;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Reads "digest <label> <hex>" lines; other lines are ignored.
std::map<std::string, std::string> ReadDigests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag, label, hex;
    if (fields >> tag >> label >> hex && tag == "digest") {
      out[label] = hex;
    }
  }
  return out;
}

struct ClassTotals {
  int64_t run_ns = 0;
  double scaled_run_s = 0;  // run time scaled by each leg's speed
  double sim_s = 0;
  uint64_t events = 0;
};

std::map<SchedKind, ClassTotals> TotalsByClass(const std::vector<Leg>& legs, const Round& r) {
  std::map<SchedKind, ClassTotals> out;
  for (size_t i = 0; i < legs.size(); ++i) {
    const LegRun& l = r.legs[i];
    ClassTotals& t = out[legs[i].kind];
    t.run_ns += l.outcome.run_ns;
    t.scaled_run_s += 1e-9 * static_cast<double>(l.outcome.run_ns) * l.speed;
    t.sim_s += l.outcome.sim_s;
    t.events += l.outcome.events;
  }
  return out;
}

double ScaledRunS(const Round& r) {
  double s = 0;
  for (const LegRun& l : r.legs) {
    s += 1e-9 * static_cast<double>(l.outcome.run_ns) * l.speed;
  }
  return s;
}

// Every time here is scaled to the probe's reference speed (see SpeedProbe).
MetricList EndToEnd(const std::vector<Leg>& legs, const Round& r) {
  MetricList m;
  uint64_t events = 0;
  for (const auto& [kind, t] : TotalsByClass(legs, r)) {
    m.push_back({"host_s_per_sim_s." + std::string(SchedId(kind)), t.scaled_run_s / t.sim_s,
                 "s/s"});
    events += t.events;
  }
  double wall_s = 0;
  double setup_s = 0;
  for (const LegRun& l : r.legs) {
    const LegOutcome& o = l.outcome;
    wall_s += 1e-9 * static_cast<double>(o.setup_ns + o.run_ns + o.harvest_ns) * l.speed;
    setup_s += 1e-9 * static_cast<double>(o.setup_ns) * l.speed;
  }
  m.push_back({"wall_s", wall_s, "s"});
  m.push_back({"sim_events_per_host_s", static_cast<double>(events) / ScaledRunS(r), "1/s"});
  m.push_back({"setup_s", setup_s, "s"});
  return m;
}

MetricList CorePhases(const Round& r) {
  int64_t setup = 0, run = 0, harvest = 0;
  for (const LegRun& l : r.legs) {
    setup += l.outcome.setup_ns;
    run += l.outcome.run_ns;
    harvest += l.outcome.harvest_ns;
  }
  return {{"core.setup_ns", static_cast<double>(setup), "ns"},
          {"core.run_ns", static_cast<double>(run), "ns"},
          {"core.harvest_ns", static_cast<double>(harvest), "ns"}};
}

// Per-layer metrics of one traced round. Time outside the hooks is the
// untraced round's run time minus the traced self times, so the tracer's own
// cost is not counted as engine time.
MetricList PerLayer(const std::vector<Leg>& legs, const Round& r, const Round& plain) {
  MetricList m;
  const std::vector<SchedKind> kinds = SchedulerRegistry::Instance().AllKinds();
  const std::map<SchedKind, ClassTotals> totals = TotalsByClass(legs, r);
  const std::map<SchedKind, ClassTotals> plain_totals = TotalsByClass(legs, plain);
  for (const SchedKind k : kinds) {
    m.push_back({"sim.events." + std::string(SchedId(k)),
                 static_cast<double>(totals.at(k).events), "count"});
  }
  for (const SchedKind k : kinds) {
    m.push_back({"sim.sim_s." + std::string(SchedId(k)), totals.at(k).sim_s, "s"});
  }

  std::map<SchedKind, SpanTracer::Tallies> hooks;
  std::map<SchedKind, MachineCounters> counters;
  std::map<SchedKind, TickElisionCounters> elision;
  uint64_t observer_calls = 0;
  int64_t observer_ns = 0;
  int64_t admitted = 0, completed = 0;
  for (size_t i = 0; i < legs.size(); ++i) {
    const LegRun& l = r.legs[i];
    const SchedKind k = legs[i].kind;
    for (int h = 0; h < kNumLayers; ++h) {
      hooks[k][h].calls += l.tallies[h].calls;
      hooks[k][h].self_ns += l.tallies[h].self_ns;
    }
    counters[k].Accumulate(l.outcome.result.counters);
    elision[k].Accumulate(l.outcome.elision);
    observer_calls += l.tallies[static_cast<int>(Layer::kObserver)].calls;
    observer_ns += l.tallies[static_cast<int>(Layer::kObserver)].self_ns;
    admitted += l.outcome.admitted;
    completed += l.outcome.completed;
  }

  for (const SchedKind k : kinds) {
    const std::string p = "sched." + std::string(SchedId(k)) + ".";
    const MachineCounters& c = counters[k];
    const TickElisionCounters& e = elision[k];
    const auto count = [&](const char* name, uint64_t v) {
      m.push_back({p + name, static_cast<double>(v), "count"});
    };
    count("context_switches", c.context_switches);
    count("wakeups", c.wakeups);
    count("migrations", c.migrations);
    count("balance_invocations", c.balance_invocations);
    count("pickcpu_scans", c.pickcpu_scans);
    count("ticks_fired", e.ticks_fired);
    count("ticks_elided", e.ticks_elided);
    count("batch_updates", e.batch_updates);
    int64_t inside_ns = 0;
    for (const SpanTracer::Tally& t : hooks[k]) {
      inside_ns += t.self_ns;
    }
    m.push_back({p + "outside_hooks_ns",
                 static_cast<double>(plain_totals.at(k).run_ns - inside_ns),
                 "ns"});
  }
  for (const SchedKind k : kinds) {
    for (int h = 0; h < kNumHookLayers; ++h) {
      const std::string p =
          std::string(SchedId(k)) + "." + std::string(LayerName(static_cast<Layer>(h)));
      m.push_back({p + ".calls", static_cast<double>(hooks[k][h].calls), "count"});
      m.push_back({p + ".self_ns", static_cast<double>(hooks[k][h].self_ns), "ns"});
    }
  }
  m.push_back({"metrics.observer_calls", static_cast<double>(observer_calls), "count"});
  m.push_back({"metrics.observer_ns", static_cast<double>(observer_ns), "ns"});
  m.push_back({"workload.requests_admitted", static_cast<double>(admitted), "count"});
  m.push_back({"workload.requests_completed", static_cast<double>(completed), "count"});
  m.push_back({"workload.legs", static_cast<double>(legs.size()), "count"});
  return m;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const std::vector<Leg> legs = MakeLegs(args.workload, args.seed);
  if (legs.empty()) {
    std::string names;
    for (const std::string& w : WorkloadNames()) {
      names += " " + w;
    }
    std::fprintf(stderr, "unknown --workload '%s'; one of:%s\n", args.workload.c_str(),
                 names.c_str());
    return 2;
  }
  std::printf("workload %s seed %" PRIu64 " (default %" PRIu64 ", held-out %" PRIu64
              ") seconds %d trace %d legs %zu\n",
              args.workload.c_str(), args.seed, kDefaultSeed, kHeldOutSeed, args.seconds,
              args.trace ? 1 : 0, legs.size());

  SpeedProbe probe;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<uint64_t> untraced_digests;  // first untraced round, per leg
  const auto account = [&](const Round& r, bool is_traced) {
    for (size_t i = 0; i < r.legs.size(); ++i) {
      const LegOutcome& o = r.legs[i].outcome;
      std::string failure = o.check_failure;
      if (failure.empty() && is_traced && o.digest != untraced_digests[i]) {
        failure = "traced run diverged from the untraced run";
      }
      ++attempted;
      if (!failure.empty()) {
        ++failed;
        std::printf("check FAILED %s: %s\n", legs[i].label.c_str(), failure.c_str());
      }
    }
  };

  // Untraced rounds (each followed by a traced one under --trace 1) while
  // another round still fits in the budget; at least three, so every metric
  // is a median.
  const int64_t deadline = HostNowNs() + int64_t{args.seconds} * 1000000000;
  int64_t last_round_ns = 0;
  while (untraced.size() < 3 || HostNowNs() + last_round_ns <= deadline) {
    const int64_t round_start = HostNowNs();
    untraced.push_back(RunRound(legs, false, probe));
    if (untraced.size() == 1) {
      for (size_t i = 0; i < legs.size(); ++i) {
        const LegOutcome& o = untraced[0].legs[i].outcome;
        untraced_digests.push_back(o.digest);
        std::printf("leg %s sim_s %.6f events %" PRIu64 " run_s %.4f check %s\n",
                    legs[i].label.c_str(), o.sim_s, o.events, 1e-9 * o.run_ns,
                    o.check_failure.empty() ? "ok" : "FAILED");
      }
      for (size_t i = 0; i < legs.size(); ++i) {
        std::printf("digest %s %s\n", legs[i].label.c_str(),
                    Hex(untraced_digests[i]).c_str());
      }
    }
    account(untraced.back(), false);
    double speed = 0;
    for (const LegRun& l : untraced.back().legs) {
      speed += l.speed / static_cast<double>(legs.size());
    }
    std::printf("round %zu speed %.4f", untraced.size(), speed);
    for (const Metric& m : EndToEnd(legs, untraced.back())) {
      std::printf(" %s %.6g", m.name.c_str(), m.value);
    }
    std::printf("\n");
    if (args.trace) {
      traced.push_back(RunRound(legs, true, probe));
      account(traced.back(), true);
    }
    last_round_ns = HostNowNs() - round_start;
  }

  MetricList metrics;
  if (!args.trace) {
    std::vector<MetricList> per_round;
    for (const Round& r : untraced) {
      per_round.push_back(EndToEnd(legs, r));
    }
    metrics = MedianOf(per_round);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics.push_back({"peak_rss_mb", usage.ru_maxrss / 1024.0, "MB"});
  } else {
    // Digests of the default seed's legs against the committed reference.
    std::vector<Leg> default_legs = MakeLegs(args.workload, kDefaultSeed);
    std::vector<uint64_t> default_digests = untraced_digests;
    if (args.seed != kDefaultSeed) {
      const Round r = RunRound(default_legs, false, probe);
      account(r, false);
      default_digests.clear();
      for (const LegRun& l : r.legs) {
        default_digests.push_back(l.outcome.digest);
      }
    }
    const std::map<std::string, std::string> reference = ReadDigests(args.digests);
    int changed = 0;
    for (size_t i = 0; i < default_legs.size(); ++i) {
      const auto it = reference.find(default_legs[i].label);
      if (it == reference.end() || it->second != Hex(default_digests[i])) {
        ++changed;
        std::printf("digest changed %s (reference %s, now %s)\n",
                    default_legs[i].label.c_str(),
                    it == reference.end() ? "missing" : it->second.c_str(),
                    Hex(default_digests[i]).c_str());
      }
    }

    std::vector<MetricList> core_rounds;
    std::vector<double> plain_run, traced_run;
    for (const Round& r : untraced) {
      core_rounds.push_back(CorePhases(r));
      plain_run.push_back(ScaledRunS(r));
    }
    std::vector<MetricList> layer_rounds;
    for (size_t i = 0; i < traced.size(); ++i) {
      layer_rounds.push_back(PerLayer(legs, traced[i], untraced[i]));
      traced_run.push_back(ScaledRunS(traced[i]));
    }
    metrics = MedianOf(core_rounds);
    for (Metric& m : MedianOf(layer_rounds)) {
      metrics.push_back(std::move(m));
    }
    metrics.push_back({"sim.digest_changed", static_cast<double>(changed), "count"});
    const double plain = Median(plain_run);
    metrics.push_back({"trace.overhead_pct", 100.0 * (Median(traced_run) - plain) / plain, "%"});
    // Spans of every traced leg, written once now that the run is over.
    for (const Round& r : traced) {
      for (size_t i = 0; i < legs.size(); ++i) {
        const LegOutcome& o = r.legs[i].outcome;
        std::printf("span %s setup_ns %" PRId64 " run_ns %" PRId64 " harvest_ns %" PRId64 "\n",
                    legs[i].label.c_str(), o.setup_ns, o.run_ns, o.harvest_ns);
      }
    }
  }

  std::printf("rounds untraced %zu traced %zu probe checksum %" PRIu64 "\n", untraced.size(),
              traced.size(), probe.sink());
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("legs_failed_frac %.6f (%" PRIu64 " of %" PRIu64 " legs)\n",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}
