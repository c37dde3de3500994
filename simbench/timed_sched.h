// Tracing for the benchmark's traced run, measured from outside the library.
//
// TimedScheduler decorates a real Scheduler and times the hooks the
// per-layer metrics name; TimedObserver decorates a MachineObserver and times
// every callback. Both record into a SpanTracer, which keeps per-layer call
// counts and self time in memory (self time excludes nested spans: an
// observer callback fired from inside a placement hook is charged to the
// observer, not to the hook). Nothing is written until the caller reads the
// tallies after the run.
//
// Timing every call would cost more than many of the calls: TickBoundary is
// asked about every elided core, thousands of times per enqueue, and the
// Figure 8 suite makes millions of sub-microsecond hook and observer calls.
// So every call is counted, and one in SampleEvery(layer) is timed. tallies()
// extrapolates each layer's mean self time over its untimed calls, and takes
// that estimate out of the self time of the timed span that enclosed each
// untimed call.
#ifndef SIMBENCH_TIMED_SCHED_H_
#define SIMBENCH_TIMED_SCHED_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/sched/observer.h"
#include "src/sched/sched_class.h"

namespace simbench {

enum class Layer {
  kSelectTaskRq,
  kEnqueue,
  kPickNext,
  kPutPrev,
  kBlock,
  kTick,
  kCheckPreempt,
  kCoreIdle,
  kTickBoundary,
  kObserver,
  kCount,
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);
inline constexpr int kNumHookLayers = static_cast<int>(Layer::kObserver);
// Metric-name spelling: "select_task_rq", ..., "tick_boundary", "observer".
std::string_view LayerName(Layer layer);

int64_t HostNowNs();

class SpanTracer {
 public:
  struct Tally {
    uint64_t calls = 0;
    int64_t self_ns = 0;
  };
  using Tallies = std::array<Tally, kNumLayers>;

  // Counts one call and, if it is sampled, times it. Spans nest; a timed
  // span's elapsed time is removed from the enclosing timed span's self time.
  // Each timed span reads the clock twice before the call: the gap between
  // those reads is what one read costs right here, and it is taken out of the
  // span's self time, so the tracer's own reads are not charged to the hook.
  class Span {
   public:
    Span(SpanTracer& tracer, Layer layer)
        : tracer_(tracer), layer_(layer), timed_(tracer.Admit(layer)) {
      if (timed_) {
        tracer_.open_.push_back({layer, 0});
        const int64_t before = HostNowNs();
        start_ = HostNowNs();
        read_ns_ = start_ - before;
      }
    }
    ~Span() {
      if (timed_) {
        tracer_.Close(layer_, HostNowNs() - start_, read_ns_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanTracer& tracer_;
    Layer layer_;
    bool timed_;
    int64_t start_ = 0;
    int64_t read_ns_ = 0;
  };

  // One call in this many is timed.
  static constexpr uint64_t SampleEvery(Layer layer) {
    return layer == Layer::kTickBoundary ? 64 : 8;
  }

  SpanTracer() { open_.reserve(16); }
  // Exact call counts and estimated self times, indexed by Layer.
  Tallies tallies() const;

 private:
  struct Open {
    Layer layer;
    int64_t child_ns;  // time spent in timed children
  };

  // Counts the call; true when it is to be timed.
  bool Admit(Layer layer);
  void Close(Layer layer, int64_t elapsed, int64_t read_ns);

  Tallies measured_{};  // every call counted; self time of the timed ones
  // [enclosing timed layer, or kNumLayers for none][layer]: untimed calls.
  std::array<std::array<uint64_t, kNumLayers>, kNumLayers + 1> untimed_under_{};
  std::vector<Open> open_;  // timed spans only
};

// Forwards every Scheduler virtual to `inner`, timing the hooks Layer names.
class TimedScheduler final : public schedbattle::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<schedbattle::Scheduler> inner, SpanTracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  void Attach(schedbattle::Machine* machine) override { inner_->Attach(machine); }
  void Start() override { inner_->Start(); }
  void DeclareGroup(schedbattle::GroupId id, schedbattle::GroupId parent) override {
    inner_->DeclareGroup(id, parent);
  }
  void TaskNew(schedbattle::SimThread* thread, schedbattle::SimThread* parent) override {
    inner_->TaskNew(thread, parent);
  }
  void TaskExit(schedbattle::SimThread* thread) override { inner_->TaskExit(thread); }
  schedbattle::CoreId SelectTaskRq(schedbattle::SimThread* thread, schedbattle::CoreId origin,
                                   schedbattle::EnqueueKind kind) override;
  void EnqueueTask(schedbattle::CoreId core, schedbattle::SimThread* thread,
                   schedbattle::EnqueueKind kind) override;
  void DequeueTask(schedbattle::CoreId core, schedbattle::SimThread* thread) override {
    inner_->DequeueTask(core, thread);
  }
  schedbattle::SimThread* PickNextTask(schedbattle::CoreId core) override;
  void PutPrevTask(schedbattle::CoreId core, schedbattle::SimThread* thread) override;
  void OnTaskBlock(schedbattle::CoreId core, schedbattle::SimThread* thread,
                   bool voluntary) override;
  void YieldTask(schedbattle::CoreId core, schedbattle::SimThread* thread) override {
    inner_->YieldTask(core, thread);
  }
  void TaskTick(schedbattle::CoreId core, schedbattle::SimThread* current) override;
  void ReniceTask(schedbattle::SimThread* thread) override { inner_->ReniceTask(thread); }
  void CheckPreemptWakeup(schedbattle::CoreId core, schedbattle::SimThread* woken) override;
  void OnCoreIdle(schedbattle::CoreId core) override;
  schedbattle::SimDuration TickPeriod() const override { return inner_->TickPeriod(); }
  schedbattle::SimTime TickBoundary(schedbattle::CoreId core,
                                    const schedbattle::SimThread* current,
                                    schedbattle::SimTime next_tick) const override;
  bool IdleTickIsNoOp() const override { return inner_->IdleTickIsNoOp(); }
  bool ShardParallelSafe() const override { return inner_->ShardParallelSafe(); }
  bool TickMayCross(schedbattle::CoreId core) const override {
    return inner_->TickMayCross(core);
  }
  double LoadOf(schedbattle::CoreId core) const override { return inner_->LoadOf(core); }
  int RunnableCountOf(schedbattle::CoreId core) const override {
    return inner_->RunnableCountOf(core);
  }
  int InteractivityPenaltyOf(const schedbattle::SimThread* thread) const override {
    return inner_->InteractivityPenaltyOf(thread);
  }
  int64_t MinVruntimeOf(schedbattle::CoreId core) const override {
    return inner_->MinVruntimeOf(core);
  }

 private:
  std::unique_ptr<schedbattle::Scheduler> inner_;
  SpanTracer* tracer_;  // not owned; outlives the run
};

// Forwards every MachineObserver callback to `inner`, timed as Layer::kObserver.
class TimedObserver final : public schedbattle::MachineObserver {
 public:
  TimedObserver(schedbattle::MachineObserver* inner, SpanTracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  schedbattle::MachineObserver* inner() const { return inner_; }

  void OnDispatch(schedbattle::SimTime now, schedbattle::CoreId core,
                  const schedbattle::SimThread& thread) override;
  void OnDeschedule(schedbattle::SimTime now, schedbattle::CoreId core,
                    const schedbattle::SimThread& thread, char reason) override;
  void OnWake(schedbattle::SimTime now, const schedbattle::SimThread& thread,
              schedbattle::CoreId target) override;
  void OnMigrate(schedbattle::SimTime now, const schedbattle::SimThread& thread,
                 schedbattle::CoreId from, schedbattle::CoreId to) override;
  void OnFork(schedbattle::SimTime now, const schedbattle::SimThread& thread,
              schedbattle::CoreId target) override;
  void OnPickCpu(schedbattle::SimTime now, const schedbattle::PickCpuDecision& decision) override;
  void OnBalancePass(schedbattle::SimTime now, const schedbattle::BalancePassRecord& pass) override;
  void OnPreempt(schedbattle::SimTime now, const schedbattle::PreemptDecision& decision) override;

 private:
  schedbattle::MachineObserver* inner_;  // not owned
  SpanTracer* tracer_;                   // not owned
};

}  // namespace simbench

#endif  // SIMBENCH_TIMED_SCHED_H_
