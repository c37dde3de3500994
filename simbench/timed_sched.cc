#include "timed_sched.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace simbench {

using namespace schedbattle;

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSelectTaskRq:
      return "select_task_rq";
    case Layer::kEnqueue:
      return "enqueue";
    case Layer::kPickNext:
      return "pick_next";
    case Layer::kPutPrev:
      return "put_prev";
    case Layer::kBlock:
      return "block";
    case Layer::kTick:
      return "tick";
    case Layer::kCheckPreempt:
      return "check_preempt";
    case Layer::kCoreIdle:
      return "core_idle";
    case Layer::kTickBoundary:
      return "tick_boundary";
    case Layer::kObserver:
    case Layer::kCount:
      break;
  }
  return "observer";
}

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SpanTracer::Admit(Layer layer) {
  const int l = static_cast<int>(layer);
  if (++measured_[l].calls % SampleEvery(layer) == 0) {
    return true;
  }
  ++untimed_under_[open_.empty() ? kNumLayers : static_cast<int>(open_.back().layer)][l];
  return false;
}

void SpanTracer::Close(Layer layer, int64_t elapsed, int64_t read_ns) {
  // `elapsed` holds the call and one clock read; the enclosing span also paid
  // for the span's two earlier reads.
  const int64_t children = open_.back().child_ns;
  open_.pop_back();
  if (!open_.empty()) {
    open_.back().child_ns += elapsed + 2 * read_ns;
  }
  measured_[static_cast<int>(layer)].self_ns += elapsed - read_ns - children;
}

SpanTracer::Tallies SpanTracer::tallies() const {
  // mean[l] = (timed self time - estimated untimed children) / timed calls.
  // Each mean depends on its children's, so iterate; spans nest at most a few
  // layers deep, and every pass settles one more level.
  std::array<double, kNumLayers> mean{};
  for (int pass = 0; pass < kNumLayers; ++pass) {
    std::array<double, kNumLayers> next{};
    for (int l = 0; l < kNumLayers; ++l) {
      const uint64_t timed = measured_[l].calls / SampleEvery(static_cast<Layer>(l));
      if (timed == 0) {
        continue;
      }
      double self = static_cast<double>(measured_[l].self_ns);
      for (int c = 0; c < kNumLayers; ++c) {
        self -= mean[c] * static_cast<double>(untimed_under_[l][c]);
      }
      // A call can cost less than the jitter between two clock reads, so a
      // mean may come out below zero; it is clamped there.
      next[l] = std::max(0.0, self / static_cast<double>(timed));
    }
    mean = next;
  }
  Tallies out;
  for (int l = 0; l < kNumLayers; ++l) {
    out[l].calls = measured_[l].calls;
    out[l].self_ns = static_cast<int64_t>(mean[l] * static_cast<double>(measured_[l].calls));
  }
  return out;
}

CoreId TimedScheduler::SelectTaskRq(SimThread* thread, CoreId origin, EnqueueKind kind) {
  SpanTracer::Span span(*tracer_, Layer::kSelectTaskRq);
  return inner_->SelectTaskRq(thread, origin, kind);
}

void TimedScheduler::EnqueueTask(CoreId core, SimThread* thread, EnqueueKind kind) {
  SpanTracer::Span span(*tracer_, Layer::kEnqueue);
  inner_->EnqueueTask(core, thread, kind);
}

SimThread* TimedScheduler::PickNextTask(CoreId core) {
  SpanTracer::Span span(*tracer_, Layer::kPickNext);
  return inner_->PickNextTask(core);
}

void TimedScheduler::PutPrevTask(CoreId core, SimThread* thread) {
  SpanTracer::Span span(*tracer_, Layer::kPutPrev);
  inner_->PutPrevTask(core, thread);
}

void TimedScheduler::OnTaskBlock(CoreId core, SimThread* thread, bool voluntary) {
  SpanTracer::Span span(*tracer_, Layer::kBlock);
  inner_->OnTaskBlock(core, thread, voluntary);
}

void TimedScheduler::TaskTick(CoreId core, SimThread* current) {
  SpanTracer::Span span(*tracer_, Layer::kTick);
  inner_->TaskTick(core, current);
}

void TimedScheduler::CheckPreemptWakeup(CoreId core, SimThread* woken) {
  SpanTracer::Span span(*tracer_, Layer::kCheckPreempt);
  inner_->CheckPreemptWakeup(core, woken);
}

void TimedScheduler::OnCoreIdle(CoreId core) {
  SpanTracer::Span span(*tracer_, Layer::kCoreIdle);
  inner_->OnCoreIdle(core);
}

SimTime TimedScheduler::TickBoundary(CoreId core, const SimThread* current,
                                     SimTime next_tick) const {
  SpanTracer::Span span(*tracer_, Layer::kTickBoundary);
  return inner_->TickBoundary(core, current, next_tick);
}

void TimedObserver::OnDispatch(SimTime now, CoreId core, const SimThread& thread) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnDispatch(now, core, thread);
}

void TimedObserver::OnDeschedule(SimTime now, CoreId core, const SimThread& thread,
                                 char reason) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnDeschedule(now, core, thread, reason);
}

void TimedObserver::OnWake(SimTime now, const SimThread& thread, CoreId target) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnWake(now, thread, target);
}

void TimedObserver::OnMigrate(SimTime now, const SimThread& thread, CoreId from, CoreId to) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnMigrate(now, thread, from, to);
}

void TimedObserver::OnFork(SimTime now, const SimThread& thread, CoreId target) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnFork(now, thread, target);
}

void TimedObserver::OnPickCpu(SimTime now, const PickCpuDecision& decision) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnPickCpu(now, decision);
}

void TimedObserver::OnBalancePass(SimTime now, const BalancePassRecord& pass) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnBalancePass(now, pass);
}

void TimedObserver::OnPreempt(SimTime now, const PreemptDecision& decision) {
  SpanTracer::Span span(*tracer_, Layer::kObserver);
  inner_->OnPreempt(now, decision);
}

}  // namespace simbench
