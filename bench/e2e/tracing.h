// Tracing for the end-to-end benchmark: per-call latency histograms and
// sampled spans, recorded from outside the library.
//
// TimedDispatcher forwards every dispatch::Dispatcher virtual to the
// stack it wraps and times each call. The library is never instrumented
// itself; spans are taken at the calls the benchmark makes into it
// (run_experiment, acquire, release, tick) and at the dispatcher
// boundary. A run with tracing off constructs none of this.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatcher.h"
#include "stats/histogram.h"

namespace hs::e2e {

[[nodiscard]] inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One in kSampleEvery jobs or requests records spans.
inline constexpr uint64_t kSampleEvery = 1024;

/// Log-scale latency histogram in nanoseconds, 1 ns to 1 s at ~2% bins.
[[nodiscard]] stats::Histogram make_ns_histogram();

/// One recorded interval. Spans of one job or request share `job`;
/// `parent` is the id of the span that caused this one (0 = none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t job = 0;
  uint32_t thread = 0;
};

/// Preallocated span store, appended to from any thread without locks.
/// Spans past the capacity are dropped.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity);

  /// Record a span under a fresh id (ids start at 1).
  void add(const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t parent, uint64_t job, uint32_t thread);
  /// Reserve an id for a span whose end is not known yet, so children
  /// can name it as parent; record it later with add_with_id().
  [[nodiscard]] uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_with_id(uint64_t id, const char* name, int64_t start_ns,
                   int64_t end_ns, uint64_t parent, uint64_t job,
                   uint32_t thread);

  [[nodiscard]] size_t size() const;

  /// Write the spans as Chrome trace-event JSON ("X" events, µs since
  /// `origin_ns`, ids in args). Throws std::runtime_error on I/O failure.
  void write_chrome_json(const std::string& path, int64_t origin_ns) const;

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> next_id_{1};
};

/// The span context of one thread: the job or request being handled and
/// the span its dispatcher calls nest under.
struct SpanContext {
  uint64_t job = 0;
  uint64_t parent = 0;
  bool sampled = false;
  uint32_t thread = 0;  // track of the thread in the trace
  /// Nanoseconds spent inside TimedDispatcher calls since the thread
  /// last reset this (serving self time = acquire − this).
  int64_t dispatch_ns = 0;
};

/// The calling thread's span context.
[[nodiscard]] SpanContext& thread_span();

/// Per-call statistics of one dispatcher stack. Calls are serialized by
/// the harness (simulation thread or the serving lock), so plain fields.
struct DispatchStats {
  stats::Histogram pick_ns = make_ns_histogram();
  uint64_t picks = 0;
  uint64_t reports = 0;
  int64_t pick_total_ns = 0;
  int64_t report_total_ns = 0;
  int64_t other_total_ns = 0;  // arrivals, masks, outcomes, state reports

  [[nodiscard]] int64_t total_ns() const {
    return pick_total_ns + report_total_ns + other_total_ns;
  }
};

/// Forwards every Dispatcher virtual to `inner`, timing each call into
/// `stats` and recording sampled spans into `spans` under thread_span().
/// `own_job_ids`, each on_arrival() starts a new job whose id is the
/// arrival count (the simulator has no other per-job boundary visible
/// from outside); otherwise the caller sets thread_span() per request.
///
/// Never wrap a stack whose decorators cluster::run_simulation locates
/// by dynamic_cast (hedging, circuit breaker, governed adaptive): the
/// wrapper would hide them and change the run.
class TimedDispatcher final : public dispatch::Dispatcher {
 public:
  TimedDispatcher(std::unique_ptr<dispatch::Dispatcher> inner,
                  DispatchStats& stats, SpanBuffer* spans, bool own_job_ids,
                  uint64_t run_span = 0);

  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  [[nodiscard]] size_t pick_sized(rng::Xoshiro256& gen, double size) override;
  [[nodiscard]] size_t pick_hedge(rng::Xoshiro256& gen, double size,
                                  size_t exclude) override;
  [[nodiscard]] bool uses_size() const override { return inner_->uses_size(); }
  void reset() override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] size_t machine_count() const override {
    return inner_->machine_count();
  }
  void on_arrival(double now) override;
  void on_departure_report(size_t machine) override;
  void on_departure_report(size_t machine, double now) override;
  void on_departure_report(size_t machine, double now, double work) override;
  void on_load_report(size_t machine, uint64_t queue_length) override;
  [[nodiscard]] bool uses_feedback() const override {
    return inner_->uses_feedback();
  }
  bool rebuild_fractions(std::span<const double> fractions) override;
  bool set_available_mask(const std::vector<bool>& available) override;
  void on_dispatch_result(size_t machine, bool accepted, double now) override;
  [[nodiscard]] bool uses_overload_feedback() const override {
    return inner_->uses_overload_feedback();
  }
  void on_machine_state_report(size_t machine, bool up) override;
  [[nodiscard]] bool uses_fault_feedback() const override {
    return inner_->uses_fault_feedback();
  }
  size_t save_state(std::vector<double>& out) const override {
    return inner_->save_state(out);
  }
  size_t restore_state(std::span<const double> state) override {
    return inner_->restore_state(state);
  }

 private:
  template <typename Fn>
  auto timed_pick(Fn&& fn);
  template <typename Fn>
  void timed_report(Fn&& fn);
  template <typename Fn>
  auto timed_other(Fn&& fn);

  std::unique_ptr<dispatch::Dispatcher> inner_;
  DispatchStats& stats_;
  SpanBuffer* spans_;
  bool own_job_ids_;
  uint64_t run_span_;
  uint64_t arrivals_ = 0;
};

}  // namespace hs::e2e
