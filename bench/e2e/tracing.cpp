#include "tracing.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace hs::e2e {

SpanContext& thread_span() {
  thread_local SpanContext span;
  return span;
}

stats::Histogram make_ns_histogram() {
  return stats::Histogram(1.0, 1e9, 900, stats::Histogram::Scale::kLog);
}

SpanBuffer::SpanBuffer(size_t capacity) : spans_(capacity) {}

void SpanBuffer::add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t parent, uint64_t job, uint32_t thread) {
  add_with_id(next_id(), name, start_ns, end_ns, parent, job, thread);
}

void SpanBuffer::add_with_id(uint64_t id, const char* name, int64_t start_ns,
                             int64_t end_ns, uint64_t parent, uint64_t job,
                             uint32_t thread) {
  const size_t slot = count_.fetch_add(1, std::memory_order_relaxed);
  if (slot < spans_.size()) {
    spans_[slot] = Span{name, start_ns, end_ns, id, parent, job, thread};
  }
}

size_t SpanBuffer::size() const {
  const size_t count = count_.load(std::memory_order_relaxed);
  return count < spans_.size() ? count : spans_.size();
}

void SpanBuffer::write_chrome_json(const std::string& path,
                                   int64_t origin_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot open trace file " + path);
  }
  std::fputs("{\"traceEvents\":[\n", out);
  const size_t count = size();
  for (size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"job\":%llu}}%s\n",
                 s.name, s.thread,
                 static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.job),
                 i + 1 < count ? "," : "");
  }
  std::fputs("]}\n", out);
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

TimedDispatcher::TimedDispatcher(std::unique_ptr<dispatch::Dispatcher> inner,
                                 DispatchStats& stats, SpanBuffer* spans,
                                 bool own_job_ids, uint64_t run_span)
    : inner_(std::move(inner)),
      stats_(stats),
      spans_(spans),
      own_job_ids_(own_job_ids),
      run_span_(run_span) {}

template <typename Fn>
auto TimedDispatcher::timed_pick(Fn&& fn) {
  const int64_t t0 = now_ns();
  const size_t machine = fn();
  const int64_t t1 = now_ns();
  const int64_t dt = t1 - t0;
  stats_.pick_ns.add(static_cast<double>(dt));
  stats_.pick_total_ns += dt;
  ++stats_.picks;
  SpanContext& span = thread_span();
  span.dispatch_ns += dt;
  if (spans_ != nullptr && span.sampled) {
    spans_->add("dispatch.pick", t0, t1, span.parent, span.job, span.thread);
  }
  if (own_job_ids_) {
    span.sampled = false;  // reports that follow belong to other jobs
  }
  return machine;
}

template <typename Fn>
void TimedDispatcher::timed_report(Fn&& fn) {
  const int64_t t0 = now_ns();
  fn();
  const int64_t t1 = now_ns();
  const int64_t dt = t1 - t0;
  stats_.report_total_ns += dt;
  SpanContext& span = thread_span();
  span.dispatch_ns += dt;
  if (spans_ != nullptr) {
    // The simulator does not say which job a report is for: sample by
    // count and leave the job id 0.
    const bool sampled = own_job_ids_ ? stats_.reports % kSampleEvery == 0
                                      : span.sampled;
    if (sampled) {
      spans_->add("dispatch.report", t0, t1,
                  own_job_ids_ ? run_span_ : span.parent,
                  own_job_ids_ ? 0 : span.job, span.thread);
    }
  }
  ++stats_.reports;
}

template <typename Fn>
auto TimedDispatcher::timed_other(Fn&& fn) {
  const int64_t t0 = now_ns();
  auto result = fn();
  const int64_t dt = now_ns() - t0;
  stats_.other_total_ns += dt;
  thread_span().dispatch_ns += dt;
  return result;
}

size_t TimedDispatcher::pick(rng::Xoshiro256& gen) {
  return timed_pick([&] { return inner_->pick(gen); });
}

size_t TimedDispatcher::pick_sized(rng::Xoshiro256& gen, double size) {
  return timed_pick([&] { return inner_->pick_sized(gen, size); });
}

size_t TimedDispatcher::pick_hedge(rng::Xoshiro256& gen, double size,
                                   size_t exclude) {
  return timed_pick([&] { return inner_->pick_hedge(gen, size, exclude); });
}

void TimedDispatcher::reset() {
  arrivals_ = 0;
  inner_->reset();
}

void TimedDispatcher::on_arrival(double now) {
  if (own_job_ids_) {
    SpanContext& span = thread_span();
    span.job = arrivals_;
    span.parent = run_span_;
    span.sampled = spans_ != nullptr && arrivals_ % kSampleEvery == 0;
    ++arrivals_;
  }
  timed_other([&] {
    inner_->on_arrival(now);
    return 0;
  });
}

void TimedDispatcher::on_departure_report(size_t machine) {
  timed_report([&] { inner_->on_departure_report(machine); });
}

void TimedDispatcher::on_departure_report(size_t machine, double now) {
  timed_report([&] { inner_->on_departure_report(machine, now); });
}

void TimedDispatcher::on_departure_report(size_t machine, double now,
                                          double work) {
  timed_report([&] { inner_->on_departure_report(machine, now, work); });
}

void TimedDispatcher::on_load_report(size_t machine, uint64_t queue_length) {
  timed_report([&] { inner_->on_load_report(machine, queue_length); });
}

bool TimedDispatcher::rebuild_fractions(std::span<const double> fractions) {
  return timed_other([&] { return inner_->rebuild_fractions(fractions); });
}

bool TimedDispatcher::set_available_mask(const std::vector<bool>& available) {
  return timed_other([&] { return inner_->set_available_mask(available); });
}

void TimedDispatcher::on_dispatch_result(size_t machine, bool accepted,
                                         double now) {
  timed_other([&] {
    inner_->on_dispatch_result(machine, accepted, now);
    return 0;
  });
}

void TimedDispatcher::on_machine_state_report(size_t machine, bool up) {
  timed_other([&] {
    inner_->on_machine_state_report(machine, up);
    return 0;
  });
}

}  // namespace hs::e2e
