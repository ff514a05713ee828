// serve-ll-10k: a ServingDispatcher over Least-Load at n = 10^4 under
// open-loop Poisson load with mock backends.
//
// Two generator threads each issue half of the offered rate. A generator
// busy-waits until each request's due instant (sleep_until overshoots by
// tens of µs, which would swamp a sub-µs acquire), releasing the mock
// completions that come due while it waits. A mock backend holds a
// request for size/speed wall-seconds. The main thread is the watchdog:
// every 10 ms it calls tick() and sends one heartbeat, so each of the 1%
// of backends that emit heartbeats does so once per second. Three
// threads in all.
#include <algorithm>
#include <cmath>
#include <exception>
#include <latch>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "e2e.h"
#include "obs/metrics.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "serving/serving_dispatcher.h"
#include "util/check.h"
#include "workload/job_size.h"

namespace hs::e2e {
namespace {

constexpr size_t kMachines = 10000;
constexpr double kRho = 0.7;
constexpr double kRate = 300000.0;  // offered requests per second
constexpr int kGenerators = 2;
constexpr int64_t kWatchdogNs = 10'000'000;
constexpr size_t kHeartbeatStride = 100;  // every 100th backend: 1%
constexpr int64_t kWindowNs = 250'000'000;

serving::ServingConfig serving_config(uint64_t seed) {
  serving::ServingConfig config;
  config.seed = seed;
  config.health.release_deadline = 60.0;
  config.health.heartbeat.interval = 1.0;
  return config;
}

/// A request held by a mock backend until `done_ns`.
struct Pending {
  int64_t done_ns = 0;
  int64_t due_ns = 0;
  double work = 0.0;
  double hold_s = 0.0;
  uint64_t id = 0;
  uint64_t span = 0;  // request span id when sampled, else 0
  uint32_t machine = 0;
  bool operator>(const Pending& other) const { return done_ns > other.done_ns; }
};

/// Samples of the requests due in one kWindowNs window.
struct Window {
  std::vector<float> route_ns;    // due instant -> acquire return
  std::vector<float> acquire_ns;  // acquire call -> return
  std::vector<float> ratio;  // (release - due) / hold, natural releases
};

struct GeneratorResult {
  std::vector<Window> windows;
  uint64_t issued = 0;
  uint64_t bad_status = 0;
  int64_t last_return_ns = 0;
  // Traced sessions only.
  stats::Histogram late_ns = make_ns_histogram();
  stats::Histogram self_ns = make_ns_histogram();
  stats::Histogram release_ns = make_ns_histogram();
  int64_t router_ns = 0;  // time inside acquire() and release()
  std::exception_ptr error;
};

struct Session {
  std::vector<double> speeds;
  double mean_size = 0.0;
  uint64_t seed = 0;
  double seconds = 0.0;
  SpanBuffer* spans = nullptr;  // non-null: traced
  DispatchStats dispatch;
  std::unique_ptr<dispatch::Dispatcher> policy;
  std::unique_ptr<serving::ServingDispatcher> serving;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  [[nodiscard]] size_t window_of(int64_t due_ns) const {
    return static_cast<size_t>((due_ns - start_ns) / kWindowNs);
  }

  std::vector<GeneratorResult> generators{kGenerators};
  stats::Histogram tick_ns = make_ns_histogram();
  stats::Histogram heartbeat_ns = make_ns_histogram();
  uint64_t ticks = 0;  // each tick also sends one heartbeat
  uint64_t watchdog_bad_status = 0;
  int64_t max_in_flight = 0;
  size_t max_suspect = 0;
};

void release_one(Session& s, GeneratorResult& out, const Pending& p,
                 bool natural, uint32_t thread) {
  const bool traced = s.spans != nullptr;
  uint64_t release_span = 0;
  if (traced) {
    SpanContext& span = thread_span();
    span.sampled = p.span != 0;
    if (span.sampled) {
      release_span = s.spans->next_id();
      span.job = p.id;
      span.parent = release_span;
    }
  }
  const int64_t t0 = now_ns();
  if (s.serving->release(p.machine, p.work) != serving::ServingStatus::kOk) {
    ++out.bad_status;
  }
  if (natural) {
    out.windows[s.window_of(p.due_ns)].ratio.push_back(static_cast<float>(
        static_cast<double>(t0 - p.due_ns) / (p.hold_s * 1e9)));
  }
  if (traced) {
    const int64_t t1 = now_ns();
    out.release_ns.add(static_cast<double>(t1 - t0));
    out.router_ns += t1 - t0;
    if (p.span != 0) {
      s.spans->add_with_id(release_span, "serving.release", t0, t1, p.span,
                           p.id, thread);
      s.spans->add_with_id(p.span, "request", p.due_ns, t1, 0, p.id, thread);
    }
  }
}

/// One generator: sets up, waits for the common start, then issues its
/// half of the load and finally drains its mock backends.
void issue(Session& s, int index, GeneratorResult& out, std::latch& ready,
           std::latch& go, bool& counted_down) {
  const auto thread = static_cast<uint32_t>(index + 1);
  const bool traced = s.spans != nullptr;
  SpanContext& span = thread_span();
  span.thread = thread;
  rng::Xoshiro256 gen(rng::derive_seed(s.seed, static_cast<uint64_t>(index),
                                       rng::Stream::kArrival));
  const rng::Exponential gap(kRate / kGenerators);
  // The paper's B(10, 21600, 1) size shape scaled to the mean the load
  // needs: bounded below, so a response ratio stays finite.
  const double scale = s.mean_size / workload::paper_mean_job_size();
  const auto sizes =
      workload::JobSizeModel::bounded_pareto(1.0, 10.0 * scale, 21600.0 * scale);

  // Allocate and fault in the sample buffers now, not during the load.
  const auto window_s = static_cast<double>(kWindowNs) * 1e-9;
  out.windows.resize(static_cast<size_t>(std::ceil(s.seconds / window_s)));
  const auto expected =
      static_cast<size_t>(kRate / kGenerators * window_s * 1.1) + 1024;
  for (Window& w : out.windows) {
    for (auto* v : {&w.route_ns, &w.acquire_ns, &w.ratio}) {
      v->resize(expected);
      v->clear();
    }
  }
  std::vector<Pending> heap_storage(65536);
  heap_storage.clear();
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending(
      std::greater<>{}, std::move(heap_storage));
  ready.count_down();
  counted_down = true;
  go.wait();

  double t = 0.0;
  for (uint64_t seq = 0;; ++seq) {
    t += gap.sample(gen);
    const int64_t due = s.start_ns + static_cast<int64_t>(t * 1e9);
    if (due >= s.end_ns) {
      break;
    }
    for (;;) {
      const int64_t now = now_ns();
      if (!pending.empty() && pending.top().done_ns <= now) {
        release_one(s, out, pending.top(), /*natural=*/true, thread);
        pending.pop();
        continue;
      }
      if (now >= due) {
        break;
      }
    }

    const double size = sizes.sample(gen);
    const uint64_t id = seq * kGenerators + static_cast<uint64_t>(index);
    uint64_t request_span = 0;
    uint64_t acquire_span = 0;
    if (traced) {
      span.sampled = seq % kSampleEvery == 0;
      if (span.sampled) {
        request_span = s.spans->next_id();
        acquire_span = s.spans->next_id();
        span.job = id;
        span.parent = acquire_span;
      }
      span.dispatch_ns = 0;
    }
    const int64_t t_call = now_ns();
    const size_t machine = s.serving->acquire(size);
    const int64_t t_ret = now_ns();

    Window& window = out.windows[s.window_of(due)];
    window.route_ns.push_back(static_cast<float>(t_ret - due));
    window.acquire_ns.push_back(static_cast<float>(t_ret - t_call));
    ++out.issued;
    out.last_return_ns = t_ret;
    if (traced) {
      out.late_ns.add(
          static_cast<double>(std::max<int64_t>(t_call - due, 1)));
      out.self_ns.add(static_cast<double>(t_ret - t_call - span.dispatch_ns));
      out.router_ns += t_ret - t_call;
      if (acquire_span != 0) {
        s.spans->add_with_id(acquire_span, "serving.acquire", t_call, t_ret,
                             request_span, id, thread);
      }
    }
    const double hold = size / s.speeds[machine];
    pending.push(Pending{t_ret + static_cast<int64_t>(hold * 1e9), due, size,
                         hold, id, request_span,
                         static_cast<uint32_t>(machine)});
  }
  // Load is over: every mock backend hands back what it still holds.
  while (!pending.empty()) {
    release_one(s, out, pending.top(), /*natural=*/false, thread);
    pending.pop();
  }
}

/// Thread entry: forwards any exception to the main thread.
void generate(Session& s, int index, GeneratorResult& out, std::latch& ready,
              std::latch& go) {
  bool counted_down = false;
  try {
    issue(s, index, out, ready, go, counted_down);
  } catch (...) {
    out.error = std::current_exception();
    if (!counted_down) {
      ready.count_down();  // never leave the main thread waiting
    }
  }
}

void watchdog(Session& s) {
  const bool traced = s.spans != nullptr;
  int64_t next = s.start_ns;
  for (;;) {
    next += kWatchdogNs;
    if (next > s.end_ns) {
      break;
    }
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(next)));
    const int64_t t0 = now_ns();
    s.serving->tick();
    const int64_t t1 = now_ns();
    const size_t backend = (s.ticks % kHeartbeatStride) * kHeartbeatStride;
    if (s.serving->report_heartbeat(backend) != serving::ServingStatus::kOk) {
      ++s.watchdog_bad_status;
    }
    const int64_t t2 = now_ns();
    if (traced) {
      s.tick_ns.add(static_cast<double>(t1 - t0));
      s.heartbeat_ns.add(static_cast<double>(t2 - t1));
      if (s.ticks % 16 == 0) {
        s.spans->add("serving.tick", t0, t1, 0, 0, 0);
      }
    }
    ++s.ticks;
    s.max_in_flight = std::max(s.max_in_flight, s.serving->in_flight());
    s.max_suspect =
        std::max(s.max_suspect, kMachines - s.serving->healthy_machines());
  }
}

void run_session(Session& s) {
  s.policy = core::make_policy_dispatcher(core::PolicyKind::kLeastLoad,
                                          s.speeds, kRho);
  if (s.spans != nullptr) {
    s.policy = std::make_unique<TimedDispatcher>(std::move(s.policy),
                                                 s.dispatch, s.spans,
                                                 /*own_job_ids=*/false);
  }
  s.serving = std::make_unique<serving::ServingDispatcher>(
      *s.policy, serving_config(s.seed));
  std::latch ready(kGenerators);
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(kGenerators);
  for (int g = 0; g < kGenerators; ++g) {
    threads.emplace_back(
        [&s, &ready, &go, g] { generate(s, g, s.generators[g], ready, go); });
  }
  // The load starts once every generator is set up.
  ready.wait();
  s.start_ns = now_ns() + 1'000'000;
  s.end_ns = s.start_ns + static_cast<int64_t>(s.seconds * 1e9);
  go.count_down();
  std::exception_ptr error;
  try {
    watchdog(s);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& g : s.generators) {
    if (g.error && !error) {
      error = g.error;
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Median over 0.25 s windows of stat(the window's samples). Not the
/// best window, as in the sims: a generator stalled by the host leaves
/// the other one uncontended, so noise can make a window faster; and a
/// stall delays the releases of one window, not of the run.
template <typename Stat>
double windowed(const Session& s, std::vector<float> Window::*samples,
                Stat stat) {
  // A window needs half its expected samples to count (the last one may
  // be cut short).
  const auto min_samples = static_cast<size_t>(kRate * 0.5e-9 * kWindowNs);
  const size_t windows = s.generators.front().windows.size();
  std::vector<double> per_window;
  std::vector<double> scratch;
  for (size_t w = 0; w < windows; ++w) {
    scratch.clear();
    for (const auto& g : s.generators) {
      const auto& v = g.windows[w].*samples;
      scratch.insert(scratch.end(), v.begin(), v.end());
    }
    if (scratch.size() >= min_samples ||
        (windows == 1 && !scratch.empty())) {
      per_window.push_back(stat(scratch));
    }
  }
  return quantile_of(per_window, 0.5);
}

auto quantile(double q) {
  return [q](std::vector<double>& v) { return quantile_of(v, q); };
}

double mean(std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// q-quantile over every sample of every generator.
double pooled(const Session& s, std::vector<float> Window::*samples,
              double q) {
  std::vector<double> all;
  for (const auto& g : s.generators) {
    for (const Window& w : g.windows) {
      all.insert(all.end(), (w.*samples).begin(), (w.*samples).end());
    }
  }
  return quantile_of(all, q);
}

uint64_t issued(const Session& s) {
  uint64_t total = 0;
  for (const auto& g : s.generators) {
    total += g.issued;
  }
  return total;
}

/// When the last acquire returned, or the session end if that is later.
int64_t finish_ns(const Session& s) {
  int64_t last = s.end_ns;
  for (const auto& g : s.generators) {
    last = std::max(last, g.last_return_ns);
  }
  return last;
}

/// Requests routed per second, up to the last acquire's return.
double achieved_rps(const Session& s) {
  return static_cast<double>(issued(s)) /
         (static_cast<double>(finish_ns(s) - s.start_ns) * 1e-9);
}

double mean_acquire_ns(const Session& s) {
  double sum = 0.0;
  for (const auto& g : s.generators) {
    for (const Window& w : g.windows) {
      sum = std::accumulate(w.acquire_ns.begin(), w.acquire_ns.end(), sum);
    }
  }
  return sum / static_cast<double>(std::max<uint64_t>(issued(s), 1));
}

void check_session(Report& report, const Session& s) {
  const uint64_t requests = issued(s);
  uint64_t bad = s.watchdog_bad_status;
  for (const auto& g : s.generators) {
    bad += g.bad_status;
  }
  const uint64_t acquired = s.serving->acquired();
  const uint64_t released = s.serving->released();
  report.check(acquired == released && acquired == requests,
               "acquired " + std::to_string(acquired) + ", released " +
                   std::to_string(released) + ", issued " +
                   std::to_string(requests));
  report.check(bad == 0, std::to_string(bad) + " calls returned non-kOk");
  // The router kept up with the offered load (what the Poisson schedule
  // issued) if the last acquire returned within 1% of the session length
  // after its end; 20 ms at least, for the start-up of short sessions.
  const double session_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  const double late_s = static_cast<double>(finish_ns(s) - s.end_ns) * 1e-9;
  report.check(late_s <= std::max(0.01 * session_s, 0.02),
               "the last acquire returned " + std::to_string(late_s) +
                   " s after the session's end");
  report.attempted += requests;
  report.failed += bad + (acquired > released ? acquired - released : 0);
}

}  // namespace

Report run_serve_workload(const Options& options) {
  HS_CHECK(options.workload == "serve-ll-10k",
           "unknown workload " << options.workload);
  const std::vector<double> speeds = uniform_speeds(kMachines);
  const double total_speed = std::accumulate(speeds.begin(), speeds.end(), 0.0);
  const serving::ServingConfig config = serving_config(options.seed);
  auto make_session = [&](SpanBuffer* spans) {
    auto s = std::make_unique<Session>();
    s->speeds = speeds;
    s->mean_size = kRho * total_speed / kRate;
    s->seed = options.seed;
    // A traced run does half the work twice: untraced, then traced.
    s->seconds = options.trace ? options.seconds / 2 : options.seconds;
    s->spans = spans;
    run_session(*s);
    return s;
  };
  // Set-up blocks before and after the session, never during it: set-up
  // allocates megabytes, which would disturb the latencies measured.
  SetupProbe setup([&] {
    auto policy = core::make_policy_dispatcher(core::PolicyKind::kLeastLoad,
                                               speeds, kRho);
    serving::ServingDispatcher serving(*policy, config);
  });
  Report report;
  for (int b = 0; b < 5 && !options.trace; ++b) {
    setup.run_block();
  }
  auto untraced = make_session(nullptr);
  for (int b = 0; b < 5 && !options.trace; ++b) {
    setup.run_block();
  }
  check_session(report, *untraced);
  if (!options.trace) {
    const Session& u = *untraced;
    report.add("jobs_per_s", achieved_rps(u), "1/s");
    report.add("mean_response_ratio", windowed(u, &Window::ratio, mean),
               "ratio");
    report.add("response_ratio_p99",
               windowed(u, &Window::ratio, quantile(0.99)), "ratio");
    report.add("job_ns_p50", windowed(u, &Window::route_ns, quantile(0.5)),
               "ns");
    report.add("job_ns_p99", windowed(u, &Window::acquire_ns, quantile(0.99)),
               "ns");
    report.add("setup_s", setup.best_seconds(), "s");
    return report;
  }

  // The same session again, traced.
  const double untraced_acquire_ns = mean_acquire_ns(*untraced);
  untraced.reset();
  SpanBuffer spans(size_t{1} << 17);
  auto traced = make_session(&spans);
  check_session(report, *traced);
  const Session& s = *traced;
  const DispatchStats& d = s.dispatch;

  int64_t router_ns = 0;
  stats::Histogram late = make_ns_histogram();
  stats::Histogram self = make_ns_histogram();
  stats::Histogram release = make_ns_histogram();
  for (const auto& g : s.generators) {
    router_ns += g.router_ns;
    late.merge(g.late_ns);
    self.merge(g.self_ns);
    release.merge(g.release_ns);
  }
  report.add("dispatch.picks", static_cast<double>(d.picks), "count");
  report.add("dispatch.pick_ns_mean",
             static_cast<double>(d.pick_total_ns) /
                 static_cast<double>(std::max<uint64_t>(d.picks, 1)),
             "ns");
  report.add("dispatch.pick_ns_p99", d.pick_ns.quantile(0.99), "ns");
  report.add("dispatch.reports", static_cast<double>(d.reports), "count");
  report.add("dispatch.report_ns_mean",
             static_cast<double>(d.report_total_ns) /
                 static_cast<double>(std::max<uint64_t>(d.reports, 1)),
             "ns");
  report.add("dispatch.busy_share",
             static_cast<double>(d.total_ns()) / static_cast<double>(router_ns),
             "share");

  auto policy = core::make_policy_dispatcher(core::PolicyKind::kLeastLoad,
                                             speeds, kRho);
  report.add("core.build_us", 1e6 * time_setup([&] {
               (void)core::make_policy_dispatcher(core::PolicyKind::kLeastLoad,
                                                  speeds, kRho);
             }),
             "us");
  report.add("serving.construct_us", 1e6 * time_setup([&] {
               serving::ServingDispatcher serving(*policy, config);
             }),
             "us");

  report.add("serving.acquire_ns_p50",
             pooled(s, &Window::acquire_ns, 0.5), "ns");
  report.add("serving.acquire_ns_p999",
             pooled(s, &Window::acquire_ns, 0.999), "ns");
  report.add("serving.self_ns_p50", self.quantile(0.5), "ns");
  report.add("serving.release_ns_p50", release.quantile(0.5), "ns");
  report.add("serving.release_ns_p99", release.quantile(0.99), "ns");
  report.add("serving.tick_us_p99", s.tick_ns.quantile(0.99) * 1e-3, "us");
  report.add("serving.heartbeat_ns_p50", s.heartbeat_ns.quantile(0.5), "ns");
  // The stall counter is only published as a gauge.
  obs::MetricsRegistry registry;
  s.serving->register_gauges(registry);
  registry.sample(0.0);
  const double stalls =
      registry.value(0, registry.column("serving.lock_stalls"));
  const double locks = static_cast<double>(
      s.serving->acquired() + s.serving->released() + 2 * s.ticks);
  report.add("serving.lock_stall_share", stalls / locks, "share");
  report.add("serving.max_in_flight", static_cast<double>(s.max_in_flight),
             "count");
  report.add("serving.suspicions", static_cast<double>(s.max_suspect),
             "count");
  // Acquires whose release deadline could not be armed: the deadline
  // ring holds max_tracked arms for release_deadline seconds.
  report.add("serving.arm_drop_share",
             static_cast<double>(s.serving->health()->arm_drops()) /
                 static_cast<double>(s.serving->acquired()),
             "share");

  report.add("gen.late_p50_us", late.quantile(0.5) * 1e-3, "us");
  report.add("gen.late_p99_us", late.quantile(0.99) * 1e-3, "us");
  report.add("gen.route_p99_us",
             pooled(s, &Window::route_ns, 0.99) * 1e-3, "us");
  report.add("gen.achieved_rps", achieved_rps(s), "1/s");
  report.add("trace.overhead_share",
             mean_acquire_ns(s) / untraced_acquire_ns - 1.0, "share");
  if (!options.trace_out.empty()) {
    spans.write_chrome_json(options.trace_out, s.start_ns);
  }
  return report;
}

}  // namespace hs::e2e
