// Serving runtime tests: clock sources, thread-safe dispatch with
// conservation accounting, binary trace persistence, and the
// record→replay bridge (including the bit-identical golden pin).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "dispatch/least_load.h"
#include "obs/metrics.h"
#include "serving/clock.h"
#include "serving/replay.h"
#include "serving/serving_dispatcher.h"
#include "serving/snapshot.h"
#include "serving/trace_io.h"
#include "util/atomic_file.h"
#include "util/check.h"

namespace {

using hs::core::PolicyKind;
using hs::serving::ManualClock;
using hs::serving::RecordedTrace;
using hs::serving::ServingConfig;
using hs::serving::ServingDispatcher;
using hs::serving::ServingStatus;
using hs::serving::WallClock;

const std::vector<double> kSpeeds{1.0, 2.0, 4.0, 8.0};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "hs_serving_" + name;
}

/// Exact-double equality that distinguishes every bit pattern (EXPECT_EQ
/// on doubles is fine for the values used here, but the round-trip test
/// is *about* low-order bits, so compare the representations).
void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b));
}

// ---- Clocks -------------------------------------------------------------

TEST(ClockTest, ManualClockAdvancesAndSets) {
  ManualClock clock(5.0);
  EXPECT_EQ(clock.now(), 5.0);
  clock.advance(2.5);
  EXPECT_EQ(clock.now(), 7.5);
  clock.set(1.0);
  EXPECT_EQ(clock.now(), 1.0);
}

TEST(ClockTest, WallClockIsMonotonicFromZero) {
  WallClock clock;
  const double a = clock.now();
  const double b = clock.now();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// ---- Serving dispatcher: single-threaded semantics ----------------------

TEST(ServingDispatcherTest, AcquireMatchesBareDispatcherBitForBit) {
  // The wrapper adds locking and recording but must not perturb the
  // policy: an ORAN dispatcher (which draws from the RNG every pick)
  // wrapped in ServingDispatcher yields the same machine sequence as
  // the bare dispatcher driven by hand with the same seed and times.
  auto wrapped_inner =
      hs::core::make_policy_dispatcher(PolicyKind::kORAN, kSpeeds, 0.7);
  auto bare = hs::core::make_policy_dispatcher(PolicyKind::kORAN, kSpeeds, 0.7);

  ManualClock clock;
  ServingConfig config;
  config.seed = 7;
  config.clock = &clock;
  ServingDispatcher serving(*wrapped_inner, config);

  hs::rng::Xoshiro256 bare_gen(7);
  for (int i = 0; i < 500; ++i) {
    clock.advance(0.001);
    const double size = 0.5 + 0.01 * (i % 9);
    bare->on_arrival(clock.now());
    const size_t expected = bare->pick_sized(bare_gen, size);
    EXPECT_EQ(serving.acquire(size), expected);
  }
  EXPECT_EQ(serving.acquired(), 500u);
}

TEST(ServingDispatcherTest, ReleaseFeedsLeastLoadEstimates) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ManualClock clock;
  ServingConfig config;
  config.clock = &clock;
  ServingDispatcher serving(inner, config);

  std::vector<size_t> placed;
  for (int i = 0; i < 8; ++i) {
    clock.advance(0.1);
    placed.push_back(serving.acquire(1.0));
  }
  uint64_t estimated = 0;
  for (size_t m = 0; m < kSpeeds.size(); ++m) {
    estimated += inner.estimated_queue(m);
  }
  EXPECT_EQ(estimated, 8u);
  EXPECT_EQ(serving.in_flight(), 8);

  for (const size_t machine : placed) {
    clock.advance(0.1);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  for (size_t m = 0; m < kSpeeds.size(); ++m) {
    EXPECT_EQ(inner.estimated_queue(m), 0u);
  }
  EXPECT_EQ(serving.in_flight(), 0);
  EXPECT_EQ(serving.acquired(), serving.released());
}

TEST(ServingDispatcherTest, RejectsInvalidArguments) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingDispatcher serving(inner);
  EXPECT_THROW((void)serving.acquire(0.0), hs::util::CheckError);
  EXPECT_THROW((void)serving.acquire(-1.0), hs::util::CheckError);
  // The feedback path is hardened, not fatal: a bad index or a release
  // with no matching acquire is reported and ignored.
  EXPECT_EQ(serving.release(kSpeeds.size(), 1.0),
            ServingStatus::kInvalidMachine);
  EXPECT_EQ(serving.report_result(kSpeeds.size(), true),
            ServingStatus::kInvalidMachine);
  EXPECT_EQ(serving.report_heartbeat(kSpeeds.size()),
            ServingStatus::kInvalidMachine);
  EXPECT_EQ(serving.release(0, 1.0), ServingStatus::kNotInFlight);
  EXPECT_EQ(serving.released(), 0u);
}

TEST(ServingDispatcherTest, DoubleReleaseIsRejectedWithoutCorruption) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingDispatcher serving(inner);
  const size_t machine = serving.acquire(1.0);
  EXPECT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  // The second release of the same request must not drain the policy's
  // queue estimate below reality or move the conservation counters.
  EXPECT_EQ(serving.release(machine, 1.0), ServingStatus::kNotInFlight);
  EXPECT_EQ(serving.released(), 1u);
  EXPECT_EQ(serving.in_flight(), 0);
  for (size_t m = 0; m < kSpeeds.size(); ++m) {
    EXPECT_EQ(inner.estimated_queue(m), 0u);
  }
}

TEST(ServingDispatcherTest, WithExclusiveRunsUnderLockAndReturns) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingDispatcher serving(inner);
  const std::string name = serving.with_exclusive(
      [](hs::dispatch::Dispatcher& d) { return d.name(); });
  EXPECT_EQ(name, "least-load");

  // Masking through the exclusive section steers subsequent picks.
  serving.with_exclusive([](hs::dispatch::Dispatcher& d) {
    return d.set_available_mask({false, false, true, false});
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(serving.acquire(1.0), 2u);
  }
}

TEST(ServingDispatcherTest, RecordingStopsAtCapacityKeepingPrefix) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ManualClock clock;
  ServingConfig config;
  config.clock = &clock;
  config.record_capacity = 4;
  ServingDispatcher serving(inner, config);

  for (int i = 0; i < 6; ++i) {
    clock.advance(1.0);
    const size_t machine = serving.acquire(2.0);
    ASSERT_EQ(serving.release(machine, 2.0), ServingStatus::kOk);
  }
  EXPECT_EQ(serving.record_count(), 4u);
  EXPECT_EQ(serving.record_dropped(), 2u);
  EXPECT_EQ(serving.acquired(), 6u);

  const RecordedTrace recorded = serving.snapshot();
  ASSERT_EQ(recorded.trace.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    expect_bits_equal(recorded.trace.jobs()[i].arrival_time,
                      static_cast<double>(i + 1));
    expect_bits_equal(recorded.trace.jobs()[i].size, 2.0);
  }
}

TEST(ServingDispatcherTest, SnapshotCarriesProvenance) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingConfig config;
  config.seed = 12345;
  config.record_capacity = 2;
  ServingDispatcher serving(inner, config);
  (void)serving.acquire(1.0);

  const RecordedTrace recorded = serving.snapshot();
  EXPECT_EQ(recorded.seed, 12345u);
  EXPECT_GT(recorded.recorded_unix_nanos, 0u);
  EXPECT_EQ(recorded.recorded_unix_nanos, serving.recorded_unix_nanos());
  EXPECT_EQ(recorded.trace.size(), 1u);
}

TEST(ServingDispatcherTest, RegisterGaugesExposesConservationCounters) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingConfig config;
  config.record_capacity = 8;
  ServingDispatcher serving(inner, config);
  const size_t a = serving.acquire(1.0);
  (void)serving.acquire(1.0);
  ASSERT_EQ(serving.release(a, 1.0), ServingStatus::kOk);

  hs::obs::MetricsRegistry registry;
  serving.register_gauges(registry);
  registry.sample(0.0);
  EXPECT_EQ(registry.value(0, registry.column("serving.acquired")), 2.0);
  EXPECT_EQ(registry.value(0, registry.column("serving.released")), 1.0);
  EXPECT_EQ(registry.value(0, registry.column("serving.in_flight")), 1.0);
  EXPECT_EQ(registry.value(0, registry.column("serving.recorded")), 2.0);
  EXPECT_EQ(registry.value(0, registry.column("serving.record_dropped")),
            0.0);
}

// ---- Concurrency (runs under TSan in the sanitize-thread CI job) --------

TEST(ServingConcurrencyTest, ConservationUnderConcurrentLoad) {
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 20000;

  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingConfig config;
  config.record_capacity = 1024;  // overflows on purpose: the drop
                                  // counter is part of conservation
  ServingDispatcher serving(inner, config);

  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&serving] {
      std::vector<size_t> held;
      held.reserve(8);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        held.push_back(serving.acquire(1.0));
        // Hold a few requests in flight, then drain — exercises
        // interleaved acquire/release rather than lockstep pairs.
        if (held.size() == 8) {
          for (const size_t machine : held) {
            (void)serving.release(machine, 1.0);
          }
          held.clear();
        }
      }
      for (const size_t machine : held) {
        (void)serving.release(machine, 1.0);
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }

  const uint64_t total = kThreads * kOpsPerThread;
  EXPECT_EQ(serving.acquired(), total);
  EXPECT_EQ(serving.released(), total);
  EXPECT_EQ(serving.in_flight(), 0);
  EXPECT_EQ(serving.record_count() + serving.record_dropped(), total);
  // Every acquire was released, so Least-Load's queue estimates drained
  // back to exactly zero — the policy-level conservation identity.
  for (size_t m = 0; m < kSpeeds.size(); ++m) {
    EXPECT_EQ(inner.estimated_queue(m), 0u);
  }
}

TEST(ServingConcurrencyTest, MaskChurnDuringLoadStaysConserved) {
  constexpr size_t kThreads = 3;
  constexpr size_t kOpsPerThread = 5000;

  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingDispatcher serving(inner);
  std::atomic<bool> stop{false};

  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&serving] {
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const size_t machine = serving.acquire(1.0);
        EXPECT_LT(machine, kSpeeds.size());
        (void)serving.release(machine, 1.0);
      }
    });
  }
  std::thread admin([&serving, &stop] {
    // Administrative churn through the exclusive section while the
    // workers hammer the hot path: flip which machines are available.
    bool odd = false;
    while (!stop.load(std::memory_order_relaxed)) {
      odd = !odd;
      serving.with_exclusive([odd](hs::dispatch::Dispatcher& d) {
        return d.set_available_mask(odd
                                        ? std::vector<bool>{true, false, true,
                                                            false}
                                        : std::vector<bool>{true, true, true,
                                                            true});
      });
      std::this_thread::yield();
    }
  });
  for (auto& t : pool) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  admin.join();

  const uint64_t total = kThreads * kOpsPerThread;
  EXPECT_EQ(serving.acquired(), total);
  EXPECT_EQ(serving.released(), total);
  EXPECT_EQ(serving.in_flight(), 0);
}

// ---- Binary trace persistence -------------------------------------------

RecordedTrace gnarly_trace() {
  // Values chosen to die in text round-trips: low-order mantissa bits
  // from repeated decimal-unrepresentable increments.
  RecordedTrace recorded;
  recorded.seed = 0xDEADBEEFCAFEF00Dull;
  recorded.recorded_unix_nanos = 1770000000123456789ull;
  std::vector<hs::queueing::Job> jobs;
  double t = 0.1;
  for (uint64_t i = 0; i < 100; ++i) {
    t += 0.1 + 1e-13 * static_cast<double>(i);
    jobs.push_back(hs::queueing::Job{i, t, 1.0 / 3.0 + 1e-16 * double(i)});
  }
  recorded.trace = hs::workload::JobTrace(std::move(jobs));
  return recorded;
}

TEST(TraceIoTest, BinaryRoundTripIsBitIdentical) {
  const std::string path = temp_path("roundtrip.trace");
  const RecordedTrace original = gnarly_trace();
  hs::serving::save_trace_binary(path, original);
  const RecordedTrace loaded = hs::serving::load_trace_binary(path);

  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_EQ(loaded.recorded_unix_nanos, original.recorded_unix_nanos);
  ASSERT_EQ(loaded.trace.size(), original.trace.size());
  for (size_t i = 0; i < original.trace.size(); ++i) {
    expect_bits_equal(loaded.trace.jobs()[i].arrival_time,
                      original.trace.jobs()[i].arrival_time);
    expect_bits_equal(loaded.trace.jobs()[i].size,
                      original.trace.jobs()[i].size);
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  const std::string path = temp_path("empty.trace");
  RecordedTrace original;
  original.seed = 3;
  original.recorded_unix_nanos = 9;
  hs::serving::save_trace_binary(path, original);
  const RecordedTrace loaded = hs::serving::load_trace_binary(path);
  EXPECT_EQ(loaded.seed, 3u);
  EXPECT_EQ(loaded.recorded_unix_nanos, 9u);
  EXPECT_TRUE(loaded.trace.empty());
}

TEST(TraceIoTest, LoadRejectsMissingFile) {
  EXPECT_THROW((void)hs::serving::load_trace_binary(
                   temp_path("does_not_exist.trace")),
               hs::util::CheckError);
}

TEST(TraceIoTest, LoadRejectsBadMagic) {
  const std::string path = temp_path("bad_magic.trace");
  std::ofstream out(path, std::ios::binary);
  out << "NOTATRACEFILE-------------------------------------";
  out.close();
  EXPECT_THROW((void)hs::serving::load_trace_binary(path),
               hs::util::CheckError);
}

TEST(TraceIoTest, LoadRejectsTruncatedPayload) {
  const std::string path = temp_path("truncated.trace");
  hs::serving::save_trace_binary(path, gnarly_trace());
  // Chop the last record in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<long>(bytes.size() - 8));
  out.close();
  EXPECT_THROW((void)hs::serving::load_trace_binary(path),
               hs::util::CheckError);
}

// ---- Record → replay bridge ---------------------------------------------

/// A deterministic serving session: ManualClock arrivals every 50 ms,
/// sizes cycling through 7 values, recorded to capacity.
RecordedTrace recorded_session(PolicyKind kind, uint64_t seed, size_t jobs) {
  auto inner = hs::core::make_policy_dispatcher(kind, kSpeeds, 0.7);
  ManualClock clock;
  ServingConfig config;
  config.seed = seed;
  config.clock = &clock;
  config.record_capacity = jobs;
  ServingDispatcher serving(*inner, config);
  for (size_t i = 0; i < jobs; ++i) {
    clock.advance(0.05);
    const double size = 0.1 + 0.01 * static_cast<double>(i % 7);
    const size_t machine = serving.acquire(size);
    EXPECT_EQ(serving.release(machine, size), ServingStatus::kOk);
  }
  return serving.snapshot();
}

TEST(ReplayTest, ReplayConfigSpansRecordedHorizon) {
  const RecordedTrace recorded = recorded_session(PolicyKind::kORR, 11, 40);
  const auto config = hs::serving::replay_config(recorded, kSpeeds);
  EXPECT_EQ(config.sim_time, recorded.trace.horizon());
  EXPECT_EQ(config.warmup_frac, 0.0);
  EXPECT_EQ(config.seed, 11u);
  EXPECT_EQ(config.speeds, kSpeeds);
}

TEST(ReplayTest, ReplayIsBitIdenticalRunToRun) {
  const RecordedTrace recorded = recorded_session(PolicyKind::kORAN, 21, 300);
  auto dispatcher =
      hs::core::make_policy_dispatcher(PolicyKind::kORAN, kSpeeds, 0.7);
  const auto first = hs::serving::replay(recorded, kSpeeds, *dispatcher);
  const auto second = hs::serving::replay(recorded, kSpeeds, *dispatcher);

  EXPECT_EQ(first.total_arrivals, second.total_arrivals);
  EXPECT_EQ(first.completed_jobs, second.completed_jobs);
  EXPECT_EQ(first.events_fired, second.events_fired);
  expect_bits_equal(first.mean_response_time, second.mean_response_time);
  expect_bits_equal(first.mean_response_ratio, second.mean_response_ratio);
  expect_bits_equal(first.fairness, second.fairness);
}

TEST(ReplayTest, ReplayMatchesDirectTraceSimulation) {
  // serving::replay is sugar over cluster::run_trace_replay with the
  // replay_config — the two paths must agree bit for bit.
  const RecordedTrace recorded = recorded_session(PolicyKind::kORR, 31, 200);
  auto d1 = hs::core::make_policy_dispatcher(PolicyKind::kORR, kSpeeds, 0.7);
  auto d2 = hs::core::make_policy_dispatcher(PolicyKind::kORR, kSpeeds, 0.7);

  const auto via_serving = hs::serving::replay(recorded, kSpeeds, *d1);
  const auto via_cluster = hs::cluster::run_trace_replay(
      hs::serving::replay_config(recorded, kSpeeds), recorded.trace, *d2);

  EXPECT_EQ(via_serving.total_arrivals, via_cluster.total_arrivals);
  EXPECT_EQ(via_serving.completed_jobs, via_cluster.completed_jobs);
  EXPECT_EQ(via_serving.events_fired, via_cluster.events_fired);
  expect_bits_equal(via_serving.mean_response_time,
                    via_cluster.mean_response_time);
  expect_bits_equal(via_serving.mean_response_ratio,
                    via_cluster.mean_response_ratio);
}

TEST(ReplayTest, SavedTraceReplaysIdenticallyToInMemoryTrace) {
  // The full pipeline: record → save → load → replay must equal
  // record → replay. Persistence adds nothing and loses nothing.
  const RecordedTrace recorded = recorded_session(PolicyKind::kORAN, 41, 250);
  const std::string path = temp_path("pipeline.trace");
  hs::serving::save_trace_binary(path, recorded);
  const RecordedTrace loaded = hs::serving::load_trace_binary(path);

  auto d1 = hs::core::make_policy_dispatcher(PolicyKind::kORAN, kSpeeds, 0.7);
  auto d2 = hs::core::make_policy_dispatcher(PolicyKind::kORAN, kSpeeds, 0.7);
  const auto from_memory = hs::serving::replay(recorded, kSpeeds, *d1);
  const auto from_disk = hs::serving::replay(loaded, kSpeeds, *d2);

  EXPECT_EQ(from_memory.completed_jobs, from_disk.completed_jobs);
  EXPECT_EQ(from_memory.events_fired, from_disk.events_fired);
  expect_bits_equal(from_memory.mean_response_time,
                    from_disk.mean_response_time);
  expect_bits_equal(from_memory.mean_response_ratio,
                    from_disk.mean_response_ratio);
}

// Golden pin: the replay of a fixed recorded session, so any change to
// the record format, the replay wiring, or the simulator's trace path
// shows up as an exact-value diff. Values produced by this test's own
// first run; see tests/test_determinism_golden.cpp for the idiom.
TEST(ReplayTest, GoldenRecordedSessionReplay) {
  const RecordedTrace recorded = recorded_session(PolicyKind::kORR, 77, 400);
  auto dispatcher =
      hs::core::make_policy_dispatcher(PolicyKind::kORR, kSpeeds, 0.7);
  const auto result = hs::serving::replay(recorded, kSpeeds, *dispatcher);

  EXPECT_EQ(result.total_arrivals, 400u);
  EXPECT_EQ(result.completed_jobs, 400u);
  EXPECT_EQ(result.mean_response_time, 0.029715624999999905);
  EXPECT_EQ(result.mean_response_ratio, 0.22874999999999934);
}

// ---- Format pins --------------------------------------------------------
//
// Fixed small inputs must encode to these exact bytes, and decoding then
// re-encoding them must give the same bytes back: any change to the
// HSTRACE1 or HSSNAP1 layout (field order, width, endianness) fails here.

/// Lowercase hex of a file's bytes.
std::string file_hex(const std::string& path) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const uint8_t b : hs::util::read_file(path)) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  return hex;
}

TEST(FormatPinTest, TraceBytesArePinned) {
  RecordedTrace recorded;
  recorded.seed = 0x0123456789ABCDEFull;
  recorded.recorded_unix_nanos = 1770000000123456789ull;
  recorded.trace = hs::workload::JobTrace(
      {hs::queueing::Job{0, 0.5, 1.25}, hs::queueing::Job{1, 2.0, 0.1}});
  const std::string pinned =
      "4853545241434531" "01000000" "00000000"  // magic, version, reserved
      "efcdab8967452301"                          // seed
      "15cdcc4b9f4d9018"                          // recorded_unix_nanos
      "0200000000000000"                          // job count
      "000000000000e03f" "000000000000f43f"       // job 0: arrival, size
      "0000000000000040" "9a9999999999b93f";      // job 1
  const std::string path = temp_path("pin.trace");
  hs::serving::save_trace_binary(path, recorded);
  EXPECT_EQ(file_hex(path), pinned);
  hs::serving::save_trace_binary(path, hs::serving::load_trace_binary(path));
  EXPECT_EQ(file_hex(path), pinned);
}

TEST(FormatPinTest, SnapshotBytesArePinned) {
  hs::serving::ServingSnapshot snapshot;
  snapshot.seed = 42;
  snapshot.captured_unix_nanos = 1770000000987654321ull;
  snapshot.session_time = 12.5;
  snapshot.acquired = 9;
  snapshot.released = 7;
  snapshot.timeouts = 1;
  snapshot.sheds = 3;
  snapshot.rng_state = {1, 2, 0xFFFFFFFFFFFFFFFFull, 4};
  snapshot.policy = "fault-aware(random)";
  snapshot.policy_state = {0.25, -1.5, 1e300};
  snapshot.outstanding = {2, 0};
  snapshot.health = {{1, 4, 10.0, 11.5, 0.5, 23}, {0, 0, 0.0, 12.0, 0.25, 48}};
  const std::string pinned =
      "4853534e41503100" "01000000" "02000000"  // magic, version, machines
      "2a00000000000000" "b1684f7f9f4d9018"       // seed, captured nanos
      "0900000000000000" "0700000000000000"       // acquired, released
      "0100000000000000" "0000000000002940"       // timeouts, session time
      "0100000000000000" "0200000000000000"       // rng state
      "ffffffffffffffff" "0400000000000000"
      "0300000000000000"                          // sheds
      "13000000" "6661756c742d61776172652872616e646f6d29"  // policy name
      "0300000000000000" "000000000000d03f"       // policy state
      "000000000000f8bf" "9c7500883ce4377e"
      "02000000" "00000000"                       // outstanding
      "01000000"                                  // health section present
      "01000000" "04000000" "0000000000002440"    // machine 0 health
      "0000000000002740" "000000000000e03f" "1700000000000000"
      "00000000" "00000000" "0000000000000000"    // machine 1 health
      "0000000000002840" "000000000000d03f" "3000000000000000";
  const std::string path = temp_path("pin.snap");
  hs::serving::save_snapshot_binary(path, snapshot);
  EXPECT_EQ(file_hex(path), pinned);
  hs::serving::save_snapshot_binary(path,
                                    hs::serving::load_snapshot_binary(path));
  EXPECT_EQ(file_hex(path), pinned);
}

}  // namespace
