// Round-robin based job dispatching — the paper's Algorithm 2.
//
// Equalizes the number of system-level inter-arrival gaps between
// successive jobs sent to the same machine, smoothing each machine's
// arrival substream without measuring time. Each machine i carries
//   assign — jobs sent to it so far,
//   next   — expected number of future arrivals before its next job.
// A new job goes to the machine with minimal `next` (ties: smallest
// (assign+1)/αᵢ); the winner's `next` grows by 1/αᵢ and every machine
// that has started receiving jobs counts down by 1. The `next` guard
// value 1 staggers first assignments of small-fraction machines evenly
// through the cycle.
//
// With equal fractions this reduces to the classic round-robin; hence
// "Weighted Round-Robin" (WRR) with the simple weighted allocation and
// "Optimized Round-Robin" (ORR) with the optimized allocation.
//
// State is kept for the k machines with αᵢ > 0 only: excluded machines
// never receive jobs, never start, and so never change state (their
// `next` stays at the guard value 1), so leaving them out is exact.
//
// Two engines make identical routing decisions (docs/ALGORITHMS.md §2).
// The default answers a pick in O(log k):
//   * step 2.h's countdown is the same for every started machine, so
//     it is never performed: each started machine holds its `next` as
//     of its last selection, and its current `next` is that value
//     counted down by the picks since, which count_down() computes in
//     O(1) with every rounding the step-by-step countdown makes. The
//     engine therefore holds the scan's values bit for bit;
//   * the started machines sit in a tournament tree (min_tree.h) keyed
//     by next + t against a pick counter t, so a pick changes one key.
//     A key is a proxy within a proven bound of the exact value (it is
//     recomputed from the exact state whenever it is written, so errors
//     never accumulate), and t returns to 0 every
//     R = max(2¹², k rounded up to a power of two) picks, which keeps the
//     bound far below the tie tolerance at k ≤ 4096 (under 5·10⁻¹²); at
//     k = 10⁶ it nears 10⁻⁹, which only widens the fast path's margin;
//   * never-started machines all sit at the guard value 1, in a second
//     tree keyed by 1/αᵢ, whose lowest-index ties give exactly the
//     (assign+1)/αᵢ-then-index order of the tie rule;
//   * when the two smallest values may be within the tie window, the
//     candidates near the minimum are collected by a tree walk and the
//     scan's tie rule is replayed over their exact values in machine
//     order.
// The O(k) scan (SmoothRrEngine::kScan) is kept as the reference for
// the differential tests (tests/test_smooth_rr.cpp) and micro_dispatch.
// Construction and rebuild are O(k) for both: no sort, and every buffer
// is sized once for machine_count().
//
// Threading: caller-serialized (dispatch/dispatcher.h) — every pick()
// advances the assign/next cadence state.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocation.h"
#include "dispatch/dispatcher.h"
#include "dispatch/min_tree.h"

namespace hs::dispatch {

/// `x` after `steps` applications of x ← x − 1 in double arithmetic,
/// each rounded as the step-by-step loop rounds it, in O(1) below 2⁵⁰:
/// a step is exact unless its result leaves x's binade upwards, which
/// happens only below 0.5 and where a negative x crosses a power of
/// two.
[[nodiscard]] double count_down(double x, uint64_t steps);

/// Which selection engine backs SmoothRoundRobinDispatcher. Both make
/// identical decisions; kScan exists as the reference for differential
/// testing and benchmarks.
enum class SmoothRrEngine {
  kTree,  // O(log k) keyed tournament trees (default)
  kScan,  // O(k) scan of every active machine per pick (reference)
};

class SmoothRoundRobinDispatcher final : public Dispatcher {
 public:
  explicit SmoothRoundRobinDispatcher(
      alloc::Allocation allocation,
      SmoothRrEngine engine = SmoothRrEngine::kTree);

  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  [[nodiscard]] size_t machine_count() const override {
    return allocation_.size();
  }
  bool rebuild_fractions(std::span<const double> fractions) override;

  /// Replace the allocation with an already-validated one — the
  /// fractions are copied bit-for-bit, with no renormalization — and
  /// reset the cadence state. Allocation-free: every buffer was sized
  /// for machine_count() at construction.
  void rebuild(const alloc::Allocation& allocation);

  /// State inspection (for tests and the Figure 2 reproduction).
  /// Indexed by machine, like the allocation; excluded machines report
  /// assign 0 and the guard value 1.
  [[nodiscard]] uint64_t assigned(size_t machine) const;
  [[nodiscard]] double next_value(size_t machine) const;

  /// Checkpoint: fractions plus the full cadence state (assign/next/
  /// started per machine), so a restored dispatcher continues the
  /// Algorithm 2 schedule mid-cycle. 4n values, machine-indexed
  /// (excluded machines carry their invariant state). A restore accepts
  /// only states the schedule can reach: an active machine is started
  /// exactly when its assign count is positive, and a machine that has
  /// not started sits at the guard value 1.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  [[nodiscard]] SmoothRrEngine engine() const { return engine_; }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// kTree: the cadence of a started slot, written when it starts (so
  /// construction never touches it). Its `next` in pick p is
  ///   y0 + (rounds_from − 1 − p)               for p <  rounds_from,
  ///   count_down(y0, p − rounds_from + 1)      for p >= rounds_from:
  /// the countdown from its last selection is exact down to y0, and
  /// rounds from pick rounds_from on (see start_cadence()).
  struct Cadence {
    Cadence() {}  // left uninitialized until the slot starts
    double y0;
    uint64_t rounds_from;
    double inv;        // 1/αᵢ, moved here from the unstarted tree
    uint64_t assign;   // jobs sent so far (>= 1)
    uint32_t machine;  // machine index
  };

  /// The ε-tolerant tie rule of steps 2.b–2.c, fed in slot order.
  struct TieScan;

  /// Re-derive the slots from allocation_ and reset the cadence state.
  void rebuild_dense();

  /// Slot d's `next` and assign count.
  [[nodiscard]] double next_of(size_t d) const;
  [[nodiscard]] uint64_t assign_of(size_t d) const;

  /// kTree: a started slot's `next` in pick `pick` (>= its last
  /// selection), with every rounding of the scan's step-by-step
  /// countdown.
  [[nodiscard]] static double next_at(const Cadence& c, uint64_t pick);
  /// kTree: record that slot d's `next` is `next` in pick picks_
  /// (before that pick's countdown).
  void start_cadence(size_t d, double next);
  /// kTree: a started slot's tree key, next + (picks_ − epoch_), from c.
  [[nodiscard]] double key_of(const Cadence& c) const;

  [[nodiscard]] size_t pick_scan();
  [[nodiscard]] size_t pick_tree();
  /// kTree: steps 2.d–2.h for the selected slot d, started or not.
  size_t select_slot(size_t d);
  /// kTree: steps 2.e–2.h for started slot d, whose `next` is `next`.
  size_t advance(size_t d, double next);

  /// Steps 2.b–2.c with the ε-tolerant tie rule, over every slot. The
  /// scan engine falls back to it when the two smallest `next` values
  /// are within the tie tolerance. Returns a slot index.
  [[nodiscard]] size_t pick_tied() const;
  /// The same rule for the tree engine, replayed over the candidates
  /// near the smallest proxy value `low` (the guard 1 included), with t
  /// the pick counter the keys are read against.
  [[nodiscard]] size_t pick_tied_tree(double low, double t) const;

  /// Restart the pick counter and rewrite every started key.
  void renormalize();

  alloc::Allocation allocation_;
  SmoothRrEngine engine_;
  /// Slot (active machine, in ascending machine order, so every
  /// first-seen tie rule resolves as a scan over all machines would)
  /// -> machine index.
  std::vector<uint32_t> machine_of_;

  // kScan: per slot αᵢ, 1/αᵢ (computed once, exact reuse), jobs sent,
  // `next`, and 1.0 once the slot has started receiving jobs, else 0.0
  // — the step 2.h countdown is then a pure vectorizable double
  // subtraction (subtracting 0.0 from an unstarted slot is exact).
  std::vector<double> fraction_of_;
  std::vector<double> inv_fraction_;
  std::vector<uint64_t> assign_;
  std::vector<double> next_;
  std::vector<double> started_;

  // kTree: started slots keyed by next + t (+inf while unstarted), where
  // t = picks_ − epoch_, and unstarted slots keyed by 1/αᵢ (+inf once
  // started, which is how a slot is known to have started).
  std::vector<Cadence> cadence_;
  MinLoadTree started_tree_;
  MinLoadTree unstarted_tree_;
  size_t unstarted_count_ = 0;
  uint64_t picks_ = 0;          // picks since the last reset
  uint64_t epoch_ = 0;          // picks_ at the last renormalization
  uint64_t renorm_period_ = 0;  // R
};

}  // namespace hs::dispatch
