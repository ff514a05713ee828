#include "dispatch/smooth_rr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace hs::dispatch {

namespace {

/// Tolerance for `next` equality in the tie-break of step 2.c.3. The
/// paper compares exactly; `next` values are sums of 1/αᵢ increments and
/// integer decrements, so genuinely tied machines can differ by rounding
/// noise in floating point.
constexpr double kTieEps = 1e-9;

constexpr uint64_t kMinRenormPeriod = uint64_t{1} << 12;

/// Bound on how far a tree key read as a value (key − t) can sit from
/// the scan's exact value v: one rounding when the key is written (at
/// magnitude |v| + t), one when it is read, and the countdown's own
/// roundings (at most one per binade |v| passes through) — each under
/// 2⁻⁵³ of its magnitude. Four times their sum.
double proxy_error(double v, double t) {
  return 0x1p-50 * (std::fabs(v) + t + 2.0);
}

/// True when proxies lo <= hi prove the exact values more than 2·kTieEps
/// apart. hi's own error is at most lo's plus 2⁻⁵⁰·(hi − lo).
bool clear_of_ties(double lo, double hi, double t) {
  return (hi - lo) * (1.0 - 0x1p-50) > 2.0 * kTieEps + 2.0 * proxy_error(lo, t);
}

/// count_down() one step at a time wherever the closed forms below do
/// not apply (magnitudes of 2⁵⁰ and more, far outside any schedule).
double count_down_stepwise(double x, uint64_t steps) {
  for (; steps > 0; --steps) {
    const double after = x - 1.0;
    if (after == x) {
      return x;  // |x| >= 2⁵³: a fixed point of the countdown
    }
    x = after;
  }
  return x;
}

/// 2^e as a double, for e in the normal range.
double power_of_two(int e) {
  return std::bit_cast<double>(static_cast<uint64_t>(e + 1023) << 52);
}

}  // namespace

double count_down(double x, uint64_t steps) {
  constexpr double kLimit = 0x1p50;
  if (x >= 0.5 && x < kLimit) {
    // From x >= 0.5, x − 1 >= −0.5 is a multiple of x's ULP no larger
    // in magnitude than x, so the step is exact; the first
    // floor(x − 0.5) + 1 steps all start at or above 0.5.
    const auto exact = static_cast<int64_t>(x - 0.5) + 1;
    const auto total = static_cast<int64_t>(steps);
    const int64_t first = total < exact ? total : exact;
    const int64_t rest = total - first;
    // A machine is usually selected within a few steps of crossing 0:
    // take those one at a time, without a branch on how many.
    if (rest <= 4) {
      const double y0 = x - static_cast<double>(first);
      const double y1 = y0 - 1.0;
      const double y2 = y1 - 1.0;
      const double y3 = y2 - 1.0;
      const double table[] = {y0, y1, y2, y3, y3 - 1.0};
      return table[rest];
    }
    x -= static_cast<double>(exact);
    steps = static_cast<uint64_t>(rest);
  } else if (x >= kLimit) {
    return count_down_stepwise(x, steps);
  } else if (steps <= 4) {
    const double y1 = x - 1.0;
    const double y2 = y1 - 1.0;
    const double y3 = y2 - 1.0;
    const double table[] = {x, y1, y2, y3, y3 - 1.0};
    return table[steps];
  }
  if (x > -0.5) {
    // x in (−0.5, 0.5): this step rounds to the ULP of the result.
    x -= 1.0;
    if (--steps == 0) {
      return x;
    }
  }
  // x <= −0.5 from here. Write |x| = V·2^(e−52) with V the 53-bit
  // significand. Each step adds 1 to |x|, exactly within a binade;
  // where |x| passes a power of two the result has one bit less, so
  // that step drops V's lowest remaining bit, rounding half to even.
  // Below 2⁵⁰ every dropped bit and every parity bit is a fraction
  // bit, which the whole steps never change, so after j crossings |x|
  // is R^j(V)·2^(e+j−52) plus the steps taken, where R is one
  // round-half-even halving.
  const double start = -x;
  const auto total = static_cast<double>(steps);
  if (start + total >= kLimit) {
    return count_down_stepwise(x, steps);
  }
  const auto bits = std::bit_cast<uint64_t>(start);
  const int e = static_cast<int>(bits >> 52) - 1023;
  const uint64_t significand = (bits & ((uint64_t{1} << 52) - 1)) |
                               (uint64_t{1} << 52);
  // R^j(V) = (V >> j) + up, where up = 1 exactly when, at the highest
  // i < j with bits i and i+1 of V equal, that bit is 1 (each halving
  // rounds up when its two low bits are 11, keeps a pending carry while
  // they differ, and drops it at 00). So |x| after j crossings, less
  // the steps, is:
  const auto offset = [&](int j) {
    const uint64_t equal =
        ~(significand ^ (significand >> 1)) & ((uint64_t{1} << j) - 1);
    const uint64_t up =
        equal == 0 ? 0 : (significand >> (std::bit_width(equal) - 1)) & 1;
    return static_cast<double>((significand >> j) + up) *
           power_of_two(e + j - 52);
  };
  // The path enters binade e + j once offset(j − 1) + steps reaches
  // 2^(e+j); both sides are exact doubles. Guess the crossings from the
  // rounded end point, then settle the guess against that rule.
  const auto end_bits = std::bit_cast<uint64_t>(start + total);
  int j = static_cast<int>(end_bits >> 52) - 1023 - e;
  while (j > 0 && total < power_of_two(e + j) - offset(j - 1)) {
    --j;
  }
  while (total >= power_of_two(e + j + 1) - offset(j)) {
    ++j;
  }
  return -(offset(j) + total);
}

/// The running state of steps 2.b–2.c: candidates are offered in
/// ascending slot order, the order in which the scan visits them, each
/// with its `next`, assign count and fraction.
///
/// Tie-break refinement: a machine that has never received a job (still
/// at the guard value) wins a `next` tie against machines that have.
/// In steady state started machines are selected at next == 0, strictly
/// below the guard, so this only matters at the boundary where a
/// small-fraction machine's staggered first slot opens; without the
/// preference, a large-fraction machine re-selected at next == 1 would
/// steal that slot and the cycle would not spread first jobs out evenly
/// as §3.2 describes (the paper's worked example — fractions
/// {1/8, 1/8, 1/4, 1/2} → c4 c3 c4 c2 c4 c3 c4 c1 — requires it).
/// The normalized assignment count (assign+1)/αᵢ is only consulted on
/// ties, so its division is computed lazily.
struct SmoothRoundRobinDispatcher::TieScan {
  void offer(size_t d, double next, uint64_t assign, double fraction) {
    if (select == kNone || next < min_next - kTieEps) {
      min_next = next;
      take(d, assign, fraction);
      nor_known = false;
    } else if (std::fabs(next - min_next) <= kTieEps) {
      if (!nor_known) {
        nor_assign = static_cast<double>(select_assign + 1) / select_fraction;
        nor_known = true;
      }
      const double candidate_nor = static_cast<double>(assign + 1) / fraction;
      const bool candidate_unstarted = assign == 0;
      const bool select_unstarted = select_assign == 0;
      const bool better =
          (candidate_unstarted && !select_unstarted) ||
          (candidate_unstarted == select_unstarted &&
           nor_assign > candidate_nor);
      if (better) {
        nor_assign = candidate_nor;
        take(d, assign, fraction);
      }
    }
  }

  void take(size_t d, uint64_t assign, double fraction) {
    select = d;
    select_assign = assign;
    select_fraction = fraction;
  }

  size_t select = kNone;
  double min_next = 0.0;
  uint64_t select_assign = 0;
  double select_fraction = 0.0;
  double nor_assign = 0.0;  // valid only while nor_known
  bool nor_known = false;
};

SmoothRoundRobinDispatcher::SmoothRoundRobinDispatcher(
    alloc::Allocation allocation, SmoothRrEngine engine)
    : allocation_(std::move(allocation)), engine_(engine) {
  // One allocation per buffer, sized for every machine, so a rebuild to
  // any active set reuses them.
  const size_t n = allocation_.size();
  HS_CHECK(n <= std::numeric_limits<uint32_t>::max(),
           "too many machines: " << n);
  machine_of_.reserve(n);
  if (engine_ == SmoothRrEngine::kScan) {
    fraction_of_.reserve(n);
    inv_fraction_.reserve(n);
    assign_.reserve(n);
    next_.reserve(n);
    started_.reserve(n);
  } else {
    cadence_.resize(n);  // uninitialized records: no writes
    started_tree_.reserve(n);
    unstarted_tree_.reserve(n);
  }
  rebuild_dense();
}

void SmoothRoundRobinDispatcher::rebuild_dense() {
  // Branch-free compaction of the active machines (the buffer holds n).
  const size_t n = allocation_.size();
  machine_of_.resize(n);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    machine_of_[k] = static_cast<uint32_t>(i);
    k += allocation_[i] != 0.0 ? 1 : 0;
  }
  machine_of_.resize(k);
  HS_CHECK(!machine_of_.empty(),
           "dispatcher needs at least one machine with positive fraction");
  if (engine_ == SmoothRrEngine::kScan) {
    fraction_of_.clear();
    inv_fraction_.clear();
    for (const uint32_t m : machine_of_) {
      fraction_of_.push_back(allocation_[m]);
      // 1/αᵢ is the same value every time it is computed from the same
      // αᵢ, so hoisting the division out of pick() changes nothing.
      inv_fraction_.push_back(1.0 / allocation_[m]);
    }
  }
  reset();
}

bool SmoothRoundRobinDispatcher::rebuild_fractions(
    std::span<const double> fractions) {
  HS_CHECK(fractions.size() == allocation_.size(),
           "rebuild_fractions size " << fractions.size()
                                     << " != machine count "
                                     << allocation_.size());
  allocation_.assign(fractions);
  rebuild_dense();
  return true;
}

void SmoothRoundRobinDispatcher::rebuild(const alloc::Allocation& allocation) {
  HS_CHECK(allocation.size() == allocation_.size(),
           "rebuild size " << allocation.size() << " != machine count "
                           << allocation_.size());
  allocation_ = allocation;
  rebuild_dense();
}

void SmoothRoundRobinDispatcher::reset() {
  // Step 1: assign = 0; next = 1 (the guard value that delays machines
  // with small fractions until a full cycle position opens for them).
  const size_t k = machine_of_.size();
  if (engine_ == SmoothRrEngine::kScan) {
    assign_.assign(k, 0);
    next_.assign(k, 1.0);
    started_.assign(k, 0.0);
    return;
  }
  started_tree_.fill_infinite(k);
  unstarted_tree_.build(k, [this](size_t d) {
    const double inv = 1.0 / allocation_[machine_of_[d]];
    // +inf marks a started slot, so 1/αᵢ itself must be finite.
    HS_CHECK(inv < MinLoadTree::kInfinity,
             "fraction too small: " << allocation_[machine_of_[d]]);
    return inv;
  });
  unstarted_count_ = k;
  picks_ = 0;
  epoch_ = 0;
  renorm_period_ = std::max(kMinRenormPeriod, uint64_t{std::bit_ceil(k)});
}

size_t SmoothRoundRobinDispatcher::pick(rng::Xoshiro256& /*gen*/) {
  return engine_ == SmoothRrEngine::kTree ? pick_tree() : pick_scan();
}

double SmoothRoundRobinDispatcher::next_at(const Cadence& c, uint64_t pick) {
  if (pick < c.rounds_from) {
    return c.y0 + static_cast<double>(c.rounds_from - 1 - pick);
  }
  return count_down(c.y0, pick - c.rounds_from + 1);
}

void SmoothRoundRobinDispatcher::start_cadence(size_t d, double next) {
  Cadence& c = cadence_[d];
  // Steps from values >= 0.5 are exact (see count_down()), so from
  // 0.5 <= next < 2⁵⁰ the first floor(next − 0.5) + 1 are; y0 is where
  // they end. Working this out now keeps it off the path of the pick
  // that next selects the slot.
  uint64_t exact = 0;
  if (next >= 0.5 && next < 0x1p50) {
    exact = static_cast<uint64_t>(static_cast<int64_t>(next - 0.5)) + 1;
  }
  c.y0 = next - static_cast<double>(exact);
  c.rounds_from = picks_ + exact + 1;
}

double SmoothRoundRobinDispatcher::key_of(const Cadence& c) const {
  // As a real number, y0 + (rounds_from − 1 − epoch_) is the `next`
  // start_cadence() was given plus (its pick − epoch_): the next + t
  // that advance() keys the slot with, so the same double.
  return c.y0 + (static_cast<double>(c.rounds_from) - 1.0 -
                 static_cast<double>(epoch_));
}

size_t SmoothRoundRobinDispatcher::pick_tree() {
  // A started slot's proxy value is its key − t. The smallest one, `low`
  // (+inf while nothing has started), competes with the guard value 1
  // of the unstarted slots. As in pick_scan(), a runner-up more than
  // 2·kTieEps above the minimum means the tie rule selects the minimum;
  // when the proxies cannot prove that, the rule is replayed exactly.
  const auto t = static_cast<double>(picks_ - epoch_);
  const size_t lowest = started_tree_.argmin();
  const double low = started_tree_.key(lowest) - t;
  if (unstarted_count_ == 0 || low < 1.0) {
    // Usually selected: start loading its record while the runner-up is
    // read (a cache miss each at large k).
    __builtin_prefetch(&cadence_[lowest]);
    double second = started_tree_.runner_up_key() - t;
    if (unstarted_count_ > 0 && 1.0 < second) {
      second = 1.0;
    }
    if (clear_of_ties(low, second, t)) {
      return advance(lowest, next_at(cadence_[lowest], picks_));
    }
    return select_slot(pick_tied_tree(low, t));
  }
  if (clear_of_ties(1.0, low, t)) {
    // Every started value is clear of the guard, so the candidates are
    // the unstarted slots alone, one run at 1 (see pick_tied_tree()):
    // the rule takes their (1/α, index)-least.
    return select_slot(unstarted_tree_.argmin());
  }
  return select_slot(pick_tied_tree(1.0, t));
}

size_t SmoothRoundRobinDispatcher::select_slot(size_t d) {
  const double inv = unstarted_tree_.key(d);
  if (inv == MinLoadTree::kInfinity) {
    return advance(d, next_at(cadence_[d], picks_));
  }
  // Step 2.d: a first selection starts the cadence from 0 rather than
  // from the guard value.
  Cadence& c = cadence_[d];
  c.inv = inv;
  c.assign = 0;
  c.machine = machine_of_[d];
  unstarted_tree_.set_key(d, MinLoadTree::kInfinity);
  --unstarted_count_;
  return advance(d, 0.0);
}

size_t SmoothRoundRobinDispatcher::advance(size_t d, double next) {
  Cadence& c = cadence_[d];
  // Steps 2.e–2.f: next grows by 1/α; its key is next + t, with this
  // pick's countdown still to come.
  next += c.inv;
  started_tree_.set_key(d, next + static_cast<double>(picks_ - epoch_));
  start_cadence(d, next);
  c.assign += 1;
  // Step 2.h: one system arrival has been consumed; every started
  // slot's next falls by 1 as the pick counter rises.
  ++picks_;
  if (picks_ - epoch_ >= renorm_period_) {
    renormalize();
  }
  return c.machine;
}

void SmoothRoundRobinDispatcher::renormalize() {
  // Rewrite every started key from the exact state against the new
  // epoch; +inf stays on unstarted slots. O(k) once every R >= k picks.
  epoch_ = picks_;
  for (size_t d = 0; d < machine_of_.size(); ++d) {
    if (unstarted_tree_.key(d) == MinLoadTree::kInfinity) {
      started_tree_.set_key_silent(d, key_of(cadence_[d]));
    }
  }
  started_tree_.rebuild();
}

size_t SmoothRoundRobinDispatcher::pick_tied_tree(double low, double t) const {
  // The tie rule only acts on values near the minimum. Take as
  // candidates every value <= bound, widening the bound until no value
  // lies in (bound − 1.5ε, bound]. Then, in machine order, the first
  // candidate resets the rule's running minimum whatever was seen before
  // it (that was > bound), and no value above the bound can reset or tie
  // with any candidate after it — so the rule replayed over the
  // candidates alone selects what the scan over every slot selects. The
  // half-ε margins absorb rounding in the rule's own comparisons.
  // Candidates are found by their proxies, with room for the proxy
  // error, and then judged by their exact values.
  const bool guard = unstarted_count_ > 0;
  double bound = low + 2.0 * kTieEps + proxy_error(low, t);
  const auto key_bound = [&] {
    return bound + 4.0 * proxy_error(bound, t) + kTieEps + t;
  };
  for (;;) {
    double top = guard && 1.0 <= bound
                     ? 1.0
                     : -std::numeric_limits<double>::infinity();
    started_tree_.for_each_at_most(key_bound(), [&](size_t d) {
      const double next = next_at(cadence_[d], picks_);
      if (next <= bound && next > top) {
        top = next;
      }
    });
    if (top <= bound - 1.5 * kTieEps) {
      break;
    }
    bound = top + 2.0 * kTieEps;
  }

  TieScan scan;
  const bool guard_in = guard && 1.0 <= bound;
  size_t from = 0;
  // A run of unstarted slots, all at the guard value, moves the rule
  // exactly as its (1/α, index)-least member alone would: whether the
  // run resets, ties or is ignored depends only on the shared value 1,
  // and among unstarted slots (assign+1)/α is 1/α, so the rule ends on
  // that member either way.
  const auto offer_guard_run = [&](size_t to) {
    if (guard_in && from < to) {
      const size_t best = unstarted_tree_.argmin_in(from, to);
      if (unstarted_tree_.key(best) != MinLoadTree::kInfinity) {
        scan.offer(best, 1.0, 0, allocation_[machine_of_[best]]);
      }
    }
  };
  started_tree_.for_each_at_most(key_bound(), [&](size_t d) {
    const Cadence& c = cadence_[d];
    const double next = next_at(c, picks_);
    if (next > bound) {
      return;
    }
    offer_guard_run(d);
    scan.offer(d, next, c.assign, allocation_[c.machine]);
    from = d + 1;
  });
  offer_guard_run(machine_of_.size());
  HS_CHECK(scan.select != kNone, "no selectable machine");
  return scan.select;
}

size_t SmoothRoundRobinDispatcher::pick_scan() {
  const size_t n = next_.size();
  const double* nx = next_.data();
  // Fast path: find the first strict minimum and the runner-up with
  // plain compares. When the runner-up is more than 2·kTieEps above the
  // minimum, the ε-hysteresis scan of pick_tied() provably selects
  // exactly that first minimum: whatever its running `min_next` holds on
  // arrival (always some already-seen value, hence > m + 2ε), the
  // minimum m satisfies m < min_next − ε and takes over; every later
  // value v has v − m > 2ε, so it neither beats nor ties it. Ties among
  // non-minimal prefix values never update `min_next`, so they cannot
  // change the outcome. This skips all tie-break work on the
  // (overwhelmingly common) tie-free pick.
  //
  // The scans run two interleaved accumulators updated by conditional
  // moves: which machine is minimal is uniformly random as far as the
  // branch predictor is concerned, and per-element mispredicts cost more
  // than the whole scan; the split halves the cmp/cmov dependency chain.
  // Splitting is exact — a min over doubles does not depend on
  // evaluation order — and the strict `<` keeps the first occurrence as
  // arg-min within each half. Across halves an exact duplicate of the
  // minimum could make the combine pick the later occurrence, but a
  // duplicated minimum always routes to pick_tied() below (min2 == min1),
  // which re-derives the selection from scratch.
  // Each accumulator tracks (smallest, its index, second smallest) over
  // its half in one pass; a new minimum demotes the old one to the
  // runner-up slot. "Second smallest" counts multiplicity, which is the
  // semantics the tie test below needs: a duplicated minimum — anywhere —
  // surfaces as min2 == min1.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_a = kInf, min_b = kInf;
  double sec_a = kInf, sec_b = kInf;
  size_t arg_a = 0, arg_b = 0;
  size_t i = 0;
  for (; i + 1 < n; i += 2) {
    const double va = nx[i];
    const double vb = nx[i + 1];
    const bool la = va < min_a;
    const bool lb = vb < min_b;
    const double da = va < sec_a ? va : sec_a;  // runner-up if not a new min
    const double db = vb < sec_b ? vb : sec_b;
    sec_a = la ? min_a : da;
    sec_b = lb ? min_b : db;
    min_a = la ? va : min_a;
    arg_a = la ? i : arg_a;
    min_b = lb ? vb : min_b;
    arg_b = lb ? i + 1 : arg_b;
  }
  if (i < n) {
    const double va = nx[i];
    const bool la = va < min_a;
    const double da = va < sec_a ? va : sec_a;
    sec_a = la ? min_a : da;
    min_a = la ? va : min_a;
    arg_a = la ? i : arg_a;
  }
  // Combine: the overall minimum is min(min_a, min_b); the overall
  // runner-up is the smallest of the loser's minimum and both halves'
  // runner-ups. Strict `<` keeps the first occurrence as arg-min within
  // a half; across halves an exact duplicate makes min2 == min1 and
  // routes to pick_tied(), so the combine order cannot matter.
  const bool b_wins = min_b < min_a;
  const double min1 = b_wins ? min_b : min_a;
  const size_t arg_min = b_wins ? arg_b : arg_a;
  const double loser = b_wins ? min_a : min_b;
  const double sec = sec_b < sec_a ? sec_b : sec_a;
  const double min2 = loser < sec ? loser : sec;

  const size_t select =
      min2 - min1 > 2.0 * kTieEps ? arg_min : pick_tied();

  // Step 2.d: a machine selected for the first time starts its regular
  // cadence from 0 rather than from the guard value.
  if (assign_[select] == 0) {
    next_[select] = 0.0;
    started_[select] = 1.0;
  }
  // Steps 2.e–2.f: it expects its next job after 1/α_select arrivals.
  next_[select] += inv_fraction_[select];
  assign_[select] += 1;
  // Step 2.h: one system arrival has been consumed — count down every
  // machine that has started receiving jobs (`started_` is 0.0 for the
  // rest, and subtracting 0.0 is exact).
  double* nxm = next_.data();
  const double* st = started_.data();
  for (size_t k = 0; k < n; ++k) {
    nxm[k] -= st[k];
  }
  return machine_of_[select];
}

size_t SmoothRoundRobinDispatcher::pick_tied() const {
  // Steps 2.b–2.c: select the machine with minimal `next`; on ties the
  // one with the smallest normalized assignment count (assign+1)/αᵢ.
  // The slots are in ascending machine order, excluded machines
  // skipped, so every first-seen rule resolves as a sparse scan would.
  TieScan scan;
  for (size_t d = 0; d < next_.size(); ++d) {
    scan.offer(d, next_[d], assign_[d], fraction_of_[d]);
  }
  HS_CHECK(scan.select != kNone, "no selectable machine");
  return scan.select;
}

double SmoothRoundRobinDispatcher::next_of(size_t d) const {
  if (engine_ == SmoothRrEngine::kScan) {
    return next_[d];
  }
  return unstarted_tree_.key(d) != MinLoadTree::kInfinity
             ? 1.0
             : next_at(cadence_[d], picks_);
}

uint64_t SmoothRoundRobinDispatcher::assign_of(size_t d) const {
  if (engine_ == SmoothRrEngine::kScan) {
    return assign_[d];
  }
  return unstarted_tree_.key(d) != MinLoadTree::kInfinity ? 0
                                                          : cadence_[d].assign;
}

uint64_t SmoothRoundRobinDispatcher::assigned(size_t machine) const {
  HS_CHECK(machine < allocation_.size(),
           "machine index out of range: " << machine);
  for (size_t d = 0; d < machine_of_.size(); ++d) {
    if (machine_of_[d] == machine) {
      return assign_of(d);
    }
  }
  return 0;  // excluded machines never receive jobs
}

double SmoothRoundRobinDispatcher::next_value(size_t machine) const {
  HS_CHECK(machine < allocation_.size(),
           "machine index out of range: " << machine);
  for (size_t d = 0; d < machine_of_.size(); ++d) {
    if (machine_of_[d] == machine) {
      return next_of(d);
    }
  }
  return 1.0;  // excluded machines stay at the guard value forever
}

size_t SmoothRoundRobinDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = allocation_.size();
  const auto& f = allocation_.fractions();
  out.insert(out.end(), f.begin(), f.end());
  const size_t base = out.size();
  out.resize(base + 3 * n);
  double* assign = out.data() + base;
  double* next = assign + n;
  double* started = next + n;
  // Machine-indexed layout: excluded machines hold their invariant
  // state (assign 0, the guard value 1, not started).
  for (size_t i = 0; i < n; ++i) {
    assign[i] = 0.0;
    next[i] = 1.0;
    started[i] = 0.0;
  }
  for (size_t d = 0; d < machine_of_.size(); ++d) {
    const size_t m = machine_of_[d];
    const uint64_t a = assign_of(d);
    assign[m] = static_cast<double>(a);
    next[m] = next_of(d);
    started[m] = a > 0 ? 1.0 : 0.0;
  }
  return 4 * n;
}

size_t SmoothRoundRobinDispatcher::restore_state(
    std::span<const double> state) {
  const size_t n = allocation_.size();
  if (state.size() < 4 * n) {
    return 0;
  }
  // Validate before mutating anything: a failed restore must leave the
  // dispatcher unchanged. Counts must be exact non-negative integers
  // below 2^53 (they round-trip through doubles losslessly there);
  // `next` must be finite; `started` must be a 0/1 flag. A machine with
  // a positive fraction must be in a reachable state: started exactly
  // when it has received a job, and at the guard value 1 until then.
  const double* assign = state.data() + n;
  const double* next = assign + n;
  const double* started = next + n;
  for (size_t i = 0; i < n; ++i) {
    const double a = assign[i];
    if (!(a >= 0.0 && a <= 0x1p53) || a != std::floor(a) ||
        !std::isfinite(next[i]) ||
        !(started[i] == 0.0 || started[i] == 1.0)) {
      return 0;
    }
    if (state[i] > 0.0 &&
        ((started[i] == 1.0) != (a > 0.0) || (a == 0.0 && next[i] != 1.0))) {
      return 0;
    }
  }
  allocation_.assign_exact(state.first(n));
  rebuild_dense();
  for (size_t d = 0; d < machine_of_.size(); ++d) {
    const size_t m = machine_of_[d];
    const auto a = static_cast<uint64_t>(assign[m]);
    if (engine_ == SmoothRrEngine::kScan) {
      assign_[d] = a;
      next_[d] = next[m];
      started_[d] = started[m];
    } else if (a > 0) {
      Cadence& c = cadence_[d];
      c.inv = unstarted_tree_.key(d);
      c.assign = a;
      c.machine = machine_of_[d];
      start_cadence(d, next[m]);
      // t is 0 after the reset, so the key is next itself.
      started_tree_.set_key_silent(d, key_of(c));
      unstarted_tree_.set_key_silent(d, MinLoadTree::kInfinity);
      --unstarted_count_;
    }
  }
  if (engine_ == SmoothRrEngine::kTree) {
    started_tree_.rebuild();
    unstarted_tree_.rebuild();
  }
  return 4 * n;
}

}  // namespace hs::dispatch
