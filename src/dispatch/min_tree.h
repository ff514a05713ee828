// Indexed tournament (min) tree — the O(log n) argmin engine behind
// Dynamic Least-Load at large n.
//
// A complete binary tree over n double keys, padded with +inf to the
// next power of two. Each internal node stores the index of the winning
// (smaller-key) leaf of its subtree, with ties won by the left child —
// so argmin() returns the *lowest-index* minimum, exactly reproducing a
// first-occurrence strict-< linear scan. That equivalence is what lets
// LeastLoadDispatcher swap its per-pick O(n) scans for O(log n) leaf
// updates while staying bit-identical to the golden-pinned reference
// (see the differential test in tests/test_least_load.cpp).
//
// Keys use +inf as the "not a candidate" sentinel (masked machines,
// hedge exclusion); real keys are finite, so a sentinel can only win
// when every leaf is sentinel — callers rule that out up front.
//
// Smooth round-robin (smooth_rr.h) runs two of these trees and adds the
// queries its tie rule needs: the runner-up key, a lowest-index argmin
// over an index range, and an in-order walk over the leaves at or below
// a bound. It sizes its trees once with reserve() and loads them with
// fill_infinite()/build(), which write every winner in one pass.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace hs::dispatch {

class MinLoadTree {
 public:
  static constexpr double kInfinity =
      std::numeric_limits<double>::infinity();

  /// Resize to n leaves, all keys +inf. Reuses buffer capacity.
  void assign(size_t n) {
    HS_CHECK(n >= 1, "min tree needs at least one leaf");
    HS_CHECK(n <= std::numeric_limits<uint32_t>::max() / 2,
             "min tree supports at most 2^31 leaves, got " << n);
    n_ = n;
    cap_ = std::bit_ceil(n < 2 ? size_t{2} : n);
    keys_.assign(cap_, kInfinity);
    winners_.assign(cap_, 0);
    rebuild();
  }

  /// Set one key and repair the winner path to the root: O(log n).
  void set_key(size_t i, double key) {
    keys_[i] = key;
    for (size_t node = (cap_ + i) >> 1; node >= 1; node >>= 1) {
      recompute(node);
    }
  }

  /// Set one key without repairing winners; callers batch these and
  /// finish with rebuild() (O(n) total — for mask flips and resets).
  void set_key_silent(size_t i, double key) { keys_[i] = key; }

  /// Recompute every internal winner bottom-up: O(n).
  void rebuild() {
    for (size_t node = cap_ - 1; node >= 1; --node) {
      recompute(node);
    }
  }

  [[nodiscard]] double key(size_t i) const { return keys_[i]; }

  /// Index of the smallest key, lowest index on ties.
  [[nodiscard]] size_t argmin() const { return winner_of(1); }

  [[nodiscard]] size_t size() const { return n_; }

  /// Reserve storage for up to n leaves, so that later fill_infinite(),
  /// build() and assign() calls with at most n leaves never allocate.
  void reserve(size_t n) {
    const size_t cap = std::bit_ceil(n < 2 ? size_t{2} : n);
    keys_.reserve(cap);
    winners_.reserve(cap);
  }

  /// Resize to n leaves, all keys +inf. Each winner is its subtree's
  /// leftmost leaf, which is what rebuild() would compute, but written
  /// without a single compare.
  void fill_infinite(size_t n) {
    set_leaf_count(n);
    keys_.assign(cap_, kInfinity);
    winners_.resize(cap_);
    // Nodes [level, 2·level) sit `shift` levels above the leaves; the
    // leftmost leaf under node is (node << shift) − cap_.
    uint32_t* winners = winners_.data();
    size_t shift = static_cast<size_t>(std::countr_zero(cap_));
    for (size_t level = 1; level < cap_; level <<= 1, --shift) {
      for (size_t node = level; node < 2 * level; ++node) {
        winners[node] = static_cast<uint32_t>((node << shift) - cap_);
      }
    }
  }

  /// Resize to n leaves with keys key_of(0) … key_of(n−1) (padding +inf)
  /// and compute every winner bottom-up in one pass: O(n).
  template <typename KeyOf>
  void build(size_t n, KeyOf key_of) {
    set_leaf_count(n);
    keys_.resize(cap_);
    winners_.resize(cap_);
    double* keys = keys_.data();
    for (size_t i = 0; i < n; ++i) {
      keys[i] = key_of(i);
    }
    for (size_t i = n; i < cap_; ++i) {
      keys[i] = kInfinity;
    }
    // The lowest internal level compares leaves directly; the levels
    // above read their children's winners. Both select without a
    // branch (the left winner keeps ties, as in recompute()): which
    // child wins is a coin flip, and mispredicts would dominate.
    for (size_t node = cap_ - 1; node >= cap_ / 2; --node) {
      const size_t left = 2 * node - cap_;
      winners_[node] =
          static_cast<uint32_t>(left + (keys_[left + 1] < keys_[left]));
    }
    for (size_t node = cap_ / 2 - 1; node >= 1; --node) {
      const uint32_t left = winners_[2 * node];
      const uint32_t right = winners_[2 * node + 1];
      const uint32_t right_wins = keys_[right] < keys_[left];
      winners_[node] = left ^ ((left ^ right) & (0u - right_wins));
    }
  }

  /// Smallest key among all leaves but argmin(), so a duplicate of the
  /// minimum counts: O(log n). +inf when there is no other finite key.
  [[nodiscard]] double runner_up_key() const {
    const size_t leaf = argmin();
    double best = keys_[leaf ^ 1];  // the sibling leaf
    for (size_t node = (cap_ + leaf) >> 1; node > 1; node >>= 1) {
      const double k = keys_[winners_[node ^ 1]];
      best = k < best ? k : best;
    }
    return best;
  }

  /// Lowest-index minimum over the leaves [lo, hi), lo < hi: O(log n).
  /// Its key is +inf when every leaf in the range is a sentinel.
  [[nodiscard]] size_t argmin_in(size_t lo, size_t hi) const {
    size_t best = hi - 1;
    double best_key = keys_[best];
    auto offer = [&](size_t node) {
      const size_t w = winner_of(node);
      const double k = keys_[w];
      if (k < best_key || (k == best_key && w < best)) {
        best = w;
        best_key = k;
      }
    };
    for (size_t l = lo + cap_, r = hi + cap_; l < r; l >>= 1, r >>= 1) {
      if ((l & 1) != 0) {
        offer(l++);
      }
      if ((r & 1) != 0) {
        offer(--r);
      }
    }
    return best;
  }

  /// Call visit(i) for every leaf i with key <= bound, in increasing
  /// index order. A subtree whose winner is above the bound is skipped
  /// whole, so the walk costs O((1 + visits) · log n).
  template <typename Visit>
  void for_each_at_most(double bound, Visit visit) const {
    // Depth-first, left child first; the stack never holds more than
    // one pending right sibling per level.
    std::array<size_t, 2 * std::numeric_limits<uint32_t>::digits> stack;
    size_t top = 0;
    stack[top++] = 1;
    while (top > 0) {
      const size_t node = stack[--top];
      if (keys_[winner_of(node)] > bound) {
        continue;
      }
      if (node >= cap_) {
        visit(node - cap_);
        continue;
      }
      stack[top++] = 2 * node + 1;
      stack[top++] = 2 * node;
    }
  }

 private:
  // Internal node `node` (1-based) has children 2·node and 2·node+1;
  // nodes >= cap_ are leaves (leaf index node − cap_).
  [[nodiscard]] size_t winner_of(size_t node) const {
    return node >= cap_ ? node - cap_ : winners_[node];
  }

  /// Set n and the padded capacity for the size-once loaders above.
  void set_leaf_count(size_t n) {
    HS_CHECK(n >= 1, "min tree needs at least one leaf");
    HS_CHECK(n <= std::numeric_limits<uint32_t>::max() / 2,
             "min tree supports at most 2^31 leaves, got " << n);
    n_ = n;
    cap_ = std::bit_ceil(n < 2 ? size_t{2} : n);
  }

  void recompute(size_t node) {
    const size_t left = winner_of(2 * node);
    const size_t right = winner_of(2 * node + 1);
    // <= : the left (lower-index) winner keeps ties.
    winners_[node] =
        static_cast<uint32_t>(keys_[left] <= keys_[right] ? left : right);
  }

  size_t n_ = 0;
  size_t cap_ = 0;                 // power of two >= max(n, 2)
  std::vector<double> keys_;       // size cap_; [n_, cap_) stay +inf
  std::vector<uint32_t> winners_;  // internal winners, indices 1..cap_-1
};

}  // namespace hs::dispatch
