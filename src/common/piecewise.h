// Piecewise-constant functions of time.
//
// Link transmission-rate timelines x_e(t) are piecewise constant in every
// algorithm of the paper (rates only change at flow starts/stops or
// interval boundaries). StepFunction accumulates rate contributions and
// integrates f(x(t)) dt for arbitrary power functions, which is exactly
// the dynamic-energy term of Eq. 5/6.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "common/contracts.h"
#include "common/interval.h"

namespace dcn {

namespace piecewise_detail {
/// Values this close to zero are treated as zero when deciding whether
/// a segment is "active": the difference representation accumulates
/// float error when many flows start/stop at the same instant. Shared
/// by StepFunction and LoadProfile — the two must agree bit for bit.
constexpr double kZeroEps = 1e-12;

// The ascending folds StepFunction runs over its breakpoint map, over
// any ascending range of (time, delta) pairs whose deltas were summed
// per time in insertion order. StepFunction calls them on its map;
// TouchedEdgeLoad (schedule/schedule.h) calls them on one edge's merged
// breakpoints in a flat vector — so the two fold bit for bit alike.

/// Maximum value attained (0 for the zero function).
template <class Breakpoints>
double fold_max(const Breakpoints& breakpoints) {
  double v = 0.0, best = 0.0;
  for (const auto& [time, delta] : breakpoints) {
    v += delta;
    best = std::max(best, v);
  }
  return best;
}

/// True when the function is identically zero.
template <class Breakpoints>
bool fold_is_zero(const Breakpoints& breakpoints) {
  double v = 0.0;
  double prev = 0.0;
  bool have_prev = false;
  for (const auto& [time, delta] : breakpoints) {
    if (have_prev && std::fabs(v) >= kZeroEps && time > prev) return false;
    v += delta;
    prev = time;
    have_prev = true;
  }
  return true;
}

/// Integral of transform(value) over `window` where the value is
/// strictly positive.
template <class Breakpoints, class Transform>
double fold_integrate(const Breakpoints& breakpoints, const Interval& window,
                      const Transform& transform) {
  double v = 0.0, total = 0.0;
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& [time, delta] : breakpoints) {
    const Interval seg{prev, time};
    const Interval clip = seg.intersect(window);
    if (!clip.empty() && v > kZeroEps) total += transform(v) * clip.measure();
    v += delta;
    prev = time;
  }
  // Tail beyond the last breakpoint has value zero by construction.
  return total;
}
}  // namespace piecewise_detail

/// A right-continuous piecewise-constant function on the real line,
/// zero outside its breakpoints. Built by accumulating constant values
/// over intervals.
class StepFunction {
 public:
  StepFunction() = default;

  /// Adds `delta` to the function over [iv.lo, iv.hi).
  void add(const Interval& iv, double delta);

  /// Function value at time t.
  [[nodiscard]] double value_at(double t) const;

  /// Maximum value attained anywhere (0 for the zero function).
  [[nodiscard]] double max_value() const;

  /// Maximum value attained inside `window` (0 when the function is
  /// zero throughout it). Equivalent to scanning segments() for
  /// overlapping entries, but allocation-free and early-exiting at the
  /// first breakpoint at or past window.hi — the capacity-check hot
  /// path of the online schedulers calls this once per path edge per
  /// admission probe.
  [[nodiscard]] double max_within(const Interval& window) const;

  /// Integral of the function over the whole line.
  [[nodiscard]] double integral() const;

  /// Integral of transform(value) over `window`, counting only segments
  /// where the value is strictly positive (transform is not evaluated on
  /// zero-valued stretches — matching the power model f(0) = 0).
  [[nodiscard]] double integrate_transformed(
      const Interval& window, const std::function<double(double)>& transform) const;

  /// Total time (measure) within `window` where the value is > eps.
  [[nodiscard]] double positive_measure(const Interval& window,
                                        double eps = 0.0) const;

  /// Earliest time t >= from with integral_{from}^{t} value dt >= volume,
  /// or +infinity when the function never accumulates that much. Used by
  /// the packet simulator to serve a packet over a time-varying link
  /// rate. Requires volume >= 0.
  [[nodiscard]] double time_to_accumulate(double from, double volume) const;

  /// Integral of the function over [from, to].
  [[nodiscard]] double integral_between(double from, double to) const;

  /// The function as a list of (interval, value) segments with non-zero
  /// value, sorted by time, maximal (adjacent equal-valued segments merged).
  [[nodiscard]] std::vector<std::pair<Interval, double>> segments() const;

  /// True when the function is identically zero.
  [[nodiscard]] bool is_zero() const;

  /// Folds every breakpoint strictly before t into one carried delta at
  /// the last folded breakpoint's time (omitted when the fold is exactly
  /// zero). The fold runs in ascending time order — the exact partial
  /// fold every probe performs — so for any query at or after the last
  /// folded breakpoint the function is indistinguishable from the
  /// unpruned one: LoadProfile::prune_before's contract, on the naive
  /// representation. Bounds audit-shadow growth in long soaks (the
  /// audit cross-checks only probe at or after the low-water mark).
  void drop_before(double t);

  /// Breakpoints currently held (the memory the audit shadow bounds).
  [[nodiscard]] std::int64_t breakpoint_count() const {
    return static_cast<std::int64_t>(deltas_.size());
  }

 private:
  // Breakpoint map: value changes by deltas_[t] at time t (fenwick-style
  // difference representation). The function at t is the prefix sum of
  // all deltas at breakpoints <= t.
  std::map<double, double> deltas_;
};

/// A prunable step function for committed-load bookkeeping: the
/// incremental load index of the online schedulers.
///
/// StepFunction answers every probe by folding the delta map from its
/// first breakpoint, so probe cost grows with *total* history — after
/// thousands of commits on a hot edge, each admission check replays
/// flows that departed long ago. LoadProfile keeps the same difference
/// representation in a sorted vector and adds
///
///   * cached absolute prefix values (`prefix_[i]` = the value right
///     after breakpoint i, computed by the exact left-to-right fold
///     StepFunction performs) refreshed lazily after adds, so
///     `value_at` is one binary search;
///   * a block-max overlay over those prefix values, so `max_within`
///     scans two boundary blocks entry-wise and takes whole interior
///     blocks from the cache;
///   * `prune_before(t)`: breakpoints strictly older than t fold — in
///     ascending order, preserving the fold bitwise — into a base
///     value, so live memory and probe cost are bounded by *active*
///     history once the scheduler advances its low-water mark (the
///     earliest release among flows still in flight).
///
/// Bitwise contract: for every probe at or after the prune point,
/// LoadProfile returns exactly what the equivalent StepFunction (same
/// adds, never pruned) returns — same fold order, same kZeroEps
/// snapping, same merged-segment structure. tests/load_index_test.cc
/// pins this differentially; EdgeLoadIndex's audit mode re-checks it on
/// every probe of a live run.
///
/// Probes mutate lazy caches: a LoadProfile is not safe for concurrent
/// use (each online run owns its own index; BatchRunner parallelism is
/// across cells, never within one).
class LoadProfile {
 public:
  LoadProfile() = default;

  /// Adds `delta` over [iv.lo, iv.hi). Requires iv.lo at or after the
  /// prune point. Amortized O(log live + shift): committed spans start
  /// near "now", so insertions land near the live tail.
  void add(const Interval& iv, double delta);

  /// Function value at time t (t at or after the prune point).
  [[nodiscard]] double value_at(double t) const;

  /// Maximum value inside `window` (window.lo at or after the prune
  /// point) — bitwise StepFunction::max_within on the live region.
  [[nodiscard]] double max_within(const Interval& window) const;

  /// Folds every breakpoint strictly before t into the base value and
  /// drops it. Monotone: prune points only advance.
  void prune_before(double t);

  /// Merged maximal segments — StepFunction::segments() semantics
  /// (non-zero value, adjacent equal-valued runs merged, sticky first
  /// value) — enumerated from the nearest guaranteed run boundary at or
  /// before `from` (`from` at or after the prune point). `fn` is
  /// called as fn(const Interval&, double value) per run, in time
  /// order; returning false stops the walk (runs wholly past a caller's
  /// window contribute nothing, exactly as the clipped naive scan).
  template <typename Fn>
  void for_each_segment_from(double from, Fn&& fn) const {
    DCN_EXPECTS(!(from < origin_));
    refresh();
    const std::size_t n = entries_.size();
    // The elementary segment containing `from` ends at the first
    // breakpoint past it; rewind to a guaranteed naive run boundary —
    // index 0 or a zero-valued elementary segment (segments() skips
    // those, so no merged run crosses one).
    std::size_t i = upper_index(from);
    while (i > 0 &&
           std::fabs(value_before(i)) >= piecewise_detail::kZeroEps) {
      --i;
    }
    bool open = false;
    Interval run{0.0, 0.0};
    double run_v = 0.0;
    for (; i < n; ++i) {
      const double lo = i == 0 ? origin_ : entries_[i - 1].first;
      const double hi = entries_[i].first;
      const double v = value_before(i);
      if (std::fabs(v) < piecewise_detail::kZeroEps || !(hi > lo)) {
        // segments() skips zero-valued stretches, which also breaks
        // run adjacency for whatever follows.
        if (open && !fn(static_cast<const Interval&>(run), run_v)) return;
        open = false;
        continue;
      }
      if (open && run.hi == lo &&
          std::fabs(run_v - v) < piecewise_detail::kZeroEps) {
        run.hi = hi;  // merge equal-valued adjacent segments
      } else {
        if (open && !fn(static_cast<const Interval&>(run), run_v)) return;
        run = {lo, hi};
        run_v = v;
        open = true;
      }
    }
    if (open) fn(static_cast<const Interval&>(run), run_v);
  }

  /// Breakpoints currently live (not pruned).
  [[nodiscard]] std::int64_t live_breakpoints() const {
    return static_cast<std::int64_t>(entries_.size());
  }
  /// Breakpoints folded away by prune_before over the lifetime.
  [[nodiscard]] std::int64_t pruned_breakpoints() const { return pruned_; }
  /// Current prune point (-inf when never pruned).
  [[nodiscard]] double prune_time() const { return origin_; }

 private:
  /// Entries per block-max cache block. Boundary blocks of a max_within
  /// are scanned entry-wise, so the value is a latency/granularity
  /// trade: 32 keeps the scan short while interior blocks amortize.
  static constexpr std::size_t kBlock = 32;

  /// Index of the first entry with time > t.
  [[nodiscard]] std::size_t upper_index(double t) const;
  /// Value on the elementary segment ending at entry i (the exact
  /// naive prefix before folding entry i's delta).
  [[nodiscard]] double value_before(std::size_t i) const {
    return i == 0 ? base_ : prefix_[i - 1];
  }
  /// Rebuilds prefix_/block_max_ from the first dirty entry.
  void refresh() const;

  // (time, delta), sorted by strictly increasing time; deltas at equal
  // times accumulate into one entry, matching the map representation.
  std::vector<std::pair<double, double>> entries_;
  // Folded prefix of every pruned breakpoint, in ascending time order —
  // the exact partial fold StepFunction's scan would have produced.
  double base_ = 0.0;
  // Prune point: queries and adds before this time are out of contract.
  double origin_ = -std::numeric_limits<double>::infinity();
  std::int64_t pruned_ = 0;

  // Lazy caches (see class comment): prefix_[i] is the absolute value
  // after entries_[0..i]; block_max_[b] is the max over block b's
  // entries of the kZeroEps-filtered value *before* each entry (the
  // max_within candidates), -inf when the block has none.
  mutable std::vector<double> prefix_;
  mutable std::vector<double> block_max_;
  mutable std::size_t clean_ = 0;  // entries_[0..clean_) have valid caches
};

}  // namespace dcn
