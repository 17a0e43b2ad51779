#include "common/piecewise.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dcn {

namespace {
// See piecewise_detail::kZeroEps (shared with LoadProfile, which must
// snap identically to stay bitwise-equal to the naive replay).
constexpr double kZeroEps = piecewise_detail::kZeroEps;

double snap_zero(double v) { return std::fabs(v) < kZeroEps ? 0.0 : v; }
}  // namespace

void StepFunction::add(const Interval& iv, double delta) {
  if (iv.empty() || delta == 0.0) return;
  deltas_[iv.lo] += delta;
  deltas_[iv.hi] -= delta;
}

void StepFunction::drop_before(double t) {
  const auto first_kept = deltas_.lower_bound(t);
  if (first_kept == deltas_.begin()) return;
  // Ascending partial fold — exactly the prefix every probe computes —
  // carried at the last folded breakpoint, so the elementary segment it
  // opened keeps its value and everything at or after it is unchanged.
  double folded = 0.0;
  double last_time = 0.0;
  for (auto it = deltas_.begin(); it != first_kept; ++it) {
    folded += it->second;
    last_time = it->first;
  }
  deltas_.erase(deltas_.begin(), first_kept);
  if (folded != 0.0) deltas_.emplace(last_time, folded);
}

double StepFunction::value_at(double t) const {
  double v = 0.0;
  for (const auto& [time, delta] : deltas_) {
    if (time > t) break;
    v += delta;
  }
  return std::fabs(v) < kZeroEps ? 0.0 : v;
}

double StepFunction::max_value() const {
  return piecewise_detail::fold_max(deltas_);
}

double StepFunction::max_within(const Interval& window) const {
  double v = 0.0, best = 0.0;
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& [time, delta] : deltas_) {
    // The segment [prev, time) carries value v; breakpoints ascend, so
    // once a segment starts at or past the window nothing later overlaps.
    if (prev >= window.hi) break;
    if (time > window.lo && std::fabs(v) >= kZeroEps) best = std::max(best, v);
    v += delta;
    prev = time;
  }
  return best;
}

double StepFunction::integral() const {
  double v = 0.0, total = 0.0;
  double prev = 0.0;
  bool first = true;
  for (const auto& [time, delta] : deltas_) {
    if (!first) total += v * (time - prev);
    v += delta;
    prev = time;
    first = false;
  }
  return total;
}

double StepFunction::integrate_transformed(
    const Interval& window, const std::function<double(double)>& transform) const {
  return piecewise_detail::fold_integrate(deltas_, window, transform);
}

double StepFunction::positive_measure(const Interval& window, double eps) const {
  double v = 0.0, total = 0.0;
  double prev = -std::numeric_limits<double>::infinity();
  const double threshold = std::max(eps, kZeroEps);
  for (const auto& [time, delta] : deltas_) {
    const Interval clip = Interval{prev, time}.intersect(window);
    if (!clip.empty() && v > threshold) total += clip.measure();
    v += delta;
    prev = time;
  }
  return total;
}

double StepFunction::time_to_accumulate(double from, double volume) const {
  DCN_EXPECTS(volume >= 0.0);
  if (volume == 0.0) return from;
  double v = 0.0;
  double prev = -std::numeric_limits<double>::infinity();
  double remaining = volume;
  for (const auto& [time, delta] : deltas_) {
    if (time > from) {
      const double lo = std::max(prev, from);
      if (v > kZeroEps && time > lo) {
        const double chunk = v * (time - lo);
        if (chunk >= remaining - kZeroEps * volume) {
          return lo + remaining / v;
        }
        remaining -= chunk;
      }
    }
    v += delta;
    prev = time;
  }
  // Tail beyond the last breakpoint is zero: nothing more accumulates.
  return std::numeric_limits<double>::infinity();
}

double StepFunction::integral_between(double from, double to) const {
  if (to <= from) return 0.0;
  return integrate_transformed({from, to}, [](double x) { return x; });
}

std::vector<std::pair<Interval, double>> StepFunction::segments() const {
  std::vector<std::pair<Interval, double>> out;
  double v = 0.0;
  double prev = 0.0;
  bool have_prev = false;
  for (const auto& [time, delta] : deltas_) {
    if (have_prev && std::fabs(v) >= kZeroEps && time > prev) {
      if (!out.empty() && out.back().first.hi == prev &&
          std::fabs(out.back().second - v) < kZeroEps) {
        out.back().first.hi = time;  // merge equal-valued adjacent segments
      } else {
        out.emplace_back(Interval{prev, time}, v);
      }
    }
    v += delta;
    prev = time;
    have_prev = true;
  }
  return out;
}

bool StepFunction::is_zero() const {
  return piecewise_detail::fold_is_zero(deltas_);
}

// ---------------------------------------------------------------------------
// LoadProfile

void LoadProfile::add(const Interval& iv, double delta) {
  if (iv.empty() || delta == 0.0) return;
  DCN_EXPECTS(!(iv.lo < origin_));
  for (const auto& [t, d] : {std::pair{iv.lo, delta}, {iv.hi, -delta}}) {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), t,
        [](const std::pair<double, double>& e, double x) { return e.first < x; });
    const std::size_t idx = static_cast<std::size_t>(it - entries_.begin());
    if (it != entries_.end() && it->first == t) {
      it->second += d;  // accumulate, exactly map's deltas_[t] += d
    } else {
      entries_.insert(it, {t, d});
    }
    clean_ = std::min(clean_, idx);
  }
}

std::size_t LoadProfile::upper_index(double t) const {
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](double x, const std::pair<double, double>& e) { return x < e.first; });
  return static_cast<std::size_t>(it - entries_.begin());
}

void LoadProfile::refresh() const {
  const std::size_t n = entries_.size();
  if (clean_ >= n && prefix_.size() == n) return;
  prefix_.resize(n);
  // The prefix fold restarts at the last clean value — itself an exact
  // naive prefix — so every cached value equals the left-to-right fold
  // StepFunction performs, never a re-associated partial sum.
  double v = clean_ == 0 ? base_ : prefix_[clean_ - 1];
  for (std::size_t i = clean_; i < n; ++i) {
    v += entries_[i].second;
    prefix_[i] = v;
  }
  const std::size_t first_block = clean_ / kBlock;
  block_max_.resize((n + kBlock - 1) / kBlock);
  for (std::size_t b = first_block; b < block_max_.size(); ++b) {
    double best = -std::numeric_limits<double>::infinity();
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    for (std::size_t i = lo; i < hi; ++i) {
      const double before = value_before(i);
      if (std::fabs(before) >= kZeroEps) best = std::max(best, before);
    }
    block_max_[b] = best;
  }
  clean_ = n;
}

double LoadProfile::value_at(double t) const {
  DCN_EXPECTS(!(t < origin_));
  refresh();
  const std::size_t idx = upper_index(t);
  return snap_zero(idx == 0 ? base_ : prefix_[idx - 1]);
}

double LoadProfile::max_within(const Interval& window) const {
  DCN_EXPECTS(!(window.lo < origin_));
  refresh();
  const std::size_t n = entries_.size();
  double best = 0.0;
  // Replays StepFunction::max_within on the live region: the candidate
  // at breakpoint i is the value *before* it, considered when the
  // breakpoint is past window.lo and the segment start (the previous
  // breakpoint) is before window.hi. Every pruned breakpoint is at or
  // before window.lo (the contract above), so none of them would have
  // been a candidate; the straddling segment's value is base_, which is
  // entries_[0]'s value_before — the candidate set matches exactly.
  std::size_t i = upper_index(window.lo);
  while (i < n) {
    // Whole interior blocks come from the cache: alignment at a block
    // boundary, and the block's last entry not past window.hi, imply
    // every candidate in it is admissible (segment starts strictly
    // before window.hi because breakpoint times strictly increase).
    if (i % kBlock == 0 && i + kBlock <= n &&
        entries_[i + kBlock - 1].first <= window.hi) {
      best = std::max(best, block_max_[i / kBlock]);
      i += kBlock;
      continue;
    }
    const double prev = i == 0 ? origin_ : entries_[i - 1].first;
    if (prev >= window.hi) break;
    const double before = value_before(i);
    if (std::fabs(before) >= kZeroEps) best = std::max(best, before);
    ++i;
  }
  return best;
}

void LoadProfile::prune_before(double t) {
  if (!(t > origin_)) return;
  origin_ = t;
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), t,
      [](const std::pair<double, double>& e, double x) { return e.first < x; });
  const std::size_t cut = static_cast<std::size_t>(it - entries_.begin());
  if (cut == 0) return;
  // Ascending-order fold into base_: continues the exact left-to-right
  // prefix StepFunction computes, so post-prune probes stay bitwise.
  for (std::size_t i = 0; i < cut; ++i) base_ += entries_[i].second;
  entries_.erase(entries_.begin(), it);
  pruned_ += static_cast<std::int64_t>(cut);
  clean_ = 0;
}

}  // namespace dcn
