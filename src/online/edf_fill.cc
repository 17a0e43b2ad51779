// EDF fill: the earliest-remaining-capacity fallback packing shared by
// every online policy. The indexed overload is what the schedulers and
// the re-rate pass call; the StepFunction overload is the reference the
// audit shadow cross-checks it against.
#include <algorithm>
#include <vector>

#include "common/contracts.h"
#include "online/admission_core.h"
#include "online/online_scheduler.h"

namespace dcn {

/// Indexed fill: same elementary-piece packing as the reference below,
/// but the cut collection walks only the merged segments overlapping
/// `span` (for_each_segment_from stops at the first run starting past
/// span.hi) and the per-piece load probes are O(log live) index
/// lookups. Runs the index enumerates that the reference's full
/// segments() scan would also visit but that end at or before span.lo —
/// or start at or past span.hi — contribute no cuts under the strict
/// window filters, so the cut set matches the reference exactly; in
/// audit mode the whole fill is cross-checked against the reference on
/// the naive shadow.
std::vector<RateSegment> edf_fill(const EdgeLoadIndex& load, const Path& path,
                                  const Interval& span, double volume,
                                  double capacity) {
  std::vector<double> cuts{span.lo, span.hi};
  for (const EdgeId e : path.edges) {
    load.for_each_segment_from(e, span.lo, [&](const Interval& iv, double) {
      if (iv.lo >= span.hi) return false;
      if (iv.lo > span.lo && iv.lo < span.hi) cuts.push_back(iv.lo);
      if (iv.hi > span.lo && iv.hi < span.hi) cuts.push_back(iv.hi);
      return true;
    });
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<RateSegment> segments;
  double remaining = volume;
  for (std::size_t k = 0; k + 1 < cuts.size() && remaining > 0.0; ++k) {
    const Interval piece{cuts[k], cuts[k + 1]};
    double used = 0.0;
    for (const EdgeId e : path.edges) {
      used = std::max(used, load.value_at(e, piece.lo));
    }
    const double avail = capacity - used;
    if (avail <= online_impl::kCapacitySlack * std::max(1.0, capacity)) continue;
    const double takeable = avail * piece.measure();
    if (takeable >= remaining) {
      segments.push_back({{piece.lo, piece.lo + remaining / avail}, avail});
      remaining = 0.0;
    } else {
      segments.push_back({piece, avail});
      remaining -= takeable;
    }
  }
  if (remaining > 1e-9 * std::max(1.0, volume)) segments.clear();
  if (const std::vector<StepFunction>* shadow = load.shadow()) {
    // Bitwise differential against the reference fill on the naive
    // shadow profiles: same cuts, same rates, same early exit.
    const std::vector<RateSegment> ref =
        edf_fill(*shadow, path, span, volume, capacity);
    DCN_ENSURES(segments.size() == ref.size());
    for (std::size_t k = 0; k < segments.size(); ++k) {
      DCN_ENSURES(segments[k].interval.lo == ref[k].interval.lo);
      DCN_ENSURES(segments[k].interval.hi == ref[k].interval.hi);
      DCN_ENSURES(segments[k].rate == ref[k].rate);
    }
  }
  return segments;
}

/// Reference fill: packs `volume` into the earliest remaining capacity
/// of `path` within `span`, scanning every committed segment of each
/// edge's full profile. The differential baseline of the indexed
/// overload above (audit mode and tests); not on any scheduler's path.
std::vector<RateSegment> edf_fill(const std::vector<StepFunction>& load,
                                  const Path& path, const Interval& span,
                                  double volume, double capacity) {
  // Elementary intervals: every committed-load breakpoint of the path's
  // edges inside the span, so the combined load is constant per piece.
  std::vector<double> cuts{span.lo, span.hi};
  for (const EdgeId e : path.edges) {
    for (const auto& [iv, value] : load[static_cast<std::size_t>(e)].segments()) {
      if (iv.lo > span.lo && iv.lo < span.hi) cuts.push_back(iv.lo);
      if (iv.hi > span.lo && iv.hi < span.hi) cuts.push_back(iv.hi);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<RateSegment> segments;
  double remaining = volume;
  for (std::size_t k = 0; k + 1 < cuts.size() && remaining > 0.0; ++k) {
    const Interval piece{cuts[k], cuts[k + 1]};
    double used = 0.0;
    for (const EdgeId e : path.edges) {
      used = std::max(used,
                      load[static_cast<std::size_t>(e)].value_at(piece.lo));
    }
    const double avail = capacity - used;
    if (avail <= online_impl::kCapacitySlack * std::max(1.0, capacity)) continue;
    const double takeable = avail * piece.measure();
    if (takeable >= remaining) {
      segments.push_back({{piece.lo, piece.lo + remaining / avail}, avail});
      remaining = 0.0;
    } else {
      segments.push_back({piece, avail});
      remaining -= takeable;
    }
  }
  if (remaining > 1e-9 * std::max(1.0, volume)) return {};
  return segments;
}

}  // namespace dcn
