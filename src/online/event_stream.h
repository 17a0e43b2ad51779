// The event-stream layer of the online scheduling service.
//
// The batch API replays a pre-materialized trace; a long-lived
// service absorbs arrivals it has never seen as a vector. EventStream
// is the seam between the two: the scheduler pulls arrivals one at a
// time (releases non-decreasing) and never needs the whole trace in
// memory. Two sources:
//
//   TraceEventStream    wraps a materialized trace (sorted into arrival
//                       order) — the bit-identical bridge from today's
//                       batch API to the streaming service.
//   PoissonEventStream  synthesizes Poisson arrivals on demand via
//                       PoissonFlowGenerator, with the identical rng
//                       discipline as poisson_workload — so a 100k+
//                       arrival soak never materializes the trace, yet
//                       emits exactly the flows the materializing
//                       generator would have.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/flow.h"
#include "flow/workload.h"

namespace dcn {

/// Pull-based arrival source. Implementations must emit flows with
/// non-decreasing releases and sequential positions (the consumer
/// assigns its own dense slots; flow ids are the producer's and only
/// break ordering ties).
class EventStream {
 public:
  virtual ~EventStream() = default;

  /// The next arrival, or nullopt when the stream is exhausted.
  /// Releases never decrease across calls.
  [[nodiscard]] virtual std::optional<Flow> next() = 0;
};

/// A materialized trace as a stream: flows sorted by (release, id) —
/// exactly the event loop's arrival order — and handed out one at a
/// time.
class TraceEventStream final : public EventStream {
 public:
  explicit TraceEventStream(std::vector<Flow> flows);

  [[nodiscard]] std::optional<Flow> next() override;

 private:
  std::vector<Flow> flows_;  // arrival order
  std::size_t pos_ = 0;
};

/// `limit` Poisson arrivals synthesized on demand (see
/// PoissonFlowGenerator for the bit-equality contract with
/// poisson_workload). `topo` must outlive the stream.
class PoissonEventStream final : public EventStream {
 public:
  PoissonEventStream(const Topology& topo, const OnlineWorkloadParams& params,
                     Rng rng, std::int64_t limit);

  [[nodiscard]] std::optional<Flow> next() override;

 private:
  PoissonFlowGenerator gen_;
  std::int64_t remaining_;
};

}  // namespace dcn
