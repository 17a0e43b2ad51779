// Differential anchor of the online subsystem: when every flow arrives
// at t = 0 the rolling-horizon loop degenerates to a single event whose
// admission re-solve *is* offline Algorithm 2 — same relaxation, same
// rng stream, same rounding accept/reject step — so online_dcfsr must
// reproduce offline dcfsr exactly, on single-path (line) and multipath
// (fat-tree) fabrics alike.
//
// This also covers the acceptance path end-to-end: the admitted
// schedule of an online run on a Poisson fat-tree k=4 scenario is
// pushed through the packet-level simulator and every admitted flow
// must meet its deadline within the store-and-forward envelope.
//
// The greedy rule has its own anchor: with no capacity to bind, the
// online_greedy placement rule of the event loop is the offline greedy
// baseline (greedy_energy_aware, the plain StepFunction reference)
// arrival for arrival.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "baselines/baselines.h"
#include "engine/instance.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "online/online_scheduler.h"
#include "sim/packet_sim.h"
#include "sim/replay.h"
#include "topology/builders.h"

namespace dcn::engine {
namespace {

SolverOutcome run(const Instance& instance, const char* solver) {
  return default_registry().create(solver)->solve(instance);
}

/// All-at-t=0 scenarios: incast and shuffle release every flow at the
/// window start, so the whole instance arrives as one event batch.
class OnlineDifferentialTest : public ::testing::Test {
 protected:
  const ScenarioSuite& suite_ = ScenarioSuite::default_suite();
};

TEST_F(OnlineDifferentialTest, MatchesOfflineDcfsrOnLine) {
  ScenarioOptions options;
  options.senders = 3;
  const Instance instance = suite_.build("line/incast", 7, options);
  const SolverOutcome offline = run(instance, "dcfsr");
  const SolverOutcome online = run(instance, "online_dcfsr");
  ASSERT_TRUE(offline.feasible) << offline.first_issue;
  ASSERT_TRUE(online.feasible) << online.first_issue;
  // One event, nothing rejected, and the identical schedule: energies
  // agree to float identity, not merely to tolerance.
  EXPECT_NEAR(online.energy, offline.energy, 1e-9 * offline.energy);
  EXPECT_EQ(online.schedule.flows.size(), offline.schedule.flows.size());
  for (std::size_t i = 0; i < online.schedule.flows.size(); ++i) {
    EXPECT_EQ(online.schedule.flows[i].path, offline.schedule.flows[i].path);
    EXPECT_EQ(online.schedule.flows[i].segments,
              offline.schedule.flows[i].segments);
  }
}

TEST_F(OnlineDifferentialTest, MatchesOfflineDcfsrOnFatTree) {
  for (const char* spec : {"fat_tree/incast", "fat_tree/shuffle"}) {
    const Instance instance = suite_.build(spec, 11);
    const SolverOutcome offline = run(instance, "dcfsr");
    const SolverOutcome online = run(instance, "online_dcfsr");
    ASSERT_TRUE(offline.feasible) << spec << ": " << offline.first_issue;
    ASSERT_TRUE(online.feasible) << spec << ": " << online.first_issue;
    EXPECT_NEAR(online.energy, offline.energy, 1e-9 * offline.energy) << spec;
    // The online run saw exactly one event and admitted everything.
    for (const auto& [key, value] : online.stats) {
      if (key == "events") {
        EXPECT_EQ(value, 1.0) << spec;
      } else if (key == "rejected") {
        EXPECT_EQ(value, 0.0) << spec;
      } else if (key == "admitted") {
        EXPECT_EQ(value, static_cast<double>(instance.flows().size())) << spec;
      } else if (key == "first_lb") {
        // The single re-solve's LB is the offline relaxation LB.
        EXPECT_NEAR(value, offline.lower_bound, 1e-9 * offline.lower_bound)
            << spec;
      }
    }
  }
}

TEST_F(OnlineDifferentialTest, OracleMatchesOfflineDcfsrWhenJointRoundingFits) {
  // The hindsight oracle runs offline Algorithm 2 on the whole trace
  // with the "dcfsr" rng stream; whenever its joint rounding is
  // capacity-feasible it must BE offline dcfsr — identical schedule,
  // identical energy. All-at-t=0 (incast) and genuinely staggered
  // (poisson at infinite capacity, where rounding is always feasible)
  // both land in that case.
  for (const char* spec : {"line/incast", "fat_tree/incast"}) {
    const Instance instance = suite_.build(spec, 7);
    const SolverOutcome offline = run(instance, "dcfsr");
    const SolverOutcome oracle = run(instance, "oracle_dcfsr");
    ASSERT_TRUE(offline.feasible) << spec << ": " << offline.first_issue;
    ASSERT_TRUE(oracle.feasible) << spec << ": " << oracle.first_issue;
    EXPECT_EQ(oracle.energy, offline.energy) << spec;
    ASSERT_EQ(oracle.schedule.flows.size(), offline.schedule.flows.size());
    for (std::size_t i = 0; i < oracle.schedule.flows.size(); ++i) {
      EXPECT_EQ(oracle.schedule.flows[i].path, offline.schedule.flows[i].path)
          << spec;
      EXPECT_EQ(oracle.schedule.flows[i].segments,
                offline.schedule.flows[i].segments)
          << spec;
    }
  }
  ScenarioOptions options;
  options.num_flows = 16;
  const Instance staggered = suite_.build("fat_tree/poisson", 3, options);
  const SolverOutcome offline = run(staggered, "dcfsr");
  const SolverOutcome oracle = run(staggered, "oracle_dcfsr");
  ASSERT_TRUE(offline.feasible) << offline.first_issue;
  ASSERT_TRUE(oracle.feasible) << oracle.first_issue;
  EXPECT_EQ(oracle.energy, offline.energy);
  for (const auto& [key, value] : oracle.stats) {
    if (key == "rejected") {
      EXPECT_EQ(value, 0.0);
    }
    if (key == "admitted") {
      EXPECT_EQ(value, static_cast<double>(staggered.flows().size()));
    }
  }
}

TEST_F(OnlineDifferentialTest, OracleAdmitsAtLeastAsManyAsItRejects) {
  // Under real contention the oracle falls back to RCD-ordered per-flow
  // admission; the result must stay replay-feasible and never serve a
  // rejected flow (the invariants the property suite pins for the
  // online policies, asserted here for the hindsight baseline).
  ScenarioOptions options;
  options.num_flows = 24;
  options.capacity = 2.0;
  options.arrival_rate = 4.0;
  const Instance instance = suite_.build("fat_tree/poisson", 5, options);
  const SolverOutcome oracle = run(instance, "oracle_dcfsr");
  ASSERT_TRUE(oracle.feasible) << oracle.first_issue;
  double admitted = -1.0, rejected = -1.0;
  for (const auto& [key, value] : oracle.stats) {
    if (key == "admitted") admitted = value;
    if (key == "rejected") rejected = value;
  }
  EXPECT_GE(admitted, 1.0);
  EXPECT_EQ(admitted + rejected, static_cast<double>(instance.flows().size()));
  for (std::size_t i = 0; i < oracle.schedule.flows.size(); ++i) {
    if (oracle.schedule.flows[i].segments.empty()) continue;
    EXPECT_FALSE(oracle.schedule.flows[i].path.empty()) << i;
  }
}

TEST_F(OnlineDifferentialTest, StaggeredArrivalsStillServeEveryAdmittedFlow) {
  // Genuinely online input (Poisson releases) on the paper's k=4
  // fat-tree: at least one flow admitted, and the admitted subset
  // replays cleanly — this is the dcn_run acceptance scenario in
  // library form.
  ScenarioOptions options;
  options.num_flows = 16;
  options.capacity = 4.0;
  const Instance instance = suite_.build("fat_tree/poisson", 1, options);
  const SolverOutcome online = run(instance, "online_dcfsr");
  ASSERT_TRUE(online.feasible) << online.first_issue;

  double admitted = 0.0;
  for (const auto& [key, value] : online.stats) {
    if (key == "admitted") admitted = value;
  }
  EXPECT_GE(admitted, 1.0);
}

TEST_F(OnlineDifferentialTest, WindowCoveringEverySpanIsBitIdenticalToNoWindow) {
  // The lookahead window clips residual deadlines to [now, now + W] in
  // the relaxation; a W larger than every span can never clip, so the
  // run must be the W = 0 run *bit for bit* — identical admitted set,
  // identical paths and rate segments, identical solver-work counters.
  // This is the degenerate-case contract that lets online_dcfsr_flat
  // share the code path with online_dcfsr.
  ScenarioOptions scen;
  scen.num_flows = 14;
  scen.capacity = 3.0;
  scen.arrival_rate = 3.0;
  const Instance instance = suite_.build("fat_tree/poisson", 3, scen);

  OnlineOptions base;
  base.rounding.relaxation.frank_wolfe.max_iterations = 15;
  base.rounding.relaxation.frank_wolfe.gap_tolerance = 2e-3;
  base.audit_load_index = true;
  OnlineOptions windowed = base;
  windowed.lookahead_window = 1e9;  // covers every generated span

  Rng rng_a = solver_rng(instance, "dcfsr");
  const OnlineResult a =
      online_dcfsr(instance.graph(), instance.flows(), instance.model(), rng_a,
                   base);
  Rng rng_b = solver_rng(instance, "dcfsr");
  const OnlineResult b =
      online_dcfsr(instance.graph(), instance.flows(), instance.model(), rng_b,
                   windowed);

  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.resolves, b.resolves);
  EXPECT_EQ(a.fw_iterations, b.fw_iterations);
  EXPECT_EQ(a.rounding_attempts, b.rounding_attempts);
  EXPECT_EQ(a.first_lower_bound, b.first_lower_bound);
  ASSERT_EQ(a.schedule.flows.size(), b.schedule.flows.size());
  for (std::size_t i = 0; i < a.schedule.flows.size(); ++i) {
    EXPECT_EQ(a.schedule.flows[i].path, b.schedule.flows[i].path) << i;
    EXPECT_EQ(a.schedule.flows[i].segments, b.schedule.flows[i].segments) << i;
  }
  // The trace actually exercised the rolling loop (several events) —
  // otherwise this equality would be vacuous.
  EXPECT_GT(a.num_events, 1);
}

TEST_F(OnlineDifferentialTest, EpochBatchingAllAtTimeZeroMatchesOfflineDcfsr) {
  // Epoch batching groups arrivals within `epoch` of an event's first
  // release into one joint re-solve. When every flow arrives at t = 0
  // the batch IS the whole instance regardless of epoch, so the run
  // must reproduce offline dcfsr byte for byte — same Frank-Wolfe
  // budget (the registry's calibrated 12 / 1e-3), same "dcfsr" rng
  // stream, same rounding. A huge window on top must not disturb it
  // (nothing to clip).
  const Instance instance = suite_.build("fat_tree/incast", 11);
  const SolverOutcome offline = run(instance, "dcfsr");
  ASSERT_TRUE(offline.feasible) << offline.first_issue;

  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 12;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  options.audit_load_index = true;
  options.epoch = 0.5;
  for (const double window : {0.0, 1e9}) {
    options.lookahead_window = window;
    Rng rng = solver_rng(instance, "dcfsr");
    const OnlineResult r = online_dcfsr(instance.graph(), instance.flows(),
                                        instance.model(), rng, options);
    EXPECT_EQ(r.num_events, 1) << "window " << window;
    EXPECT_EQ(r.num_rejected, 0) << "window " << window;
    ASSERT_EQ(r.schedule.flows.size(), offline.schedule.flows.size());
    for (std::size_t i = 0; i < r.schedule.flows.size(); ++i) {
      EXPECT_EQ(r.schedule.flows[i].path, offline.schedule.flows[i].path)
          << "window " << window << " flow " << i;
      EXPECT_EQ(r.schedule.flows[i].segments, offline.schedule.flows[i].segments)
          << "window " << window << " flow " << i;
    }
  }
}

TEST_F(OnlineDifferentialTest, EpochBatchingKeepsEveryAdmittedDeadline) {
  // Finite window + coarse epoch on a genuinely staggered contended
  // trace: admission decisions may differ from the per-release loop,
  // but the hard invariants cannot — every admitted flow replays
  // cleanly against its *true* span (the rounding checks true spans
  // even when the relaxation saw clipped ones), rejected flows get no
  // service, and batching strictly reduces the event count.
  ScenarioOptions scen;
  scen.num_flows = 18;
  scen.capacity = 3.0;
  scen.arrival_rate = 6.0;
  const Instance instance = suite_.build("fat_tree/poisson", 9, scen);

  OnlineOptions base;
  base.rounding.relaxation.frank_wolfe.max_iterations = 15;
  base.rounding.relaxation.frank_wolfe.gap_tolerance = 2e-3;
  base.audit_load_index = true;
  OnlineOptions batched = base;
  batched.lookahead_window = 1.5;
  batched.epoch = 0.5;

  Rng rng_a = solver_rng(instance, "dcfsr");
  const OnlineResult per_release = online_dcfsr(
      instance.graph(), instance.flows(), instance.model(), rng_a, base);
  Rng rng_b = solver_rng(instance, "dcfsr");
  const OnlineResult r = online_dcfsr(instance.graph(), instance.flows(),
                                      instance.model(), rng_b, batched);

  EXPECT_LT(r.num_events, per_release.num_events);
  EXPECT_EQ(r.num_admitted + r.num_rejected,
            static_cast<std::int32_t>(instance.flows().size()));
  ASSERT_GE(r.num_admitted, 1);
  for (std::size_t i = 0; i < r.admitted.size(); ++i) {
    if (!r.admitted[i]) {
      EXPECT_TRUE(r.schedule.flows[i].segments.empty()) << i;
    }
  }
  const auto [sub_flows, sub_schedule] =
      admitted_subset(instance.flows(), r.schedule, r.admitted);
  const ReplayReport replay = replay_schedule(instance.graph(), sub_flows,
                                              sub_schedule, instance.model());
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues[0]);
}

TEST_F(OnlineDifferentialTest, RerateOffIsByteIdenticalToFlatConfiguration) {
  // online_dcfsr_preempt is online_dcfsr_flat plus allow_rerate. Two
  // anchors on a staggered multi-event trace: (a) with the flag off the
  // run is the flat configuration byte for byte — same float
  // expressions, same rng consumption; (b) with the flag ON but no
  // successful re-rate (ample capacity) the run is *still* byte
  // identical — the rerate mode only diverges at the first reshaped
  // profile, and until then its extra per-arrival verification probes
  // are read-only.
  ScenarioOptions scen;
  scen.num_flows = 14;
  scen.capacity = 8.0;
  scen.arrival_rate = 3.0;
  const Instance instance = suite_.build("fat_tree/poisson", 3, scen);

  OnlineOptions flat;
  flat.rounding.relaxation.frank_wolfe.max_iterations = 15;
  flat.rounding.relaxation.frank_wolfe.gap_tolerance = 2e-3;
  flat.lookahead_window = 2.0;
  flat.epoch = 0.5;
  flat.audit_load_index = true;
  OnlineOptions off = flat;
  off.allow_rerate = false;
  OnlineOptions on = flat;
  on.allow_rerate = true;

  Rng rng_flat = solver_rng(instance, "dcfsr");
  const OnlineResult a = online_dcfsr(instance.graph(), instance.flows(),
                                      instance.model(), rng_flat, flat);
  for (const OnlineOptions* options : {&off, &on}) {
    Rng rng = solver_rng(instance, "dcfsr");
    const OnlineResult b = online_dcfsr(instance.graph(), instance.flows(),
                                        instance.model(), rng, *options);
    const char* tag = options == &on ? "allow_rerate=true" : "allow_rerate=false";
    EXPECT_EQ(b.rerate_commits, 0) << tag;  // precondition of (b)
    EXPECT_EQ(a.admitted, b.admitted) << tag;
    EXPECT_EQ(a.num_events, b.num_events) << tag;
    EXPECT_EQ(a.resolves, b.resolves) << tag;
    EXPECT_EQ(a.fw_iterations, b.fw_iterations) << tag;
    EXPECT_EQ(a.rounding_attempts, b.rounding_attempts) << tag;
    EXPECT_EQ(a.first_lower_bound, b.first_lower_bound) << tag;
    ASSERT_EQ(a.schedule.flows.size(), b.schedule.flows.size()) << tag;
    for (std::size_t i = 0; i < a.schedule.flows.size(); ++i) {
      EXPECT_EQ(a.schedule.flows[i].path, b.schedule.flows[i].path)
          << tag << " flow " << i;
      EXPECT_EQ(a.schedule.flows[i].segments, b.schedule.flows[i].segments)
          << tag << " flow " << i;
    }
  }
  EXPECT_GT(a.num_events, 1);  // the equality covered the rolling loop
}

TEST_F(OnlineDifferentialTest, ReRatedProfilesMeetDeadlinesInPacketReplay) {
  // The tentpole's correctness claim, end to end: under capacity-cliff
  // contention the preempt solver reshapes in-flight profiles, and
  // every admitted flow — re-rated ones included — must still replay
  // cleanly and land its last packet within the store-and-forward
  // envelope of its deadline. Swept over seeds so at least one run
  // exercises a committed re-rate (asserted, not assumed).
  double total_rerate_commits = 0.0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    ScenarioOptions options;
    options.num_flows = 24;
    options.capacity = 2.5;  // tight but with repack headroom: densities ~1-2
    options.arrival_rate = 6.0;
    const Instance instance = suite_.build("fat_tree/poisson", seed, options);
    const SolverOutcome out = run(instance, "online_dcfsr_preempt");
    ASSERT_TRUE(out.feasible) << "seed " << seed << ": " << out.first_issue;
    for (const auto& [key, value] : out.stats) {
      if (key == "rerate_commits") total_rerate_commits += value;
    }

    std::vector<bool> admitted(instance.flows().size());
    std::size_t count = 0;
    for (std::size_t i = 0; i < instance.flows().size(); ++i) {
      admitted[i] = !out.schedule.flows[i].segments.empty();
      count += admitted[i] ? 1u : 0u;
    }
    ASSERT_GE(count, 1u) << "seed " << seed;
    const auto [sub_flows, sub_schedule] =
        admitted_subset(instance.flows(), out.schedule, admitted);
    const ReplayReport replay = replay_schedule(
        instance.graph(), sub_flows, sub_schedule, instance.model());
    ASSERT_TRUE(replay.ok) << "seed " << seed << ": "
                           << (replay.issues.empty() ? "" : replay.issues[0]);
    const PacketSimReport packets =
        packet_simulate(instance.graph(), sub_flows, sub_schedule);
    EXPECT_TRUE(packets.all_deadlines_met) << "seed " << seed;
    EXPECT_EQ(packets.packets_starved, 0) << "seed " << seed;
  }
  EXPECT_GE(total_rerate_commits, 1.0)
      << "sweep never committed a re-rate; tighten the scenario";
}

TEST_F(OnlineDifferentialTest, PerFlowFallbackAdmitsClosestDeadlineFirst) {
  // Two flows leave one host in the same event at density 2 each; the
  // host uplink (capacity 3) fits either alone but not both, so the
  // joint draw fails and the per-flow fallback decides. The RCD order
  // tries the earlier deadline first: flow 1 is admitted and flow 0,
  // the lower id, is rejected (id order would do the opposite).
  const Topology topo = fat_tree(4);
  const std::vector<NodeId>& hosts = topo.hosts();
  const std::vector<Flow> flows = {
      {0, hosts[0], hosts[5], 20.0, 0.0, 10.0},
      {1, hosts[0], hosts[6], 10.0, 0.0, 5.0},
  };
  const PowerModel model(1.0, 1.0, 2.0, 3.0);
  Rng rng(17);
  const OnlineResult r = online_dcfsr(topo.graph(), flows, model, rng);
  EXPECT_EQ(r.batch_fallbacks, 1);
  EXPECT_FALSE(r.admitted[0]);
  EXPECT_TRUE(r.admitted[1]);
}

TEST_F(OnlineDifferentialTest, AdmittedFlowsMeetDeadlinesInPacketReplay) {
  // End-to-end: online admission -> fluid schedule -> packet-level
  // store-and-forward simulation. Every admitted flow's last packet
  // must arrive within the pipeline-fill envelope of its deadline.
  ScenarioOptions options;
  options.num_flows = 12;
  options.capacity = 4.0;
  const Instance instance = suite_.build("fat_tree/poisson", 2, options);

  for (const char* solver : {"online_dcfsr", "online_greedy"}) {
    const SolverOutcome out = run(instance, solver);
    ASSERT_TRUE(out.feasible) << solver << ": " << out.first_issue;

    std::vector<bool> admitted(instance.flows().size());
    std::size_t count = 0;
    for (std::size_t i = 0; i < instance.flows().size(); ++i) {
      admitted[i] = !out.schedule.flows[i].segments.empty();
      count += admitted[i] ? 1u : 0u;
    }
    ASSERT_GE(count, 1u) << solver;

    const auto [sub_flows, sub_schedule] =
        admitted_subset(instance.flows(), out.schedule, admitted);
    const ReplayReport replay = replay_schedule(
        instance.graph(), sub_flows, sub_schedule, instance.model());
    ASSERT_TRUE(replay.ok) << solver << ": "
                           << (replay.issues.empty() ? "" : replay.issues[0]);

    const PacketSimReport packets =
        packet_simulate(instance.graph(), sub_flows, sub_schedule);
    EXPECT_TRUE(packets.all_deadlines_met) << solver;
    EXPECT_EQ(packets.packets_starved, 0) << solver;
  }
}

TEST_F(OnlineDifferentialTest, OnlineGreedyMatchesOfflineGreedyAtInfiniteCapacity) {
  // At infinite capacity every density fits, so the event loop's greedy
  // rule admits every arrival at its density on the minimum
  // marginal-energy path against the committed load — exactly what the
  // offline baseline computes over plain StepFunctions in the same
  // (release, id) order. Rows must agree bitwise, not to tolerance.
  for (const char* spec :
       {"fat_tree/paper", "leaf_spine/incast", "fat_tree/poisson",
        "bcube/paper", "leaf_spine/hadoop", "fat_tree/websearch"}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Instance instance = suite_.build(spec, seed);
      const Schedule offline = greedy_energy_aware(
          instance.graph(), instance.flows(), instance.model());
      const OnlineResult online = online_greedy(
          instance.graph(), instance.flows(), instance.model());
      const std::size_t n = instance.flows().size();
      EXPECT_EQ(online.num_admitted, static_cast<std::int32_t>(n))
          << spec << " seed " << seed;
      EXPECT_EQ(online.edf_fallbacks, 0) << spec << " seed " << seed;
      ASSERT_EQ(online.schedule.flows.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(online.schedule.flows[i].path.edges,
                  offline.flows[i].path.edges)
            << spec << " seed " << seed << " flow " << i;
        EXPECT_EQ(online.schedule.flows[i].segments, offline.flows[i].segments)
            << spec << " seed " << seed << " flow " << i;
      }
    }
  }
}

TEST_F(OnlineDifferentialTest, OnlineGreedyEdfFallbackAdmitsReplayableFlows) {
  // At capacity 3 the Poisson fat-tree trace has arrivals whose density
  // no longer fits on their path: the EDF fill must admit some of them,
  // and every admitted profile (flat or EDF-filled) must replay within
  // capacity and deadline.
  ScenarioOptions options;
  options.capacity = 3.0;
  const Instance instance = suite_.build("fat_tree/poisson", 1, options);
  const OnlineResult r =
      online_greedy(instance.graph(), instance.flows(), instance.model());
  EXPECT_GT(r.edf_fallbacks, 0);
  EXPECT_GT(r.num_rejected, 0);
  const auto [sub_flows, sub_schedule] =
      admitted_subset(instance.flows(), r.schedule, r.admitted);
  ASSERT_EQ(sub_flows.size(), static_cast<std::size_t>(r.num_admitted));
  const ReplayReport replay = replay_schedule(instance.graph(), sub_flows,
                                              sub_schedule, instance.model());
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues[0]);
}

}  // namespace
}  // namespace dcn::engine
