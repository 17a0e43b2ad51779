// Deadline-safe preemption (online re-rating) unit tests, on fabrics
// small enough to hand-verify every float:
//
//   * a single bidirectional link where an arrival only fits if the
//     in-flight flow's future is reshaped — the re-rate pass must admit
//     it, keep the in-flight flow's past untouched, and leave a
//     committed schedule the independent replayer and the packet-level
//     simulator both accept;
//   * the same link where the reshape cannot finish the in-flight
//     flow's remaining volume by its deadline — the commit barrier must
//     roll the transaction back bitwise (the in-flight schedule ends
//     the run byte-identical to its pre-arrival state) and reject the
//     arrival instead;
//   * contended scenario-suite traces where the preempt configuration
//     must admit at least as many flows as its own no-rerate anchor
//     (it only ever adds admissions: the fallback path is tried first
//     and re-rating is a strict superset of it);
//   * rejection hygiene: every rejection in a tight-capacity epoch-
//     batched run must leave zero stale warm-start state behind —
//     enforced by the audit mode's warm-state sweep at every event
//     (a regression here aborts the run via DCN_ENSURES rather than
//     silently re-routing a ghost flow on the next re-solve);
//   * re-rating to completion: heavy-tailed traces where every
//     survivor of a departures gap check was accelerated to completion
//     must skip the check instead of handing the relaxation an empty
//     problem (which aborted both the batch solver and the service).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/instance.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "online/event_stream.h"
#include "online/online_scheduler.h"
#include "online/shard_plan.h"
#include "online/sharded.h"
#include "sim/packet_sim.h"
#include "sim/replay.h"

namespace dcn::engine {
namespace {

/// One link, one in-flight flow: A = 10 volume over [0, 10] (density
/// 1), B = 4 volume over [2, 4] (density 2). At B's arrival the link
/// carries A at rate 1, so B needs 2 + 1 = 3 > capacity.
struct LineFixture {
  Graph g{2};
  std::vector<Flow> flows;
  LineFixture(double b_volume, double b_deadline) {
    g.add_bidirectional_edge(0, 1);
    flows.push_back({0, 0, 1, 10.0, 0.0, 10.0});
    flows.push_back({1, 0, 1, b_volume, 2.0, b_deadline});
  }
};

OnlineOptions preempt_options(bool allow_rerate) {
  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 15;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 2e-3;
  options.audit_load_index = true;
  options.allow_rerate = allow_rerate;
  return options;
}

TEST(OnlinePreempt, RerateAdmitsAnArrivalTheFlatPathRejects) {
  // Capacity 2.5: B (density 2) fits only if A's concurrent rate drops
  // to 0.5. Without re-rating B is rejected; with it, A's future is
  // reshaped to 0.5 on [2, 4] and the EDF fill catches the remaining
  // 7 volume at full residual capacity 2.5 on [4, 6.8].
  const LineFixture fx(4.0, 4.0);
  const PowerModel model(0.0, 1.0, 2.0, 2.5);

  Rng rng_flat(17);
  const OnlineResult flat =
      online_dcfsr(fx.g, fx.flows, model, rng_flat, preempt_options(false));
  EXPECT_EQ(flat.num_admitted, 1);
  EXPECT_FALSE(flat.admitted[1]);
  EXPECT_EQ(flat.rerate_attempts, 0);

  Rng rng(17);
  const OnlineResult r =
      online_dcfsr(fx.g, fx.flows, model, rng, preempt_options(true));
  ASSERT_EQ(r.num_admitted, 2);
  EXPECT_EQ(r.rerate_commits, 1);
  EXPECT_EQ(r.rerated_flows, 1);
  EXPECT_GE(r.rerate_attempts, 1);

  // A's committed profile: untouched past [0, 2] at rate 1, then the
  // reshaped future — 0.5 beside B, 2.5 after B departs.
  const auto& a = r.schedule.flows[0].segments;
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].interval.lo, 0.0);
  EXPECT_DOUBLE_EQ(a[0].interval.hi, 2.0);
  EXPECT_DOUBLE_EQ(a[0].rate, 1.0);
  EXPECT_DOUBLE_EQ(a[1].interval.lo, 2.0);
  EXPECT_DOUBLE_EQ(a[1].interval.hi, 4.0);
  EXPECT_DOUBLE_EQ(a[1].rate, 0.5);
  EXPECT_DOUBLE_EQ(a[2].interval.lo, 4.0);
  EXPECT_NEAR(a[2].interval.hi, 6.8, 1e-12);
  EXPECT_DOUBLE_EQ(a[2].rate, 2.5);
  const auto& b = r.schedule.flows[1].segments;
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(b[0].rate, 2.0);

  const ReplayReport replay = replay_schedule(fx.g, fx.flows, r.schedule, model);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues[0]);
  const PacketSimReport packets = packet_simulate(fx.g, fx.flows, r.schedule);
  EXPECT_TRUE(packets.all_deadlines_met);
  EXPECT_EQ(packets.packets_starved, 0);
}

TEST(OnlinePreempt, CommitBarrierRollsBackWhenADeadlineWouldBreak) {
  // Capacity 2.2, B = 14 volume over [2, 9] (density 2, feasible alone).
  // Reshaping A down to the leftover 0.2 beside B leaves at most
  // 0.2 * 7 + 2.2 * 1 = 3.6 of A's remaining 8 volume schedulable by
  // A's deadline — the barrier must refuse, restore A's committed
  // profile bitwise, and reject B.
  const LineFixture fx(14.0, 9.0);
  const PowerModel model(0.0, 1.0, 2.0, 2.2);

  Rng rng(17);
  const OnlineResult r =
      online_dcfsr(fx.g, fx.flows, model, rng, preempt_options(true));
  EXPECT_EQ(r.num_admitted, 1);
  EXPECT_TRUE(r.admitted[0]);
  EXPECT_FALSE(r.admitted[1]);
  EXPECT_GE(r.rerate_attempts, 1);
  EXPECT_EQ(r.rerate_commits, 0);
  EXPECT_EQ(r.rerated_flows, 0);

  // A ends the run exactly as first committed: one flat segment.
  const auto& a = r.schedule.flows[0].segments;
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0].interval.lo, 0.0);
  EXPECT_DOUBLE_EQ(a[0].interval.hi, 10.0);
  EXPECT_DOUBLE_EQ(a[0].rate, 1.0);
  EXPECT_TRUE(r.schedule.flows[1].segments.empty());

  const auto [sub_flows, sub_schedule] =
      admitted_subset(fx.flows, r.schedule, r.admitted);
  const ReplayReport replay =
      replay_schedule(fx.g, sub_flows, sub_schedule, model);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues[0]);
}

TEST(OnlinePreempt, AdmitsAtLeastAsManyAsTheNoRerateAnchorWhenContended) {
  // Re-rating only ever runs after the plain fallback path has already
  // failed an arrival, so on any trace the preempt run's admitted count
  // dominates the anchor's. Swept across contended fat-tree traces;
  // also requires the sweep to surface at least one committed re-rate
  // (i.e. the scenarios genuinely exercise the pass).
  // Capacity 2.5 is the regime where re-rating actually lands: the
  // generated flow densities hover around 1–2, so at 2.0 an arrival
  // that displaces an in-flight flow leaves no headroom to repack it,
  // while at 2.5 the EDF fill can catch the displaced volume later.
  std::int32_t total_rerates = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioOptions scen;
    scen.num_flows = 24;
    scen.capacity = 2.5;
    scen.arrival_rate = 6.0;
    const Instance instance =
        ScenarioSuite::default_suite().build("fat_tree/poisson", seed, scen);
    OnlineOptions flat = preempt_options(false);
    flat.lookahead_window = 2.0;
    flat.epoch = 0.5;
    OnlineOptions preempt = flat;
    preempt.allow_rerate = true;

    Rng rng_a = solver_rng(instance, "dcfsr");
    const OnlineResult a = online_dcfsr(instance.graph(), instance.flows(),
                                        instance.model(), rng_a, flat);
    Rng rng_b = solver_rng(instance, "dcfsr");
    const OnlineResult b = online_dcfsr(instance.graph(), instance.flows(),
                                        instance.model(), rng_b, preempt);
    EXPECT_GE(b.num_admitted, a.num_admitted) << "seed " << seed;
    total_rerates += b.rerate_commits;
  }
  EXPECT_GE(total_rerates, 1) << "sweep never re-rated; tighten the scenario";
}

TEST(OnlinePreempt, RejectionsLeaveNoStaleWarmStateUnderAudit) {
  // Tight capacity forces rejections through both the joint-rounding
  // leftover path and the fallback loop; audit mode's warm-state sweep
  // then asserts, at every subsequent event, that no rejected or
  // departed flow still owns warm rows or path atoms. The test's
  // assertion is simply that the run completes (DCN_ENSURES aborts on
  // violation) with a meaningfully non-empty rejection set, for both
  // the flat anchor and the re-rating configuration.
  for (const bool allow_rerate : {false, true}) {
    ScenarioOptions scen;
    scen.num_flows = 20;
    scen.capacity = 1.5;
    scen.arrival_rate = 6.0;
    const Instance instance =
        ScenarioSuite::default_suite().build("fat_tree/poisson", 7, scen);
    OnlineOptions options = preempt_options(allow_rerate);
    options.lookahead_window = 1.5;
    options.epoch = 0.5;
    Rng rng = solver_rng(instance, "dcfsr");
    const OnlineResult r = online_dcfsr(instance.graph(), instance.flows(),
                                        instance.model(), rng, options);
    EXPECT_GE(r.num_rejected, 1) << "allow_rerate=" << allow_rerate;
    for (std::size_t i = 0; i < r.admitted.size(); ++i) {
      if (!r.admitted[i]) {
        EXPECT_TRUE(r.schedule.flows[i].segments.empty())
            << "allow_rerate=" << allow_rerate << " flow " << i;
      }
    }
  }
}

TEST(OnlinePreempt, RerateToCompletionSkipsTheEmptyGapCheck) {
  // Hadoop sizes at capacity 3: re-rating can accelerate every in-flight
  // flow (of the loop, or of one source group) to completion before its
  // deadline, so the next departures gap check has no survivor. Both
  // entry points must run through it and keep every admitted deadline.
  ScenarioOptions scen;
  scen.num_flows = 300;
  scen.capacity = 3.0;
  for (const std::uint64_t seed : {2, 4, 6, 8}) {
    const Instance instance =
        ScenarioSuite::default_suite().build("fat_tree/hadoop", seed, scen);
    const SolverOutcome out =
        default_registry().create("online_dcfsr_preempt")->solve(instance);
    EXPECT_TRUE(out.feasible) << "seed " << seed << ": " << out.first_issue;
  }

  // The service as `dcn_run --serve --scenario fat_tree8/hadoop
  // --seed 101 --arrivals 140 --rate 8 --capacity 3 --rerate` runs it.
  const std::string spec = "fat_tree8/hadoop";
  const std::uint64_t seed = 101;
  ScenarioOptions serve;
  serve.arrival_rate = 8.0;
  serve.capacity = 3.0;
  auto [topo, stream_rng] =
      ScenarioSuite::default_suite().build_topology(spec, seed);
  PoissonEventStream stream(
      topo, online_workload_params(serve, SizeModel::kHadoop), stream_rng,
      /*limit=*/140);
  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 12;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  options.lookahead_window = 2.0;
  options.epoch = 0.5;
  options.allow_rerate = true;
  Rng rng(mix_seed(seed, spec + "#" + std::to_string(seed) + "|dcfsr"));
  const OnlineResult r = run_online_stream(
      topo.graph(), stream, serve.power_model(), rng, options,
      ShardPlan::by_source_group(topo, 0), /*workers=*/2, /*flush_every=*/0,
      nullptr);
  EXPECT_EQ(r.num_admitted + r.num_rejected, 140);
  EXPECT_GE(r.rerate_commits, 1);
}

}  // namespace
}  // namespace dcn::engine
