// The sharded always-on service's determinism contract, pinned.
//
// The shard decomposition is a function of the topology alone; shard
// and worker counts only pick how many source groups run phase A
// concurrently, and the coordinator commits in (event-time, group-id,
// flow-id) order — so the full OnlineResult (admitted set, schedule,
// every deterministic counter) must be byte-identical for any shard
// count >= 2 and any worker count. Single-lane plans run on the
// single-group plan with the caller's rng, so "1 shard" is online_dcfsr
// byte for byte. On pod-local traffic (flows that never leave their
// source group, one group active at a time) the per-group re-solves
// see exactly the residual the flat loop's global re-solve sees, so the
// *schedule* matches the unsharded one too — the anchor that sharding
// redistributes work without changing decisions.
//
// Also here: the zero-/single-arrival edge cases across every online
// policy entry point (the degenerate traces a long-lived service must
// shrug off), re-rating under the sharded coordinator, and the
// stream-vs-trace equivalence of the service entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/instance.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "online/event_stream.h"
#include "online/online_scheduler.h"
#include "online/shard_plan.h"
#include "online/sharded.h"
#include "sim/replay.h"

namespace dcn::engine {
namespace {

/// The flat-latency configuration every sharded registry entry runs
/// (calibrated Frank-Wolfe budget, 2.0 window, 0.5 epoch).
OnlineOptions FlatOptions() {
  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 12;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  options.lookahead_window = 2.0;
  options.epoch = 0.5;
  return options;
}

/// Full-result equality: every deterministic field of OnlineResult
/// (decision latencies are wall clock and excluded by design).
void ExpectSameResult(const OnlineResult& a, const OnlineResult& b,
                      const std::string& tag) {
  EXPECT_EQ(a.admitted, b.admitted) << tag;
  EXPECT_EQ(a.num_admitted, b.num_admitted) << tag;
  EXPECT_EQ(a.num_rejected, b.num_rejected) << tag;
  EXPECT_EQ(a.num_events, b.num_events) << tag;
  EXPECT_EQ(a.resolves, b.resolves) << tag;
  EXPECT_EQ(a.fw_iterations, b.fw_iterations) << tag;
  EXPECT_EQ(a.rounding_attempts, b.rounding_attempts) << tag;
  EXPECT_EQ(a.batch_fallbacks, b.batch_fallbacks) << tag;
  EXPECT_EQ(a.departure_gap_checks, b.departure_gap_checks) << tag;
  EXPECT_EQ(a.gap_check_iterations, b.gap_check_iterations) << tag;
  EXPECT_EQ(a.first_lower_bound, b.first_lower_bound) << tag;
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight) << tag;
  EXPECT_EQ(a.peak_live_segments, b.peak_live_segments) << tag;
  EXPECT_EQ(a.load_segments_pruned, b.load_segments_pruned) << tag;
  EXPECT_EQ(a.rerate_attempts, b.rerate_attempts) << tag;
  EXPECT_EQ(a.rerate_commits, b.rerate_commits) << tag;
  EXPECT_EQ(a.rerated_flows, b.rerated_flows) << tag;
  ASSERT_EQ(a.schedule.flows.size(), b.schedule.flows.size()) << tag;
  for (std::size_t i = 0; i < a.schedule.flows.size(); ++i) {
    EXPECT_EQ(a.schedule.flows[i].path, b.schedule.flows[i].path)
        << tag << " flow " << i;
    EXPECT_EQ(a.schedule.flows[i].segments, b.schedule.flows[i].segments)
        << tag << " flow " << i;
  }
}

class OnlineShardedTest : public ::testing::Test {
 protected:
  const ScenarioSuite& suite_ = ScenarioSuite::default_suite();
};

TEST_F(OnlineShardedTest, ByteIdenticalForAnyShardAndWorkerCount) {
  // The house rule, over a genuinely contended multi-event trace: the
  // (shards, workers) grid collapses onto one result. shards = 0 is
  // one lane per group; workers vary from serial to oversubscribed.
  for (const std::uint64_t seed : {1, 2}) {
    ScenarioOptions scen;
    scen.num_flows = 20;
    scen.capacity = 3.0;
    scen.arrival_rate = 4.0;
    const Instance instance = suite_.build("fat_tree/poisson", seed, scen);
    const OnlineOptions options = FlatOptions();

    Rng rng0 = solver_rng(instance, "dcfsr");
    const ShardPlan base_plan =
        ShardPlan::by_source_group(instance.topology(), 0);
    ASSERT_GE(base_plan.num_groups(), 2);
    const OnlineResult base =
        online_dcfsr_sharded(instance.graph(), instance.flows(),
                             instance.model(), rng0, options, base_plan,
                             /*workers=*/1);
    EXPECT_GT(base.num_events, 1);

    const struct {
      std::int32_t shards, workers;
    } grid[] = {{2, 1}, {2, 4}, {4, 2}, {8, 4}, {0, 3}};
    for (const auto& [shards, workers] : grid) {
      Rng rng = solver_rng(instance, "dcfsr");
      const ShardPlan plan =
          ShardPlan::by_source_group(instance.topology(), shards);
      const OnlineResult r =
          online_dcfsr_sharded(instance.graph(), instance.flows(),
                               instance.model(), rng, options, plan, workers);
      ExpectSameResult(base, r,
                       "seed " + std::to_string(seed) + " shards " +
                           std::to_string(shards) + " workers " +
                           std::to_string(workers));
    }
  }
}

TEST_F(OnlineShardedTest, SingleLanePlanIsFlatSchedulerByteForByte) {
  // num_shards = 1 runs the single-group plan on the caller's own rng,
  // exactly as online_dcfsr does: literal equality on every
  // property-sweep scenario family.
  for (const char* spec : {"fat_tree/poisson", "leaf_spine/hadoop"}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      ScenarioOptions scen;
      scen.capacity = 3.0;
      const Instance instance = suite_.build(spec, seed, scen);
      const OnlineOptions options = FlatOptions();

      Rng rng_flat = solver_rng(instance, "dcfsr");
      const OnlineResult flat =
          online_dcfsr(instance.graph(), instance.flows(), instance.model(),
                       rng_flat, options);
      Rng rng_sharded = solver_rng(instance, "dcfsr");
      const OnlineResult sharded = online_dcfsr_sharded(
          instance.graph(), instance.flows(), instance.model(), rng_sharded,
          options, ShardPlan::by_source_group(instance.topology(), 1),
          /*workers=*/4);
      ExpectSameResult(flat, sharded,
                       std::string(spec) + " seed " + std::to_string(seed));
    }
  }
}

TEST_F(OnlineShardedTest, PodLocalTrafficMatchesUnshardedAcrossShardGrid) {
  // The satellite grid: traffic that never leaves its source group,
  // groups active in disjoint time windows, one arrival per event, a
  // unique candidate path (same-attachment pairs), ample capacity. Each
  // per-group re-solve then sees exactly the residual problem the flat
  // loop's global re-solve sees, so the *decisions* — admitted set,
  // paths, rate segments — must match the unsharded run for 1, 2, and
  // 4 shards alike (solver-work counters differ by construction: the
  // sharded engine counts per-group solves).
  auto [topo, unused_rng] = suite_.build_topology("fat_tree/poisson", 1);
  const ShardPlan groups = ShardPlan::by_source_group(topo, 0);
  ASSERT_GE(groups.num_groups(), 2);

  // Two hosts per group (fat_tree k=4 attaches 2 hosts per edge
  // switch); groups take turns in disjoint windows, with distinct
  // deadlines throughout (the engine's active-set keying breaks exact
  // deadline ties differently from the flat loop's).
  std::vector<std::vector<NodeId>> hosts_of_group(
      static_cast<std::size_t>(groups.num_groups()));
  for (const NodeId h : topo.hosts()) {
    hosts_of_group[static_cast<std::size_t>(groups.group_of_host(h))]
        .push_back(h);
  }
  std::vector<Flow> flows;
  double t = 0.0;
  for (std::size_t g = 0; g < hosts_of_group.size(); ++g) {
    ASSERT_GE(hosts_of_group[g].size(), 2u) << "group " << g;
    const NodeId a = hosts_of_group[g][0];
    const NodeId b = hosts_of_group[g][1];
    for (int k = 0; k < 3; ++k) {
      Flow fl;
      fl.id = static_cast<FlowId>(flows.size());
      fl.src = k % 2 == 0 ? a : b;
      fl.dst = k % 2 == 0 ? b : a;
      fl.volume = 1.0;
      fl.release = t;
      fl.deadline = t + 1.5 + 0.01 * static_cast<double>(flows.size());
      flows.push_back(fl);
      t += 0.8;  // > epoch: one arrival per event
    }
    t += 4.0;  // drain the group before the next one starts
  }
  const PowerModel model(0.0, 1.0, 2.0, /*capacity=*/4.0);
  const OnlineOptions options = FlatOptions();

  Rng rng_flat(mix_seed(17, "pod-local"));
  const OnlineResult flat =
      online_dcfsr(topo.graph(), flows, model, rng_flat, options);
  EXPECT_EQ(flat.num_admitted, static_cast<std::int32_t>(flows.size()));

  for (const std::int32_t shards : {1, 2, 4}) {
    Rng rng(mix_seed(17, "pod-local"));
    const OnlineResult r = online_dcfsr_sharded(
        topo.graph(), flows, model, rng, options,
        ShardPlan::by_source_group(topo, shards), /*workers=*/2);
    const std::string tag = "shards " + std::to_string(shards);
    EXPECT_EQ(flat.admitted, r.admitted) << tag;
    EXPECT_EQ(flat.num_admitted, r.num_admitted) << tag;
    EXPECT_EQ(flat.num_rejected, r.num_rejected) << tag;
    ASSERT_EQ(flat.schedule.flows.size(), r.schedule.flows.size()) << tag;
    for (std::size_t i = 0; i < flat.schedule.flows.size(); ++i) {
      EXPECT_EQ(flat.schedule.flows[i].path, r.schedule.flows[i].path)
          << tag << " flow " << i;
      EXPECT_EQ(flat.schedule.flows[i].segments, r.schedule.flows[i].segments)
          << tag << " flow " << i;
    }
  }
}

TEST_F(OnlineShardedTest, ZeroAndSingleArrivalAcrossAllPolicies) {
  // The degenerate traces of a long-lived service. Zero arrivals: every
  // policy returns the empty result without touching its rng-dependent
  // paths. One arrival with ample capacity: every policy admits it onto
  // a non-empty path with serving segments.
  auto [topo, unused_rng] = suite_.build_topology("fat_tree/poisson", 1);
  const PowerModel model(0.0, 1.0, 2.0, /*capacity=*/8.0);
  const ShardPlan plan = ShardPlan::by_source_group(topo, 0);
  const std::vector<Flow> empty;
  Flow fl;
  fl.id = 0;
  fl.src = topo.hosts().front();
  fl.dst = topo.hosts().back();
  fl.volume = 1.0;
  fl.release = 0.5;
  fl.deadline = 2.5;
  const std::vector<Flow> single{fl};

  const auto run = [&](const char* policy,
                       const std::vector<Flow>& flows) -> OnlineResult {
    Rng rng(mix_seed(3, "edge-cases"));
    const std::string name(policy);
    if (name == "online_greedy") {
      return online_greedy(topo.graph(), flows, model);
    }
    if (name == "oracle_dcfsr") {
      return oracle_dcfsr(topo.graph(), flows, model, rng);
    }
    if (name == "online_dcfsr_sharded") {
      return online_dcfsr_sharded(topo.graph(), flows, model, rng,
                                  FlatOptions(), plan, /*workers=*/2);
    }
    OnlineOptions options = FlatOptions();
    if (name == "online_dcfsr") options = OnlineOptions{};
    if (name == "online_dcfsr_preempt") options.allow_rerate = true;
    return online_dcfsr(topo.graph(), flows, model, rng, options);
  };

  for (const char* policy :
       {"online_dcfsr", "online_dcfsr_flat", "online_dcfsr_preempt",
        "online_dcfsr_sharded", "online_greedy", "oracle_dcfsr"}) {
    const OnlineResult zero = run(policy, empty);
    EXPECT_EQ(zero.num_admitted, 0) << policy;
    EXPECT_EQ(zero.num_rejected, 0) << policy;
    EXPECT_EQ(zero.num_events, 0) << policy;
    EXPECT_TRUE(zero.schedule.flows.empty()) << policy;
    EXPECT_TRUE(zero.admitted.empty()) << policy;

    const OnlineResult one = run(policy, single);
    ASSERT_EQ(one.schedule.flows.size(), 1u) << policy;
    ASSERT_EQ(one.admitted.size(), 1u) << policy;
    EXPECT_TRUE(one.admitted[0]) << policy;
    EXPECT_EQ(one.num_admitted, 1) << policy;
    EXPECT_EQ(one.num_rejected, 0) << policy;
    EXPECT_FALSE(one.schedule.flows[0].path.empty()) << policy;
    EXPECT_FALSE(one.schedule.flows[0].segments.empty()) << policy;
  }
}

TEST_F(OnlineShardedTest, StreamedServiceMatchesBatchSolver) {
  // run_online_stream pulling from a PoissonEventStream must reproduce
  // the batch solver on the materialized instance: build_topology hands
  // back the scenario rng mid-stream, online_workload_params rebuilds
  // the generator knobs, and the service draws from the same
  // "<spec>#<seed>|dcfsr" stream the engine would — so the trace, the
  // decisions, and every deterministic counter coincide.
  const std::string spec = "fat_tree/poisson";
  const std::uint64_t seed = 5;
  ScenarioOptions scen;
  scen.num_flows = 30;
  scen.capacity = 3.0;
  scen.arrival_rate = 4.0;
  const OnlineOptions options = FlatOptions();

  const Instance instance = suite_.build(spec, seed, scen);
  Rng rng_batch = solver_rng(instance, "dcfsr");
  const OnlineResult batch = online_dcfsr_sharded(
      instance.graph(), instance.flows(), instance.model(), rng_batch,
      options, ShardPlan::by_source_group(instance.topology(), 0),
      /*workers=*/2);

  auto [topo, scenario_rng] = suite_.build_topology(spec, seed);
  PoissonEventStream stream(topo,
                            online_workload_params(scen, SizeModel::kFixed),
                            scenario_rng, scen.num_flows);
  Rng rng_stream(mix_seed(seed, spec + "#" + std::to_string(seed) + "|dcfsr"));
  const OnlineResult streamed = run_online_stream(
      topo.graph(), stream, instance.model(), rng_stream, options,
      ShardPlan::by_source_group(topo, 0), /*workers=*/2, /*flush_every=*/0,
      nullptr, /*discard_completed=*/false);

  // Poisson releases are non-decreasing by construction, so the batch
  // API's caller-order rows coincide with the stream's feed order.
  ExpectSameResult(batch, streamed, "stream vs batch");
}

TEST_F(OnlineShardedTest, RerateUnderShardingStaysReplayFeasible) {
  // allow_rerate under the sharded coordinator with the audit shadow on,
  // so every index probe and every re-rate EDF fill is cross-checked
  // against the naive replay: whatever the re-rate pass reshapes, the
  // admitted subset must replay cleanly. Two regimes: the capacity
  // cliff on fixed poisson sizes, and heavy-tailed hadoop sizes, where
  // re-rating can accelerate all of a group's in-flight flows to
  // completion, leaving the next departures gap check no survivor.
  const struct {
    const char* spec;
    std::int32_t num_flows;
    double arrival_rate, capacity;
    std::vector<std::uint64_t> seeds;
  } cases[] = {{"fat_tree/poisson", 24, 6.0, 2.5, {1, 2, 3, 4}},
               {"fat_tree/hadoop", 120, 4.0, 3.0, {6, 8}}};
  for (const auto& c : cases) {
    std::int64_t total_attempts = 0;
    for (const std::uint64_t seed : c.seeds) {
      ScenarioOptions scen;
      scen.num_flows = c.num_flows;
      scen.capacity = c.capacity;
      scen.arrival_rate = c.arrival_rate;
      const Instance instance = suite_.build(c.spec, seed, scen);
      OnlineOptions options = FlatOptions();
      options.allow_rerate = true;
      options.audit_load_index = true;

      Rng rng = solver_rng(instance, "dcfsr");
      const OnlineResult r = online_dcfsr_sharded(
          instance.graph(), instance.flows(), instance.model(), rng, options,
          ShardPlan::by_source_group(instance.topology(), 0), /*workers=*/2);
      const std::string tag = std::string(c.spec) + " seed " +
                              std::to_string(seed);
      total_attempts += r.rerate_attempts;
      ASSERT_GE(r.num_admitted, 1) << tag;
      const auto [sub_flows, sub_schedule] =
          admitted_subset(instance.flows(), r.schedule, r.admitted);
      const ReplayReport replay = replay_schedule(
          instance.graph(), sub_flows, sub_schedule, instance.model());
      EXPECT_TRUE(replay.ok)
          << tag << ": " << (replay.issues.empty() ? "" : replay.issues[0]);
    }
    EXPECT_GE(total_attempts, 1)
        << c.spec << ": sweep never attempted a re-rate; tighten the scenario";
  }
}

}  // namespace
}  // namespace dcn::engine
