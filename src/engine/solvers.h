// Concrete Solver adapters: every algorithm of the paper behind the
// engine interface.
//
//   mcf        SP routing + Most-Critical-First, circuit-exact (the
//              paper's SP+MCF baseline; optimal DCFS rates, Theorem 1)
//   mcf_paper  SP routing + the paper-literal Algorithm 1 (per-critical-
//              link availability; bench_ablation_circuit's subject)
//   mcf_plain  SP routing + MCF without virtual weights (Theorem 1
//              ablation)
//   dcfsr      Random-Schedule: relaxation + randomized rounding
//              (Algorithm 2; also reports the fractional lower bound)
//   ecmp_mcf   ECMP routing (seeded) + Most-Critical-First
//   greedy     Online greedy energy-aware routing at density rates
//   edf        SP routing + deadline-ordered virtual-circuit packing:
//              each flow grabs the earliest time still free on every
//              link of its path and transmits at the constant rate that
//              exactly fills it — the classic deadline heuristic, no
//              energy awareness
//   exact      Exhaustive path enumeration + MCF rates (tiny instances)
//   online_dcfsr   event-driven rolling horizon: per-arrival admission
//              control + warm-started incremental re-solve of the
//              interval relaxation (src/online)
//   online_greedy  per-arrival marginal-energy routing + density-rate
//              admission with EDF fallback: the greedy placement rule
//              of the same event loop (src/online)
//   oracle_dcfsr   hindsight admission baseline: offline dcfsr over the
//              whole trace with admission control — the denominator of
//              bench_online's empirical competitive ratios (src/online)
//
// The online solvers see the instance as an arrival stream (flows
// revealed at their release times) and may *reject* flows; for them
// `feasible` means every **admitted** flow is replay-validated on the
// admitted subset, and the rejected count travels in the stats.
#pragma once

#include <cstdint>

#include "dcfs/most_critical_first.h"
#include "dcfsr/exact.h"
#include "dcfsr/random_schedule.h"
#include "engine/solver.h"
#include "online/online_scheduler.h"
#include "online/sharded.h"

namespace dcn::engine {

/// Shortest-path routing + Most-Critical-First rate assignment.
class McfSolver final : public Solver {
 public:
  explicit McfSolver(std::string name, DcfsOptions options = {},
                     std::string description =
                         "SP routing + Most-Critical-First (optimal DCFS rates)");

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override { return description_; }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  std::string name_;
  std::string description_;
  DcfsOptions options_;
};

/// Random-Schedule (Algorithm 2): relaxation + randomized rounding.
/// The outcome is byte-identical for any Frank-Wolfe oracle thread
/// count — only the wall-clock differs.
class RandomScheduleSolver final : public Solver {
 public:
  explicit RandomScheduleSolver(RandomScheduleOptions options = {});

  [[nodiscard]] std::string name() const override { return "dcfsr"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  RandomScheduleOptions options_;
};

/// ECMP routing (one of up to `width` equal-cost shortest paths per
/// flow, drawn with the engine's deterministic per-cell rng) + MCF.
class EcmpMcfSolver final : public Solver {
 public:
  explicit EcmpMcfSolver(std::size_t width = 8);

  [[nodiscard]] std::string name() const override { return "ecmp_mcf"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  std::size_t width_;
};

/// Online greedy energy-aware routing; flows transmit at density.
class GreedySolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "greedy"; }
  [[nodiscard]] std::string description() const override {
    return "online greedy energy-aware routing at density rates";
  }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;
};

/// Deadline-ordered virtual-circuit packing on shortest paths: the
/// energy-oblivious EDF baseline. Flows are processed by (deadline, id);
/// each receives the earliest still-free time on all links of its path
/// and the single constant rate that exactly fills that free time. When
/// a flow's span is fully booked on some link it falls back to its span
/// (overlapping is legal in the packet realization, and the replayer
/// charges the superadditive cost honestly) — counted in the stats.
class EdfSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "edf"; }
  [[nodiscard]] std::string description() const override {
    return "SP routing + deadline-ordered circuit packing (no energy awareness)";
  }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;
};

/// Exhaustive DCFSR optimum over candidate paths (tiny instances only;
/// throws ContractViolation when the assignment space exceeds its cap).
class ExactSolver final : public Solver {
 public:
  explicit ExactSolver(ExactDcfsrOptions options = {});

  [[nodiscard]] std::string name() const override { return "exact"; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  ExactDcfsrOptions options_;
};

/// Online rolling horizon with warm-started relaxation re-solves
/// (src/online). The rounding rng is keyed to the "dcfsr" stream on
/// purpose: when every flow of the instance arrives at t = 0 the run
/// degenerates to exactly offline Random-Schedule (the differential
/// test's anchor).
class OnlineDcfsrSolver final : public Solver {
 public:
  /// `name` distinguishes registered option variants (the registry's
  /// "online_dcfsr_flat" and "online_dcfsr_preempt"); the rng stays
  /// keyed to "dcfsr" regardless.
  explicit OnlineDcfsrSolver(OnlineOptions options = {},
                             std::string name = "online_dcfsr");

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override {
    return "online arrivals: admission control + warm-started relaxation "
           "re-solve per arrival";
  }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  OnlineOptions options_;
  std::string name_;
};

/// The sharded always-on scheduling service behind the batch API
/// (src/online/sharded.h): flows partitioned by source edge-group, one
/// long-lived shard worker per group (phase A runs groups in parallel
/// across `workers` lanes), a serial core-link coordinator arbitrating
/// every commit against the one load index in deterministic
/// (event-time, shard-id, flow-id) order. Byte-identical for any shard
/// count >= 2 and any worker count; single-lane plans run as
/// online_dcfsr. The rng is keyed to "dcfsr" like every dcfsr-family
/// solver (the single-lane case then matches online_dcfsr's stream
/// draw for draw).
class OnlineShardedSolver final : public Solver {
 public:
  /// `shards` = requested lane count (0: one lane per source group);
  /// `workers` = phase-A thread cap (0: hardware concurrency).
  explicit OnlineShardedSolver(OnlineOptions options = {},
                               std::int32_t shards = 0,
                               std::int32_t workers = 0,
                               std::string name = "online_dcfsr_sharded");

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override {
    return "sharded online service: per-source-group shard workers + "
           "core-link coordinator (byte-identical at any worker count)";
  }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  OnlineOptions options_;
  std::int32_t shards_;
  std::int32_t workers_;
  std::string name_;
};

/// Hindsight admission oracle: offline dcfsr over the whole trace with
/// admission control (joint rounding, then RCD-ordered per-flow
/// fallback). Shares the "dcfsr" rng stream, so the joint-feasible case
/// is offline Random-Schedule bit for bit; its admitted count and
/// energy are the denominators of bench_online's competitive ratios.
class OracleDcfsrSolver final : public Solver {
 public:
  explicit OracleDcfsrSolver(OnlineOptions options = {});

  [[nodiscard]] std::string name() const override { return "oracle_dcfsr"; }
  [[nodiscard]] std::string description() const override {
    return "hindsight admission oracle: offline dcfsr over the whole trace "
           "with admission control (competitive-ratio baseline)";
  }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;

 private:
  OnlineOptions options_;
};

/// Online greedy admission: marginal-energy routing at density rates
/// with an EDF fallback fill (src/online). Deterministic.
class OnlineGreedySolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "online_greedy"; }
  [[nodiscard]] std::string description() const override {
    return "online arrivals: marginal-energy routing + density admission "
           "with EDF fallback";
  }
  [[nodiscard]] SolverOutcome solve(const Instance& instance) const override;
};

}  // namespace dcn::engine
