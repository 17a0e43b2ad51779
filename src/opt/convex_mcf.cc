#include "opt/convex_mcf.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/contracts.h"
#include "graph/path.h"
#include "opt/line_search.h"

namespace dcn {

namespace {

// dcn-lint: allow(wall-clock) timing capture: phase wall clocks feed FrankWolfeStats only — surfaced by the benches, excluded from canonical output
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  // dcn-lint: allow(wall-clock) timing capture: the single clock read behind every FrankWolfeStats phase timer
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds `delta` mass to the active-set atom carrying exactly `edges`,
/// appending a new atom when the path is not active yet. All step
/// rules funnel their target-path bookkeeping through here so the
/// active-set semantics cannot diverge between them.
void merge_into_atoms(AtomSet& atoms, const std::vector<EdgeId>& edges,
                      double delta) {
  for (PathAtom& atom : atoms) {
    if (atom.edges == edges) {
      atom.weight += delta;
      return;
    }
  }
  atoms.push_back({edges, delta});
}

/// The node a source's oracle sweep is rooted at. A leaf source's sole
/// neighbor stands in: every path out of the leaf starts with one of
/// its (parallel) edges into that neighbor, so the neighbor's
/// shortest-path tree plus the cheapest entry edge IS the leaf's
/// oracle — and, decisively, every leaf attached to the same switch
/// shares that tree, so grouping by root collapses all same-switch
/// sources into one sweep per iteration (in a fat-tree, hosts
/// outnumber edge switches ~4:1). Non-leaf sources root their own
/// sweep.
NodeId sweep_root(const Graph& g, NodeId src) {
  if (!g.is_leaf(src)) return src;
  const std::span<const EdgeId> out = g.out_edges(src);
  if (out.empty()) return src;
  return g.edge(out.front()).dst;
}

/// Sorts (sweep root, commodity) pairs so commodities sharing a root
/// form a contiguous run; the index tie-break keeps the order
/// deterministic.
void group_by_sweep_root(const Graph& g,
                         const std::vector<Commodity>& commodities,
                         std::vector<std::pair<NodeId, std::size_t>>& by_root) {
  by_root.clear();
  by_root.reserve(commodities.size());
  for (std::size_t c = 0; c < commodities.size(); ++c) {
    by_root.emplace_back(sweep_root(g, commodities[c].src), c);
  }
  std::sort(by_root.begin(), by_root.end());
}

/// One vectorizable pass over the whole weights array:
/// w[i] = max(env'(x[i]), kMinEdgeWeight). The per-alpha loops keep the
/// body branch-light — one select for the envelope kink, no calls — so
/// the compiler can vectorize them; results are bit-identical to the
/// scalar env.derivative() path (same operation order). Entries with
/// x[i] == 0 come out as exactly max(env_slope, kMinEdgeWeight) ==
/// w_zero, which is what preserves the workspace's clean-weights
/// invariant for off-support edges.
void dense_reprice(std::vector<double>& weights, const std::vector<double>& x,
                   const EnvelopeCostSpec& env) {
  const std::size_t n = x.size();
  const double r_hat = env.r_hat;
  const double slope = env.env_slope;
  if (env.alpha == 2.0) {
    const double ma = env.mu * env.alpha;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[i];
      const double d = xi <= r_hat ? slope : ma * xi;
      weights[i] = std::max(d, kMinEdgeWeight);
    }
  } else if (env.alpha == 3.0) {
    const double ma = env.mu * env.alpha;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[i];
      const double d = xi <= r_hat ? slope : ma * (xi * xi);
      weights[i] = std::max(d, kMinEdgeWeight);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = std::max(env.derivative(x[i]), kMinEdgeWeight);
    }
  }
}

}  // namespace

ConvexMcfSolution solve_convex_mcf(const ConvexMcfProblem& problem,
                                   const FrankWolfeOptions& options,
                                   std::vector<SparseEdgeFlow> warm_start,
                                   ConvexMcfWorkspace* workspace,
                                   std::vector<AtomSet> warm_atoms) {
  DCN_EXPECTS(problem.graph != nullptr);
  const Graph& g = *problem.graph;
  const auto num_edges = static_cast<std::size_t>(g.num_edges());
  const std::size_t num_commodities = problem.commodities.size();
  for (const Commodity& com : problem.commodities) {
    DCN_EXPECTS(g.valid_node(com.src));
    DCN_EXPECTS(g.valid_node(com.dst));
    DCN_EXPECTS(com.src != com.dst);
    DCN_EXPECTS(com.demand > 0.0);
  }

  ConvexMcfSolution sol;
  sol.total_flow.assign(num_edges, 0.0);
  if (num_commodities == 0) return sol;

  ConvexMcfWorkspace local_ws;
  ConvexMcfWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  FrankWolfeStats stats;

  // A local copy keeps the hot loops' cost arithmetic in registers.
  const EnvelopeCostSpec env = problem.cost;

  // Restore the workspace invariants (weights all w_zero, target flow
  // all zero) when the graph, the cost model, or an interrupted prior
  // solve invalidated them.
  const double w_zero = std::max(env.derivative(0.0), kMinEdgeWeight);
  if (ws.weights_.size() != num_edges || ws.w_zero_ != w_zero || !ws.clean_) {
    ws.weights_.assign(num_edges, w_zero);
    ws.target_total_.assign(num_edges, 0.0);
    ws.w_zero_ = w_zero;
  }
  if (ws.x_mark_.size() != num_edges) {
    ws.x_mark_.assign(num_edges, 0);
    ws.y_mark_.assign(num_edges, 0);
    ws.x_generation_ = 0;
    ws.y_generation_ = 0;
  }
  // The pairwise rule keeps per-commodity active sets of path atoms;
  // kClassic never touches them.
  const bool atomic = options.step_rule == FrankWolfeStepRule::kPairwise;
  if (atomic && ws.dir_mark_.size() != num_edges) {
    ws.direction_.assign(num_edges, 0.0);
    ws.dir_mark_.assign(num_edges, 0);
    ws.dir_generation_ = 0;
  }
  ws.clean_ = false;

  ++ws.x_generation_;
  ws.x_support_.clear();
  auto touch_x = [&ws](EdgeId e) {
    const auto i = static_cast<std::size_t>(e);
    if (ws.x_mark_[i] != ws.x_generation_) {
      ws.x_mark_[i] = ws.x_generation_;
      ws.x_support_.push_back(e);
    }
  };

  const CsrAdjacency& csr = ws.adjacency(g);
  group_by_sweep_root(g, problem.commodities, ws.by_source_);
  ws.group_bounds_.clear();
  if (options.batch_oracle) {
    // One sweep group per distinct sweep root: a single multi-target
    // Dijkstra serves every commodity whose source shares that root —
    // same-source commodities, and leaf sources hanging off the same
    // switch.
    for (std::size_t lo = 0; lo < ws.by_source_.size();) {
      std::size_t hi = lo;
      while (hi < ws.by_source_.size() &&
             ws.by_source_[hi].first == ws.by_source_[lo].first) {
        ++hi;
      }
      ws.group_bounds_.emplace_back(lo, hi);
      lo = hi;
    }
  } else {
    // A/B hook: one single-target sweep per commodity, rooted at the
    // same stand-in as the batched grouping. Byte-identical paths —
    // the multi-target early exit never disturbs the parents of
    // settled nodes — at strictly more sweeps.
    for (std::size_t i = 0; i < ws.by_source_.size(); ++i) {
      ws.group_bounds_.emplace_back(i, i + 1);
    }
  }

  // Resolve the oracle width: > 0 pins it, 0 (the default) adapts to
  // min(hardware concurrency, #sweep groups) — more workers than
  // groups can never help, and a single-core host resolves to 1 and
  // skips the pool (and its dispatch overhead) entirely — and < 0
  // forces sequential. Under the adaptive default a reused workspace
  // keeps the widest pool it has needed (idle workers just park on the
  // condition variable), so re-solves with varying group counts never
  // re-spawn threads; an explicit width still pins the pool exactly.
  std::size_t requested_threads = 1;
  if (options.oracle_threads > 0) {
    requested_threads = static_cast<std::size_t>(options.oracle_threads);
  } else if (options.oracle_threads == 0) {
    // Read once per process: on Linux each call is a sysfs read.
    static const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    requested_threads = std::min<std::size_t>(
        hardware, std::max<std::size_t>(1, ws.group_bounds_.size()));
  }
  if (requested_threads > 1) {
    const bool rebuild =
        ws.pool_ == nullptr ||
        (options.oracle_threads > 0
             ? ws.pool_->threads() != requested_threads
             : ws.pool_->threads() < requested_threads);
    if (rebuild) ws.pool_ = std::make_unique<WorkerPool>(requested_threads);
  }
  WorkerPool* pool = requested_threads > 1 ? ws.pool_.get() : nullptr;
  if (pool != nullptr) {
    ws.worker_dijkstra_.resize(pool->threads());
    ws.worker_targets_.resize(pool->threads());
  }

  // One early-exit Dijkstra per sweep group; paths land in
  // ws.target_paths_ indexed by commodity. Each group writes a
  // disjoint slice, so the parallel dispatch is byte-deterministic.
  auto solve_group = [&](const std::vector<double>& weights, std::size_t group,
                         DijkstraWorkspace& dijkstra,
                         std::vector<NodeId>& targets) {
    const auto [lo, hi] = ws.group_bounds_[group];
    const NodeId root = ws.by_source_[lo].first;
    targets.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      targets.push_back(problem.commodities[ws.by_source_[i].second].dst);
    }
    dijkstra_sweep(csr, root, weights, targets, dijkstra);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t c = ws.by_source_[i].second;
      const Commodity& com = problem.commodities[c];
      Path& path = ws.target_paths_[c];
      const bool reached = workspace_path_into(g, dijkstra, root, com.dst, path);
      DCN_ENSURES(reached);
      if (com.src == root) continue;
      // Leaf source standing in behind its neighbor: enter through the
      // cheapest of its parallel edges into the root, chosen by the
      // same first-strict-improvement rule the sweep applies when
      // relaxing out of a source.
      const std::span<const EdgeId> out = g.out_edges(com.src);
      EdgeId entry = out.front();
      double entry_w = weights[static_cast<std::size_t>(entry)];
      for (std::size_t k = 1; k < out.size(); ++k) {
        const double w = weights[static_cast<std::size_t>(out[k])];
        if (w < entry_w) {
          entry_w = w;
          entry = out[k];
        }
      }
      path.src = com.src;
      path.edges.insert(path.edges.begin(), entry);
    }
  };
  auto cheapest_paths = [&](const std::vector<double>& weights) {
    const auto t0 = Clock::now();
    ws.target_paths_.resize(num_commodities);
    if (pool != nullptr && ws.group_bounds_.size() > 1) {
      pool->run(ws.group_bounds_.size(),
                [&](std::size_t group, std::size_t worker) {
                  solve_group(weights, group, ws.worker_dijkstra_[worker],
                              ws.worker_targets_[worker]);
                });
    } else {
      for (std::size_t group = 0; group < ws.group_bounds_.size(); ++group) {
        solve_group(weights, group, ws.dijkstra_, ws.group_targets_);
      }
    }
    stats.oracle_sweeps += static_cast<std::int64_t>(ws.group_bounds_.size());
    stats.oracle_seconds += seconds_since(t0);
  };

  // Initial point: warm start when shapes match (the rows move in and
  // lose their dust entries in place), otherwise route every commodity
  // on its cheapest path under the empty-network marginal cost — which
  // is exactly the clean workspace weights vector. Commodities with a
  // carried active set (pairwise only) skip the row: it is rebuilt
  // from the atoms below, so the atom representation and the edge flow
  // agree to the last bit.
  const bool atoms_carried = atomic && warm_atoms.size() == num_commodities;
  auto has_carried_atoms = [&](std::size_t c) {
    if (!atoms_carried) return false;
    for (const PathAtom& atom : warm_atoms[c]) {
      if (atom.weight > 1e-12) return true;
    }
    return false;
  };
  std::vector<SparseEdgeFlow>& rows = sol.commodity_flow;
  SparseRowIndex& row_index = ws.row_index_;
  const bool warm_rows = warm_start.size() == num_commodities;
  if (warm_rows) {
    rows = std::move(warm_start);
    for (std::size_t c = 0; c < num_commodities; ++c) {
      if (has_carried_atoms(c)) continue;
      for (const auto& [e, v] : rows[c]) DCN_EXPECTS(g.valid_edge(e));
      std::erase_if(rows[c], [](const auto& kv) { return !(kv.second > 1e-15); });
    }
  } else {
    rows.assign(num_commodities, {});
    cheapest_paths(ws.weights_);
    for (std::size_t c = 0; c < num_commodities; ++c) {
      row_index.bind(rows[c], num_edges);
      for (EdgeId e : ws.target_paths_[c].edges) {
        row_index.add(e, problem.commodities[c].demand);
      }
    }
  }

  // Atom rules: seed each commodity's active set. A carried set
  // (warm_atoms) is adopted directly — dust atoms dropped, the row
  // rebuilt as the atoms' edge-sum — skipping the decomposition below.
  // Otherwise a warm row is a convex combination of paths (the solver's
  // own output shape), so the Raghavan-Tompson extraction recovers its
  // atoms; the row is then rebuilt from the atoms so the atom
  // representation and the edge flow agree to the last bit (the
  // extraction discards residual float dust). Cold rows are a single
  // cheapest-path atom already. An empty row leaves an empty active
  // set, and that commodity simply rides the classic fallback steps.
  std::vector<AtomSet>& atoms = ws.atoms_;
  if (atomic) {
    atoms.assign(num_commodities, {});
    for (std::size_t c = 0; c < num_commodities; ++c) {
      if (has_carried_atoms(c)) {
        // The carried atoms define the commodity's initial point: drop
        // whatever the row holds (the warm row, or the cold-start path
        // when warm_start was absent) so the rebuild below cannot stack
        // on top of it.
        rows[c].clear();
        atoms[c] = std::move(warm_atoms[c]);
        std::erase_if(atoms[c],
                      [](const PathAtom& atom) { return atom.weight <= 1e-12; });
        row_index.bind(rows[c], num_edges);
        for (const PathAtom& atom : atoms[c]) {
          for (const EdgeId e : atom.edges) {
            DCN_EXPECTS(g.valid_edge(e));
            row_index.add(e, atom.weight);
          }
        }
        std::sort(rows[c].begin(), rows[c].end());
        continue;
      }
      if (rows[c].empty()) continue;
      const Commodity& com = problem.commodities[c];
      if (warm_rows) {
        const std::vector<WeightedPath> paths =
            decompose_flow_sparse(g, com.src, com.dst, rows[c], com.demand,
                                  &ws.atom_seed_);
        atoms[c].reserve(paths.size());
        rows[c].clear();
        row_index.bind(rows[c], num_edges);
        for (const WeightedPath& wp : paths) {
          const double mass = wp.weight * com.demand;
          atoms[c].push_back({wp.path.edges, mass});
          for (const EdgeId e : wp.path.edges) row_index.add(e, mass);
        }
        std::sort(rows[c].begin(), rows[c].end());
      } else {
        atoms[c].push_back({ws.target_paths_[c].edges, com.demand});
      }
    }
  }

  for (std::size_t c = 0; c < num_commodities; ++c) {
    for (const auto& [e, v] : rows[c]) {
      sol.total_flow[static_cast<std::size_t>(e)] += v;
      touch_x(e);
    }
  }
  std::sort(ws.x_support_.begin(), ws.x_support_.end());

  auto& x = sol.total_flow;
  auto& y = ws.target_total_;

  // The cost handed to the directional line searches, plus the
  // per-evaluation counter. A concrete lambda: the templated
  // golden-section search inlines it, so the whole evaluation is
  // straight-line arithmetic — this is the single hottest call site of
  // a cold solve.
  const auto search_cost = [&](double v) {
    ++stats.line_search_evals;
    return env.value(v);
  };

  for (std::int32_t iter = 0; iter < options.max_iterations; ++iter) {
    sol.iterations = iter + 1;

    // Reprice the marginal costs: dense over the whole weights array
    // when the support covers enough of it (the per-alpha loops
    // vectorize, and off-support entries recompute exactly w_zero, so
    // the clean-weights invariant survives), sparse over the sorted
    // support otherwise. Both write bit-identical weights.
    {
      const auto t0 = Clock::now();
      if (ws.x_support_.size() * 4 >= num_edges) {
        dense_reprice(ws.weights_, x, env);
        stats.edges_repriced += static_cast<std::int64_t>(num_edges);
      } else {
        for (const EdgeId e : ws.x_support_) {
          const auto i = static_cast<std::size_t>(e);
          ws.weights_[i] = std::max(env.derivative(x[i]), kMinEdgeWeight);
        }
        stats.edges_repriced +=
            static_cast<std::int64_t>(ws.x_support_.size());
      }
      stats.reprice_seconds += seconds_since(t0);
    }

    // Current objective in one pass over the sorted support (iterating
    // it reproduces a dense ascending-edge scan exactly, since
    // zero-flow edges contribute exactly 0 to the objective).
    double current_cost = 0.0;
    for (const EdgeId e : ws.x_support_) {
      const double xe = x[static_cast<std::size_t>(e)];
      if (xe > 1e-15) current_cost += env.value(xe);
    }

    // Linearized subproblem: one cheapest path per commodity.
    cheapest_paths(ws.weights_);
    ++ws.y_generation_;
    ws.y_support_.clear();
    for (std::size_t c = 0; c < num_commodities; ++c) {
      for (EdgeId e : ws.target_paths_[c].edges) {
        const auto i = static_cast<std::size_t>(e);
        if (ws.y_mark_[i] != ws.y_generation_) {
          ws.y_mark_[i] = ws.y_generation_;
          ws.y_support_.push_back(e);
          y[i] = 0.0;
        }
        y[i] += problem.commodities[c].demand;
      }
    }
    std::sort(ws.y_support_.begin(), ws.y_support_.end());

    // Frank-Wolfe gap grad . (x - y) >= cost(x) - cost(opt), plus the
    // line-search restriction cost(t) = constant + sum over edges where
    // x and y differ, both accumulated in one ascending merge over the
    // two supports (off-support edges contribute exactly 0 to the gap
    // and a constant 0 to the restriction).
    double gap = 0.0;
    double line_constant = 0.0;
    ws.line_search_diff_.clear();
    {
      const auto& xs = ws.x_support_;
      const auto& ys = ws.y_support_;
      std::size_t i = 0, j = 0;
      while (i < xs.size() || j < ys.size()) {
        EdgeId e;
        if (j >= ys.size() || (i < xs.size() && xs[i] < ys[j])) {
          e = xs[i++];
        } else if (i >= xs.size() || ys[j] < xs[i]) {
          e = ys[j++];
        } else {
          e = xs[i];
          ++i;
          ++j;
        }
        const auto idx = static_cast<std::size_t>(e);
        const double xe = x[idx];
        const double ye = ws.y_mark_[idx] == ws.y_generation_ ? y[idx] : 0.0;
        gap += ws.weights_[idx] * (xe - ye);
        if (xe != ye) {
          ws.line_search_diff_.emplace_back(xe, ye);
        } else if (xe > 1e-15) {
          line_constant += env.value(xe);
        }
      }
    }
    sol.cost = current_cost;
    // Clamp: float noise can make the gap marginally negative at
    // convergence; a zero-cost instance reports a zero gap.
    sol.relative_gap = current_cost > 0.0 ? std::max(0.0, gap / current_cost) : 0.0;
    auto clear_targets = [&]() {
      for (const EdgeId e : ws.y_support_) y[static_cast<std::size_t>(e)] = 0.0;
    };
    if (sol.relative_gap <= options.gap_tolerance) {
      clear_targets();
      break;
    }

    // Atom sweep: one block-coordinate pass over the commodities. Each
    // commodity picks the worst active atom under the current marginal
    // costs as its away vertex and shifts mass from it onto the cheapest
    // path. Every sub-step runs its own exact line search over the
    // direction's edge difference, and marginal costs are refreshed on the
    // touched edges after every sub-step, so later commodities in the sweep
    // see the moved mass and the sweep decreases the objective
    // monotonically — which is what lets misplaced warm mass leave in a
    // handful of steps while well-placed commodities sit the sweep out
    // (exactly what the classic joint step cannot do).
    bool stepped = false;
    if (atomic) {
      auto path_cost = [&ws](const std::vector<EdgeId>& edges) {
        double total = 0.0;
        for (const EdgeId e : edges) {
          total += ws.weights_[static_cast<std::size_t>(e)];
        }
        return total;
      };
      auto touch_dir = [&ws](EdgeId e, double delta) {
        const auto i = static_cast<std::size_t>(e);
        if (ws.dir_mark_[i] != ws.dir_generation_) {
          ws.dir_mark_[i] = ws.dir_generation_;
          ws.direction_[i] = 0.0;
          ws.dir_support_.push_back(e);
        }
        ws.direction_[i] += delta;
      };
      // Collects the direction's nonzero edge difference; empty when
      // the two sides cancelled exactly.
      auto collect_dir_diff = [&]() {
        std::sort(ws.dir_support_.begin(), ws.dir_support_.end());
        ws.dir_diff_.clear();
        for (const EdgeId e : ws.dir_support_) {
          const auto i = static_cast<std::size_t>(e);
          if (ws.direction_[i] != 0.0) {
            ws.dir_diff_.emplace_back(x[i], ws.direction_[i]);
          }
        }
        return !ws.dir_diff_.empty();
      };
      // Applies t along the built direction to the dense point and
      // refreshes the touched marginal costs so the rest of the sweep
      // prices the moved mass.
      auto apply_direction = [&](double t) {
        for (const EdgeId e : ws.dir_support_) {
          const auto i = static_cast<std::size_t>(e);
          if (ws.direction_[i] == 0.0) continue;
          x[i] = std::max(0.0, x[i] + t * ws.direction_[i]);
          ws.weights_[i] = std::max(env.derivative(x[i]), kMinEdgeWeight);
          ++stats.edges_repriced;
          touch_x(e);
        }
      };
      auto minimize_direction = [&]() {
        const auto t0 = Clock::now();
        const double t =
            golden_section_minimize_direction(search_cost, ws.dir_diff_, 1.0);
        stats.line_search_seconds += seconds_since(t0);
        return t;
      };

      const auto old_support = static_cast<std::ptrdiff_t>(ws.x_support_.size());
      for (std::size_t c = 0; c < num_commodities; ++c) {
        if (atoms[c].empty()) continue;
        double worst = -1.0;
        std::size_t away = 0;
        for (std::size_t a = 0; a < atoms[c].size(); ++a) {
          const double cost_a = path_cost(atoms[c][a].edges);
          if (cost_a > worst) {
            worst = cost_a;
            away = a;
          }
        }
        const double cheapest = path_cost(ws.target_paths_[c].edges);
        if (worst <= cheapest) continue;  // this block is already optimal

        // The commodity's pairwise direction: its full away mass moves
        // to the cheapest path; edges shared by both cancel.
        ++ws.dir_generation_;
        ws.dir_support_.clear();
        const double mass = atoms[c][away].weight;
        for (const EdgeId e : ws.target_paths_[c].edges) touch_dir(e, mass);
        for (const EdgeId e : atoms[c][away].edges) touch_dir(e, -mass);
        if (!collect_dir_diff()) continue;
        const double t = minimize_direction();
        if (t <= 1e-12) continue;

        const double delta = t * mass;
        row_index.bind(rows[c], num_edges);
        for (const EdgeId e : ws.target_paths_[c].edges) {
          row_index.add(e, delta);
        }
        for (const EdgeId e : atoms[c][away].edges) row_index.add(e, -delta);
        // Compact near-zero entries occasionally to bound the support.
        if (rows[c].size() > 256) {
          std::erase_if(rows[c],
                        [](const auto& kv) { return kv.second < 1e-12; });
        }
        // Merge the mass into the cheapest path's atom, then shrink — or
        // on a drop step, remove — the away atom.
        merge_into_atoms(atoms[c], ws.target_paths_[c].edges, delta);
        if (t == 1.0) {
          atoms[c].erase(atoms[c].begin() + static_cast<std::ptrdiff_t>(away));
        } else {
          atoms[c][away].weight -= delta;
        }
        apply_direction(t);
        stepped = true;
      }
      // Edges the sweep newly touched were appended per sub-step; one
      // sort of the tail plus an in-place merge restores the sorted
      // support for the next iteration's cost scan.
      if (static_cast<std::ptrdiff_t>(ws.x_support_.size()) > old_support) {
        std::sort(ws.x_support_.begin() + old_support, ws.x_support_.end());
        std::inplace_merge(ws.x_support_.begin(),
                           ws.x_support_.begin() + old_support,
                           ws.x_support_.end());
      }
    }

    // Classic step: one joint convex combination toward the
    // all-cheapest-paths corner. The only step under kClassic; under
    // kPairwise the fallback when no commodity offers a direction
    // (empty active sets on cold rows) or every line search stalled.
    if (!stepped) {
      // Step size by golden section on the convex restriction,
      // evaluated only where x and y differ.
      const auto ls0 = Clock::now();
      const double gamma = golden_section_minimize(
          [&](double t) {
            double c = line_constant;
            for (const auto& [xe, ye] : ws.line_search_diff_) {
              const double v = (1.0 - t) * xe + t * ye;
              if (v > 1e-15) {
                ++stats.line_search_evals;
                c += env.value(v);
              }
            }
            return c;
          },
          0.0, 1.0, 1e-6);
      stats.line_search_seconds += seconds_since(ls0);
      if (gamma <= 1e-12) {  // no further progress possible
        clear_targets();
        break;
      }

      // Sparse mix: y_c <- (1-gamma) y_c + gamma * demand_c * path_c.
      for (std::size_t c = 0; c < num_commodities; ++c) {
        for (auto& [e, v] : rows[c]) v *= (1.0 - gamma);
        row_index.bind(rows[c], num_edges);
        for (EdgeId e : ws.target_paths_[c].edges) {
          row_index.add(e, gamma * problem.commodities[c].demand);
        }
        // Compact near-zero entries occasionally to bound the support.
        if (rows[c].size() > 256) {
          std::erase_if(rows[c], [](const auto& kv) { return kv.second < 1e-12; });
        }
      }
      // Dense mix over the union support only: untouched edges stay an
      // exact 0 = (1-gamma)*0 + gamma*0.
      for (const EdgeId e : ws.x_support_) {
        const auto i = static_cast<std::size_t>(e);
        const double ye = ws.y_mark_[i] == ws.y_generation_ ? y[i] : 0.0;
        x[i] = (1.0 - gamma) * x[i] + gamma * ye;
      }
      // New support edges arrive in ascending order (y_support_ is
      // sorted), so one in-place merge keeps x_support_ sorted.
      const auto old_support = static_cast<std::ptrdiff_t>(ws.x_support_.size());
      for (const EdgeId e : ws.y_support_) {
        const auto i = static_cast<std::size_t>(e);
        if (ws.x_mark_[i] != ws.x_generation_) {
          x[i] = gamma * y[i];
          touch_x(e);
        }
      }
      if (static_cast<std::ptrdiff_t>(ws.x_support_.size()) > old_support) {
        std::inplace_merge(ws.x_support_.begin(),
                           ws.x_support_.begin() + old_support,
                           ws.x_support_.end());
      }
      // A classic step is itself an active-set operation — scale every
      // atom by (1 - gamma), then add gamma * demand on the cheapest
      // path — so the atom representation survives the fallback and a
      // commodity that started with no atoms (empty warm row) acquires
      // its first one here.
      if (atomic) {
        for (std::size_t c = 0; c < num_commodities; ++c) {
          for (auto& atom : atoms[c]) atom.weight *= (1.0 - gamma);
          merge_into_atoms(atoms[c], ws.target_paths_[c].edges,
                           gamma * problem.commodities[c].demand);
        }
      }
    }
    clear_targets();
  }

  // Final objective over the support (ascending, matching a dense scan).
  sol.cost = 0.0;
  for (const EdgeId e : ws.x_support_) {
    const double xe = x[static_cast<std::size_t>(e)];
    if (xe > 1e-15) sol.cost += env.value(xe);
  }

  // Canonicalize the per-commodity rows for the caller: drop float
  // dust, sort by edge id.
  for (SparseEdgeFlow& row : rows) sparse_flow_canonicalize(row, 1e-15);

  // Hand the active sets to the caller (pairwise only): the atom
  // decomposition of the final point, ready to seed the next related
  // solve without a Raghavan-Tompson pass. The workspace copy is
  // rebuilt per solve, so moving it out is free.
  if (atomic) sol.commodity_atoms = std::move(ws.atoms_);

  // Restore the workspace invariant for the next solve.
  for (const EdgeId e : ws.x_support_) {
    ws.weights_[static_cast<std::size_t>(e)] = w_zero;
  }
  ws.clean_ = true;
  sol.stats = stats;
  return sol;
}

}  // namespace dcn
