// String-keyed solver registry.
//
// The registry maps stable names ("mcf", "dcfsr", ...) to factories so
// the CLI, the batch runner, and tests all construct solvers the same
// way. default_registry() carries every algorithm in the library;
// registries are immutable once populated and safe to share across the
// batch runner's worker threads (create() only reads).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/solver.h"

namespace dcn::engine {

/// Thrown by SolverRegistry::create for unknown names; the message
/// lists every registered solver.
class UnknownSolverError : public std::invalid_argument {
 public:
  explicit UnknownSolverError(const std::string& what)
      : std::invalid_argument(what) {}
};

class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Solver>()>;

  /// Registers `factory` under `name`. Throws ContractViolation when
  /// the name is empty or already taken.
  void add(const std::string& name, Factory factory);

  /// Instantiates the solver registered under `name`. Throws
  /// UnknownSolverError (message lists known names) when absent.
  [[nodiscard]] std::unique_ptr<Solver> create(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return factories_.size(); }

 private:
  std::map<std::string, Factory> factories_;
};

/// All solvers of the library under their canonical names. Offline:
/// mcf, sp_mcf (alias of mcf), mcf_paper, mcf_plain, dcfsr, ecmp_mcf,
/// greedy, edf, exact. Online: online_dcfsr, online_dcfsr_flat,
/// online_dcfsr_preempt, online_dcfsr_sharded, online_greedy and the
/// hindsight oracle_dcfsr.
[[nodiscard]] const SolverRegistry& default_registry();

}  // namespace dcn::engine
