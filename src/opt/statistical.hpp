/// \file statistical.hpp
/// \brief The paper's contribution: statistical leakage optimization with
///        dual-Vth assignment and sizing under a timing-yield constraint.
///
/// Minimize Q_p(total leakage)  s.t.  P(delay <= t_max) >= eta,
///
/// where Q_p is a high percentile (default 99th) of the analytic Wilkinson
/// leakage distribution and the yield comes from block-based SSTA.
///
/// Algorithm (greedy sensitivity loop, mirroring the DAC'04 flow):
///
///   Phase 1 (sizing for yield): from the all-LVT minimum-size point,
///     upsize while yield < eta. Candidates are statistically critical
///     gates; the score is criticality-weighted mean-delay reduction per
///     unit of leakage-percentile increase. Every commit is validated with
///     a full SSTA pass; harmful moves are undone and locked.
///
///   Phase 2 (statistical assignment): candidate moves are LVT->HVT swaps
///     and one-step downsizes. Each move is priced in O(1):
///       benefit = Q_p(now) - Q_p(with move)     [Wilkinson re-fit]
///       cost    = criticality(g) * own mean-delay increase + eps
///     The best-scoring move is applied tentatively and accepted iff the
///     re-run SSTA still meets eta; otherwise undone and locked. Locks are
///     cleared between rounds, because accepted downsizes free timing room.
///
///   Phase 3 (yield recovery): if eta is not reachable (or numerical
///     coupling dented it), the most critical gates are reverted to LVT /
///     upsized until yield recovers or moves run out.

#pragma once

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "opt/config.hpp"
#include "tech/variation.hpp"

namespace statleak {

class StatisticalOptimizer {
 public:
  StatisticalOptimizer(const CellLibrary& lib, const VariationModel& var,
                       OptConfig config);

  /// Optimizes the implementation attributes (size, Vth) of `circuit` in
  /// place, starting from the all-LVT minimum-size point.
  ///
  /// With an observability registry attached the run records phase wall
  /// times ("stat.sizing" / "stat.assign" / "stat.recover" / "stat.boost"),
  /// commit/rejection counters under "stat.*", and one "stat" trace event
  /// per loop iteration (exactly OptResult::iterations events). The
  /// optimization trajectory — and therefore the result — is bit-identical
  /// with and without a registry.
  ///
  /// Timing runs on the incremental FlatSstaEngine and move pricing on the
  /// candidate-batched BatchScorer; tests/stat_reference_test.cpp re-runs
  /// the same schedule on full-pass analyzers and per-gate pricing and
  /// requires the same trajectory bit for bit.
  OptResult run(Circuit& circuit, obs::Registry* obs = nullptr) const;

  const OptConfig& config() const { return config_; }

 private:
  const CellLibrary& lib_;
  const VariationModel& var_;
  OptConfig config_;
};

}  // namespace statleak
