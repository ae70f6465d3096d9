/// \file ssta.hpp
/// \brief Block-based statistical static timing analysis (full-pass).
///
/// Forward PERT traversal propagating canonical forms: at each gate, the
/// fanin arrivals are combined with iterated Clark MAX (recording per-fanin
/// "win" probabilities), then the gate's own canonical delay is added. The
/// circuit delay is the Clark MAX over all primary outputs. A backward pass
/// turns the recorded win probabilities into per-gate criticality — the
/// probability mass of critical paths through each gate — which the
/// statistical optimizer uses to price timing cost.
///
/// SstaEngine is the plain full-pass analyzer: every query re-reads the
/// circuit's current sizes and Vth classes, recomputes every output load
/// and runs the whole traversal from scratch, so it can never be stale.
/// One-shot callers (metrics, MC importance shifts, benches) use it as is;
/// the statistical optimizer's incremental engine (FlatSstaEngine,
/// flat_incremental.hpp) is checked against it bit for bit.

#pragma once

#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "ssta/canonical.hpp"
#include "tech/variation.hpp"

namespace statleak {

/// Result of one SSTA pass.
struct SstaResult {
  std::vector<Canonical> arrival;  ///< per gate
  Canonical circuit_delay;         ///< max over primary outputs
  std::vector<double> criticality; ///< per gate, in [0, 1]; sums to ~1 per cut

  /// Timing yield P(D <= t_max) under the Gaussian circuit-delay model.
  double yield(double t_max_ps) const { return circuit_delay.cdf(t_max_ps); }
  /// Delay at the given yield (quantile of the circuit delay).
  double delay_at_yield_ps(double eta) const {
    return circuit_delay.quantile(eta);
  }
};

/// Full-pass SSTA analyzer. Holds references; circuit, library and
/// variation model must outlive it. The circuit's topology must stay
/// frozen; implementation attributes (size, Vth) may change freely between
/// queries.
class SstaEngine {
 public:
  SstaEngine(const Circuit& circuit, const CellLibrary& lib,
             const VariationModel& var);

  /// Canonical delay of one gate under the variation model, at the load
  /// its receivers present now.
  Canonical gate_delay(GateId id) const;

  /// Full two-pass analysis: arrivals, circuit delay and criticality.
  SstaResult analyze() const;

  /// Forward-only analysis: circuit-delay canonical without criticality.
  Canonical circuit_delay() const;

 private:
  /// Forward traversal into `out.arrival` / `out.circuit_delay`, recording
  /// the per-gate fanin win weights and the per-output sink weights.
  void forward(SstaResult& out, std::vector<std::vector<double>>& win,
               std::vector<double>& sink_weights) const;

  const Circuit& circuit_;
  const CellLibrary& lib_;
  const VariationModel& var_;
};

}  // namespace statleak
