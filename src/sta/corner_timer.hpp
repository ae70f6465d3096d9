/// \file corner_timer.hpp
/// \brief Incremental corner STA for the deterministic sizer.
///
/// Keeps per-gate corner delays, arrival times and *unclamped* required
/// times across moves, and recomputes after a move only what the move can
/// change:
///
///   * a resize of `b` changes the delays of `b` and of its fanin drivers
///     (through their cached loads); a Vth swap changes only `b`'s delay;
///   * arrivals are re-propagated forward in topological order and required
///     times backward in reverse topological order, stopping wherever a
///     recomputed value is bitwise unchanged.
///
/// Every value is evaluated with exactly the per-gate expressions of
/// StaEngine::analyze_corner: arrival = max over fanins, then + delay;
/// required = min over fanouts of (required - delay), seeded with t_max on
/// primary outputs and +inf elsewhere. `max` and `min` are exact and
/// order-free, so every arrival, slack and the critical delay equal a full
/// analyze_corner pass bit for bit (the tests use that pass as the oracle).
/// A gate that reaches no output keeps +inf required internally; it is
/// clamped to the target only when its slack is read, as the full pass does.
///
/// Updates are lazy: mutations only mark work, and the next read does it.
/// A target change re-runs only the backward pass; rebuild() makes the next
/// read a full pass. The worklists are sized once, so a steady-state move
/// allocates nothing. Slack is read through slacks(): one sync, then a view
/// over the arrays, so a scan over every gate pays two loads and a compare
/// per gate instead of a lazy currency check.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "sta/loads.hpp"
#include "tech/variation.hpp"

namespace statleak {

class CornerTimer {
 public:
  /// All gates at the global k-sigma slow corner of `var` (the same corner
  /// as StaEngine::analyze_corner), timed against `t_max_ps`. The timer
  /// holds references to circuit and library and owns its LoadCache.
  CornerTimer(const Circuit& circuit, const CellLibrary& lib,
              const VariationModel& var, double k_sigma, double t_max_ps);

  const LoadCache& loads() const { return loads_; }

  /// Call after `id` changed size: patches its fanin drivers' loads and
  /// marks the delays of `id` and of those drivers stale.
  void on_resize(GateId id);
  /// Call after `id` changed Vth: marks its delay stale.
  void on_vth_change(GateId id);
  /// Call after bulk mutation: rebuilds the loads; the next read does a
  /// full pass.
  void rebuild();

  /// Required-time target for slack reads. A changed target re-runs the
  /// backward pass on the next slack read.
  void set_target(double t_max_ps);

  /// Corner delay `id` would have with a hypothetical (vth, size, load).
  double delay_with(GateId id, Vth vth, double size, double load_ff) const {
    return lib_.delay_ps(circuit_.gate(id).kind, vth, size, load_ff, dl_nm_,
                         dvth_v_);
  }

  /// Corner delay of one gate at the current implementation.
  double delay_ps(GateId id) {
    if (!arrivals_current_) update_arrivals();
    return delay_[id];
  }
  double arrival_ps(GateId id) {
    if (!arrivals_current_) update_arrivals();
    return arrival_[id];
  }
  /// Max arrival over the primary outputs.
  double critical_delay_ps() {
    if (!arrivals_current_) update_arrivals();
    return critical_ps_;
  }

  /// Slack read straight off the timer's arrays: required (clamped to the
  /// target where no output is reached) minus arrival, against the current
  /// target. Valid until the next mutation of the timer.
  class SlackView {
   public:
    double operator[](GateId id) const {
      const double req = required_[id];
      return (req == kInf ? target_ps_ : req) - arrival_[id];
    }

   private:
    friend class CornerTimer;
    SlackView(const double* required, const double* arrival, double target)
        : required_(required), arrival_(arrival), target_ps_(target) {}
    const double* required_;
    const double* arrival_;
    double target_ps_;
  };

  /// Brings arrivals and required times current, then returns a view that
  /// reads every slack without further checks. Throws NumericalError when a
  /// recomputed required time is NaN or -inf.
  SlackView slacks() {
    if (!required_current_) update_required();
    return SlackView(required_.data(), arrival_.data(), target_ps_);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double corner_delay(GateId id) const;
  double required_from_fanouts(GateId id) const;
  void check_required(GateId id, double req);
  void mark_stale(GateId id);
  void push_forward(GateId id);
  void push_backward(GateId id);
  void update_arrivals();
  void update_required();
  void full_forward();
  void full_backward();
  void refresh_critical();

  const Circuit& circuit_;
  const CellLibrary& lib_;
  LoadCache loads_;
  const double dl_nm_;
  const double dvth_v_;
  double target_ps_;

  std::vector<double> delay_;
  std::vector<double> arrival_;
  std::vector<double> required_;  ///< unclamped: +inf where no output
  double critical_ps_ = 0.0;
  std::vector<std::uint32_t> topo_pos_;

  // Worklists: stale delays, and forward/backward frontiers keyed by topo
  // position (heaps: min-first forward, max-first backward). Each gate is
  // in a list at most once, tracked by the parallel flag vectors.
  std::vector<GateId> stale_;
  std::vector<std::uint32_t> forward_;
  std::vector<std::uint32_t> backward_;
  std::vector<char> is_stale_;
  std::vector<char> in_forward_;
  std::vector<char> in_backward_;

  bool full_forward_ = true;   ///< delays + arrivals need a full pass
  bool full_backward_ = true;  ///< required times need a full pass
  bool arrivals_current_ = false;
  bool required_current_ = false;
};

}  // namespace statleak
