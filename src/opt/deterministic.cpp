#include "opt/deterministic.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "opt/metrics.hpp"
#include "sta/corner_timer.hpp"
#include "util/error.hpp"

namespace statleak {

namespace {
constexpr double kEpsPs = 1e-9;
/// Boost rounds of the sizing-enables-swaps outer loop (see run()).
constexpr int kMaxBoostRounds = 4;
/// Per-round shrink of the phase-1 target delay during boosting.
constexpr double kBoostShrink = 0.97;

/// Slack-independent part of a gate's phase-1 upsizing move: the path-delay
/// gain net of the fanin-load penalty, and (only when that gain clears
/// kEpsPs) the gain per unit of added leakage.
struct UpsizePrice {
  bool valid = false;
  double net_gain = 0.0;
  double score = 0.0;
};

/// Slack-independent part of a gate's phase-2 moves: the delay increase of
/// the Vth swap (LVT gates) and of the one-step downsize (gates above the
/// smallest step), each with its leakage saved per ps, priced lazily.
struct AssignPrice {
  bool valid = false;
  double dd_vth = 0.0;
  double dd_down = 0.0;
  double smaller = 0.0;  ///< downsize target; 0 = already at the smallest
  bool vth_scored = false;
  bool down_scored = false;
  double score_vth = 0.0;
  double score_down = 0.0;
};
}  // namespace

DeterministicOptimizer::DeterministicOptimizer(const CellLibrary& lib,
                                               const VariationModel& var,
                                               OptConfig config)
    : lib_(lib), var_(var), config_(std::move(config)) {
  STATLEAK_CHECK(config_.t_max_ps > 0.0, "delay target must be positive");
  STATLEAK_CHECK(config_.corner_k_sigma >= 0.0,
                 "corner k-sigma must be non-negative");
}

OptResult DeterministicOptimizer::run(Circuit& circuit,
                                      obs::Registry* obs) const {
  STATLEAK_CHECK(circuit.finalized(), "optimizer needs a finalized circuit");
  reset_implementation(circuit, lib_);
  obs::ScopedTimer total_timer(obs, "det.total");

  const std::size_t n = circuit.num_gates();
  const auto steps = lib_.size_steps();
  const double t_max = config_.t_max_ps;
  CornerTimer timer(circuit, lib_, var_, config_.corner_k_sigma, t_max);
  const auto total_leak = [&]() {
    double sum = 0.0;
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& g = circuit.gate(id);
      if (g.kind == CellKind::kInput) continue;
      sum += lib_.leakage_na(g.kind, g.vth, g.size);
    }
    return sum;
  };

  // ------------------------------------------------- move-price memo ----
  // Prices depend on the moved gate's own (vth, size, load) and, for
  // upsizing, on each fanin driver's (vth, size, load). A move invalidates
  // exactly the entries whose inputs it changed; prices are recomputed
  // lazily when the scan next reaches them, with the current corner delays
  // (bitwise the values the scan used to recompute) read from the timer.
  std::vector<UpsizePrice> upsize(n);
  std::vector<AssignPrice> assign(n);

  // Flat per-gate mirrors read by the O(n) scans instead of the Gate
  // records: an input mask and each gate's size-step index. The step is
  // set from lib_.nearest_step at every size write (commit_resize,
  // restore_snapshot), so it is exactly what the scan used to recompute.
  std::vector<char> is_input(n);
  std::vector<std::size_t> step_of(n);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = circuit.gate(id);
    is_input[id] = g.kind == CellKind::kInput ? 1 : 0;
    step_of[id] = lib_.nearest_step(g.size);
  }

  const auto commit_resize = [&](GateId b, double size) {
    circuit.set_size(b, size);
    step_of[b] = lib_.nearest_step(size);
    timer.on_resize(b);
    upsize[b].valid = false;
    assign[b].valid = false;
    for (GateId fo : circuit.fanouts(b)) upsize[fo].valid = false;
    for (GateId f : circuit.gate(b).fanins) {
      upsize[f].valid = false;
      assign[f].valid = false;
      for (GateId fo : circuit.fanouts(f)) upsize[fo].valid = false;
    }
  };
  const auto commit_hvt = [&](GateId b) {
    circuit.set_vth(b, Vth::kHigh);
    timer.on_vth_change(b);
    upsize[b].valid = false;
    assign[b].valid = false;
    for (GateId fo : circuit.fanouts(b)) upsize[fo].valid = false;
  };
  const auto price_upsize = [&](GateId id, double next_size) {
    const Gate& g = circuit.gate(id);
    const double load = timer.loads().load_ff(id);
    const double own_gain =
        timer.delay_ps(id) - timer.delay_with(id, g.vth, next_size, load);

    // Upsizing raises every fanin driver's load by the pin-cap delta.
    const double dcap =
        lib_.pin_cap_ff(g.kind, next_size) - lib_.pin_cap_ff(g.kind, g.size);
    double penalty = 0.0;
    for (GateId f : g.fanins) {
      const Gate& drv = circuit.gate(f);
      if (drv.kind == CellKind::kInput) continue;
      const double fl = timer.loads().load_ff(f);
      penalty += timer.delay_with(f, drv.vth, drv.size, fl + dcap) -
                 timer.delay_ps(f);
    }
    UpsizePrice p;
    p.valid = true;
    p.net_gain = own_gain - penalty;
    if (p.net_gain > kEpsPs) {
      const double dleak = lib_.leakage_na(g.kind, g.vth, next_size) -
                           lib_.leakage_na(g.kind, g.vth, g.size);
      p.score = p.net_gain / std::max(dleak, 1e-9);
    }
    return p;
  };
  const auto price_assign = [&](GateId id) {
    const Gate& g = circuit.gate(id);
    const double load = timer.loads().load_ff(id);
    const double d_now = timer.delay_ps(id);
    AssignPrice p;
    p.valid = true;
    if (g.vth == Vth::kLow) {
      p.dd_vth = timer.delay_with(id, Vth::kHigh, g.size, load) - d_now;
    }
    const std::size_t step = step_of[id];
    if (step > 0) {
      p.smaller = steps[step - 1];
      p.dd_down = timer.delay_with(id, g.vth, p.smaller, load) - d_now;
    }
    return p;
  };

  // Phase-1 lock set: bit `step` of gate `id`'s words is set once upsizing
  // `id` to that step was tried and undone in the current phase.
  const std::size_t lock_words = (steps.size() + 63) / 64;
  std::vector<std::uint64_t> locked(n * lock_words, 0);
  const auto lock_word = [&](GateId id, std::size_t step) -> std::uint64_t& {
    return locked[id * lock_words + step / 64];
  };
  const auto lock_bit = [](std::size_t step) {
    return std::uint64_t{1} << (step % 64);
  };

  OptResult result;
  const auto max_iterations = static_cast<int>(
      config_.max_iterations_factor * static_cast<double>(circuit.num_cells()) +
      64.0);

  // Wall-clock budget (ExecConfig::deadline_ms; 0 = none). Checked at loop
  // boundaries, latched so the label is stable, and always tested LAST in a
  // condition chain: a run that finishes naturally just before expiry is
  // still "completed".
  const Deadline deadline(config_.deadline_ms);
  bool deadline_hit = false;
  const auto out_of_time = [&]() {
    if (deadline_hit) return true;
    if (deadline.expired()) deadline_hit = true;
    return deadline_hit;
  };

  // One "det" trace event per loop iteration (see the header contract).
  // total_leak() is an O(n) const scan, paid only when a registry is
  // attached; observation never feeds back into the computation.
  const auto record = [&](const char* phase, double delay_ps) {
    if (obs == nullptr) return;
    obs::TraceEvent e;
    e.step = result.iterations;
    e.phase = phase;
    e.objective = total_leak();
    e.delay_ps = delay_ps;
    e.commits =
        result.sizing_commits + result.hvt_commits + result.downsize_commits;
    e.rejected = result.rejected_moves;
    obs->trace("det", std::move(e));
  };

  // ------------------------------------------------ snapshot machinery ----
  struct Snapshot {
    std::vector<double> sizes;
    std::vector<Vth> vths;
    double objective = 0.0;
  };
  const auto take_snapshot = [&]() {
    Snapshot s;
    s.sizes.reserve(circuit.num_gates());
    s.vths.reserve(circuit.num_gates());
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      s.sizes.push_back(circuit.gate(id).size);
      s.vths.push_back(circuit.gate(id).vth);
    }
    s.objective = total_leak();
    return s;
  };
  const auto restore_snapshot = [&](const Snapshot& s) {
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      circuit.gate(id).size = s.sizes[id];
      circuit.gate(id).vth = s.vths[id];
      step_of[id] = lib_.nearest_step(s.sizes[id]);
    }
    timer.rebuild();
    std::fill(upsize.begin(), upsize.end(), UpsizePrice{});
    std::fill(assign.begin(), assign.end(), AssignPrice{});
  };

  // -------------------------- phase 1: TILOS-style upsizing to a target ----
  const auto phase_sizing = [&](double target_ps) -> bool {
    obs::ScopedTimer timer_scope(obs, "det.sizing");
    std::fill(locked.begin(), locked.end(), 0);
    timer.set_target(target_ps);
    while (result.iterations < max_iterations && !out_of_time()) {
      ++result.iterations;
      const double before = timer.critical_delay_ps();
      record("sizing", before);
      if (before <= target_ps) return true;

      GateId best = kInvalidGate;
      std::size_t best_step = 0;
      double best_score = 0.0;
      const CornerTimer::SlackView slacks = timer.slacks();
      for (GateId id = 0; id < n; ++id) {
        if (is_input[id] != 0) continue;
        if (slacks[id] >= 0.0) continue;
        const std::size_t step = step_of[id];
        if (step + 1 >= steps.size()) continue;
        if ((lock_word(id, step + 1) & lock_bit(step + 1)) != 0) continue;
        UpsizePrice& price = upsize[id];
        if (!price.valid) price = price_upsize(id, steps[step + 1]);
        if (price.net_gain <= kEpsPs) continue;
        if (price.score > best_score) {
          best_score = price.score;
          best = id;
          best_step = step + 1;
        }
      }
      if (best == kInvalidGate) return false;  // cannot improve further

      commit_resize(best, steps[best_step]);
      if (timer.critical_delay_ps() >= before - kEpsPs) {
        // Second-order load coupling made the move useless; undo + lock.
        commit_resize(best, steps[best_step - 1]);
        lock_word(best, best_step) |= lock_bit(best_step);
        ++result.rejected_moves;
      } else {
        ++result.sizing_commits;
      }
    }
    return timer.critical_delay_ps() <= target_ps + kEpsPs;
  };

  // --------------- phase 2: greedy Vth swaps + downsizing inside slack ----
  // Both move types slow only the moved gate (downsizing additionally
  // speeds up its fanin drivers), so a move is safe iff its own delay
  // increase fits in the gate's corner slack.
  const auto phase_assign = [&]() {
    obs::ScopedTimer timer_scope(obs, "det.assign");
    timer.set_target(t_max);
    while (result.iterations < max_iterations && !out_of_time()) {
      ++result.iterations;
      record("assign", timer.critical_delay_ps());

      GateId best = kInvalidGate;
      bool best_is_vth = false;
      double best_new_size = 0.0;
      double best_score = 0.0;
      const CornerTimer::SlackView slacks = timer.slacks();
      for (GateId id = 0; id < n; ++id) {
        if (is_input[id] != 0) continue;
        const double slack = slacks[id] - config_.slack_margin_ps;
        if (slack <= 0.0) continue;
        const Gate& g = circuit.gate(id);
        AssignPrice& price = assign[id];
        if (!price.valid) price = price_assign(id);

        if (g.vth == Vth::kLow && price.dd_vth <= slack) {
          if (!price.vth_scored) {
            const double dleak = lib_.leakage_na(g.kind, Vth::kLow, g.size) -
                                 lib_.leakage_na(g.kind, Vth::kHigh, g.size);
            price.score_vth = dleak / std::max(price.dd_vth, kEpsPs);
            price.vth_scored = true;
          }
          if (price.score_vth > best_score) {
            best_score = price.score_vth;
            best = id;
            best_is_vth = true;
          }
        }
        if (price.smaller > 0.0 && price.dd_down <= slack) {
          if (!price.down_scored) {
            const double dleak = lib_.leakage_na(g.kind, g.vth, g.size) -
                                 lib_.leakage_na(g.kind, g.vth, price.smaller);
            price.score_down = dleak / std::max(price.dd_down, kEpsPs);
            price.down_scored = true;
          }
          if (price.score_down > best_score) {
            best_score = price.score_down;
            best = id;
            best_is_vth = false;
            best_new_size = price.smaller;
          }
        }
      }
      if (best == kInvalidGate) break;

      if (best_is_vth) {
        commit_hvt(best);
        ++result.hvt_commits;
      } else {
        commit_resize(best, best_new_size);
        ++result.downsize_commits;
      }
    }
  };

  // ------------------------------------------------------- main schedule ----
  result.feasible = phase_sizing(t_max);
  phase_assign();

  // Boost loop (mirrors the statistical optimizer): upsizing slightly past
  // the constraint buys slack that enables disproportionate swap savings.
  if (result.feasible) {
    Snapshot best = take_snapshot();
    double target = t_max;
    for (int round = 0; round < kMaxBoostRounds && !out_of_time(); ++round) {
      target *= kBoostShrink;
      (void)phase_sizing(target);
      phase_assign();
      const double objective = total_leak();
      if (objective < best.objective * (1.0 - 1e-9)) best = take_snapshot();
      // Always explore every round (the greedy is path-dependent; a later,
      // tighter boost can succeed where an earlier one plateaued), then
      // keep the best implementation seen.
    }
    restore_snapshot(best);
  }

  result.final_objective = total_leak();
  result.completed = !deadline_hit;
  result.note = result.feasible
                    ? "corner delay target met"
                    : "delay target unreachable at max sizes (best effort)";
  if (deadline_hit) result.note += "; stopped early: deadline expired";
  if (obs != nullptr) {
    if (deadline_hit) obs->mark_incomplete("deadline");
    obs->add("det.iterations", result.iterations);
    obs->add("det.commits.sizing", result.sizing_commits);
    obs->add("det.commits.hvt", result.hvt_commits);
    obs->add("det.commits.downsize", result.downsize_commits);
    obs->add("det.rejected_moves", result.rejected_moves);
    obs->set_gauge("det.final_objective_na", result.final_objective);
    obs->set_gauge("det.feasible", result.feasible ? 1.0 : 0.0);
    obs->set_gauge("det.final_corner_delay_ps", timer.critical_delay_ps());
  }
  return result;
}

}  // namespace statleak
