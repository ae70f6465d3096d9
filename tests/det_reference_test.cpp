// Differential test of the deterministic sizer against a from-scratch
// reference. The reference below is the plain form of the same greedy
// search: a full StaEngine::analyze_corner pass per iteration (and after
// every upsizing move), every candidate priced afresh on every scan, and the
// lock set in a std::set. The production sizer keeps incremental corner
// timing and memoized move prices; it must walk the identical trajectory,
// down to the last bit of the final implementation, on circuits and corners
// beyond the pinned goldens.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "opt/deterministic.hpp"
#include "opt/metrics.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

constexpr double kEpsPs = 1e-9;

OptResult reference_run(Circuit& circuit, const CellLibrary& lib,
                        const VariationModel& var, const OptConfig& cfg) {
  reset_implementation(circuit, lib);
  StaEngine sta(circuit, lib);
  const auto steps = lib.size_steps();
  const double dl = cfg.corner_k_sigma * var.sigma_l_total_nm();
  const double dv = cfg.corner_k_sigma * var.sigma_vth_total_v();
  const auto delay_at = [&](GateId id, Vth vth, double size, double load) {
    return lib.delay_ps(circuit.gate(id).kind, vth, size, load, dl, dv);
  };
  const auto timing = [&](double target) {
    return sta.analyze_corner(target, var, cfg.corner_k_sigma);
  };
  const auto total_leak = [&]() {
    double sum = 0.0;
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& g = circuit.gate(id);
      if (g.kind != CellKind::kInput) {
        sum += lib.leakage_na(g.kind, g.vth, g.size);
      }
    }
    return sum;
  };
  OptResult result;
  const auto max_iterations = static_cast<int>(
      cfg.max_iterations_factor * static_cast<double>(circuit.num_cells()) +
      64.0);

  const auto phase_sizing = [&](double target) {
    std::set<std::pair<GateId, std::size_t>> locked;
    while (result.iterations < max_iterations) {
      ++result.iterations;
      const StaResult t = timing(target);
      if (t.critical_delay_ps <= target) return true;
      GateId best = kInvalidGate;
      std::size_t best_step = 0;
      double best_score = 0.0;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& g = circuit.gate(id);
        if (g.kind == CellKind::kInput || t.slack_ps[id] >= 0.0) continue;
        const std::size_t step = lib.nearest_step(g.size);
        if (step + 1 >= steps.size() || locked.count({id, step + 1}) != 0) {
          continue;
        }
        const double next = steps[step + 1];
        const double load = sta.loads().load_ff(id);
        const double dcap =
            lib.pin_cap_ff(g.kind, next) - lib.pin_cap_ff(g.kind, g.size);
        double penalty = 0.0;
        for (GateId f : g.fanins) {
          const Gate& drv = circuit.gate(f);
          if (drv.kind == CellKind::kInput) continue;
          const double fl = sta.loads().load_ff(f);
          penalty += delay_at(f, drv.vth, drv.size, fl + dcap) -
                     delay_at(f, drv.vth, drv.size, fl);
        }
        const double net_gain = delay_at(id, g.vth, g.size, load) -
                                delay_at(id, g.vth, next, load) - penalty;
        if (net_gain <= kEpsPs) continue;
        const double dleak = lib.leakage_na(g.kind, g.vth, next) -
                             lib.leakage_na(g.kind, g.vth, g.size);
        const double score = net_gain / std::max(dleak, 1e-9);
        if (score > best_score) {
          best_score = score;
          best = id;
          best_step = step + 1;
        }
      }
      if (best == kInvalidGate) return false;
      circuit.set_size(best, steps[best_step]);
      sta.on_resize(best);
      if (timing(target).critical_delay_ps >= t.critical_delay_ps - kEpsPs) {
        circuit.set_size(best, steps[best_step - 1]);
        sta.on_resize(best);
        locked.insert({best, best_step});
        ++result.rejected_moves;
      } else {
        ++result.sizing_commits;
      }
    }
    return timing(target).critical_delay_ps <= target + kEpsPs;
  };

  const auto phase_assign = [&]() {
    while (result.iterations < max_iterations) {
      ++result.iterations;
      const StaResult t = timing(cfg.t_max_ps);
      GateId best = kInvalidGate;
      bool best_is_vth = false;
      double best_size = 0.0;
      double best_score = 0.0;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& g = circuit.gate(id);
        if (g.kind == CellKind::kInput) continue;
        const double slack = t.slack_ps[id] - cfg.slack_margin_ps;
        if (slack <= 0.0) continue;
        const double load = sta.loads().load_ff(id);
        const double d_now = delay_at(id, g.vth, g.size, load);
        if (g.vth == Vth::kLow) {
          const double dd = delay_at(id, Vth::kHigh, g.size, load) - d_now;
          const double score = (lib.leakage_na(g.kind, Vth::kLow, g.size) -
                                lib.leakage_na(g.kind, Vth::kHigh, g.size)) /
                               std::max(dd, kEpsPs);
          if (dd <= slack && score > best_score) {
            best_score = score;
            best = id;
            best_is_vth = true;
          }
        }
        const std::size_t step = lib.nearest_step(g.size);
        if (step > 0) {
          const double smaller = steps[step - 1];
          const double dd = delay_at(id, g.vth, smaller, load) - d_now;
          const double score = (lib.leakage_na(g.kind, g.vth, g.size) -
                                lib.leakage_na(g.kind, g.vth, smaller)) /
                               std::max(dd, kEpsPs);
          if (dd <= slack && score > best_score) {
            best_score = score;
            best = id;
            best_is_vth = false;
            best_size = smaller;
          }
        }
      }
      if (best == kInvalidGate) return;
      if (best_is_vth) {
        circuit.set_vth(best, Vth::kHigh);
        ++result.hvt_commits;
      } else {
        circuit.set_size(best, best_size);
        sta.on_resize(best);
        ++result.downsize_commits;
      }
    }
  };

  result.feasible = phase_sizing(cfg.t_max_ps);
  phase_assign();
  if (result.feasible) {
    std::vector<double> best_sizes;
    std::vector<Vth> best_vths;
    const auto take = [&]() {
      best_sizes.clear();
      best_vths.clear();
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        best_sizes.push_back(circuit.gate(id).size);
        best_vths.push_back(circuit.gate(id).vth);
      }
      return total_leak();
    };
    double best_objective = take();
    double target = cfg.t_max_ps;
    for (int round = 0; round < 4; ++round) {
      target *= 0.97;
      (void)phase_sizing(target);
      phase_assign();
      if (total_leak() < best_objective * (1.0 - 1e-9)) best_objective = take();
    }
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      circuit.gate(id).size = best_sizes[id];
      circuit.gate(id).vth = best_vths[id];
    }
  }
  result.final_objective = total_leak();
  return result;
}

struct Case {
  std::string name;
  Circuit circuit;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* name : {"c499p", "c1355p", "c1908p"}) {
    out.push_back({name, iscas85_proxy(name)});
  }
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    RandomDagSpec spec;
    spec.num_gates = 300;
    spec.locality = 12.0;
    spec.seed = seed;
    out.push_back({"dag" + std::to_string(seed), make_random_dag(spec)});
  }
  return out;
}

TEST(DetReferenceTest, SizerMatchesFullPassReference) {
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();
  for (const Case& c : cases()) {
    Circuit probe = c.circuit;
    reset_implementation(probe, lib);
    const double base = StaEngine(probe, lib).critical_delay_ps();
    for (double k : {0.0, 1.5, 3.0}) {
      for (double factor : {0.8, 1.0, 1.3}) {
        SCOPED_TRACE(c.name + " k=" + std::to_string(k) +
                     " factor=" + std::to_string(factor));
        OptConfig cfg;
        cfg.corner_k_sigma = k;
        cfg.t_max_ps = factor * base;

        Circuit ref_circuit = c.circuit;
        const OptResult ref = reference_run(ref_circuit, lib, var, cfg);
        Circuit got_circuit = c.circuit;
        const OptResult got =
            DeterministicOptimizer(lib, var, cfg).run(got_circuit);

        EXPECT_EQ(got.iterations, ref.iterations);
        EXPECT_EQ(got.sizing_commits, ref.sizing_commits);
        EXPECT_EQ(got.hvt_commits, ref.hvt_commits);
        EXPECT_EQ(got.downsize_commits, ref.downsize_commits);
        EXPECT_EQ(got.rejected_moves, ref.rejected_moves);
        EXPECT_EQ(got.feasible, ref.feasible);
        EXPECT_EQ(got.final_objective, ref.final_objective);
        for (GateId id = 0; id < got_circuit.num_gates(); ++id) {
          ASSERT_EQ(got_circuit.gate(id).size, ref_circuit.gate(id).size)
              << "gate " << id;
          ASSERT_TRUE(got_circuit.gate(id).vth == ref_circuit.gate(id).vth)
              << "gate " << id;
        }
      }
    }
  }
}

}  // namespace
}  // namespace statleak
