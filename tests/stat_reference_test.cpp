// Differential test of the statistical optimizer against a plain reference.
// The reference below is the obvious form of the same greedy schedule —
// sizing for yield, assignment rounds, yield recovery and the boost loop
// with its best-seen snapshot — with none of the production machinery:
// every timing query builds a fresh full-pass SstaEngine, every leakage
// query a fresh LeakageAnalyzer, every candidate is priced by a per-gate
// closure in ascending gate order, and a rejected move is undone by writing
// the circuit's fields back. The production optimizer keeps an incremental
// flat SSTA engine with trials, an incremental leakage analyzer and a
// batched, sharded scorer; it must walk the identical trajectory — every
// iteration's phase, objective, yield and mean delay, every counter, the
// final objective and the final implementation, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "leakage/leakage.hpp"
#include "obs/registry.hpp"
#include "opt/metrics.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "ssta/ssta.hpp"
#include "sta/loads.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

constexpr double kEps = 1e-9;
constexpr double kCritFloor = 1e-4;

struct ReferenceRun {
  OptResult result;
  std::vector<obs::TraceEvent> trace;  ///< one per iteration
};

ReferenceRun reference_run(Circuit& circuit, const CellLibrary& lib,
                           const VariationModel& var, const OptConfig& cfg) {
  reset_implementation(circuit, lib);
  const auto steps = lib.size_steps();
  const double t_max = cfg.t_max_ps;
  const double eta = cfg.yield_target;
  const double pct = cfg.leakage_percentile;
  const auto max_iterations = static_cast<int>(
      cfg.max_iterations_factor * static_cast<double>(circuit.num_cells()) +
      64.0);
  ReferenceRun run;
  OptResult& result = run.result;

  const auto timing = [&]() { return SstaEngine(circuit, lib, var).analyze(); };
  const auto yield_now = [&]() {
    return SstaEngine(circuit, lib, var).circuit_delay().cdf(t_max);
  };
  const auto objective = [&]() {
    return LeakageAnalyzer(circuit, lib, var).quantile_na(pct);
  };
  const auto own_delay = [&](GateId id, Vth vth, double size) {
    return lib.delay_ps(circuit.gate(id).kind, vth, size,
                        output_load_ff(circuit, lib, id));
  };
  const auto record = [&](const char* phase, double obj, double yld,
                          double delay_mean_ps) {
    obs::TraceEvent e;
    e.phase = phase;
    e.objective = obj;
    e.yield = yld;
    e.delay_ps = delay_mean_ps;
    run.trace.push_back(std::move(e));
  };

  const auto phase_sizing = [&](double target) {
    std::set<std::pair<GateId, std::size_t>> locked;
    double yield = yield_now();
    while (yield < target && result.iterations < max_iterations) {
      ++result.iterations;
      const SstaResult t = timing();
      yield = t.yield(t_max);
      const double q_now = objective();
      record("sizing", q_now, yield, t.circuit_delay.mean);
      if (yield >= target) break;

      const LeakageAnalyzer leak(circuit, lib, var);
      GateId best = kInvalidGate;
      std::size_t best_step = 0;
      double best_score = 0.0;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& g = circuit.gate(id);
        if (g.kind == CellKind::kInput) continue;
        if (t.criticality[id] < kCritFloor) continue;
        const std::size_t step = lib.nearest_step(g.size);
        if (step + 1 >= steps.size()) continue;
        if (locked.count({id, step + 1}) != 0) continue;
        const double next = steps[step + 1];
        const double gain =
            own_delay(id, g.vth, g.size) - own_delay(id, g.vth, next);
        if (gain <= kEps) continue;
        const double dleak =
            leak.quantile_if_na(id, g.vth, next, pct) - q_now;
        const double score = t.criticality[id] * gain / std::max(dleak, 1e-6);
        if (score > best_score) {
          best_score = score;
          best = id;
          best_step = step + 1;
        }
      }
      if (best == kInvalidGate) break;

      const double saved_size = circuit.gate(best).size;
      circuit.set_size(best, steps[best_step]);
      const double new_yield = yield_now();
      if (new_yield > yield + 1e-12) {
        yield = new_yield;
        ++result.sizing_commits;
      } else {
        circuit.set_size(best, saved_size);
        locked.insert({best, best_step});
        ++result.rejected_moves;
      }
    }
    return yield;
  };

  const auto phase_assign = [&](bool best_effort) {
    for (int round = 0; round < cfg.assignment_rounds; ++round) {
      std::set<std::pair<GateId, bool>> locked;  // (gate, to_hvt)
      int committed_this_round = 0;
      while (result.iterations < max_iterations) {
        ++result.iterations;
        const SstaResult t = timing();
        const double cur_yield = t.yield(t_max);
        const double q_now = objective();
        record("assign", q_now, cur_yield, t.circuit_delay.mean);

        const LeakageAnalyzer leak(circuit, lib, var);
        GateId best = kInvalidGate;
        bool best_hvt = false;
        double best_size = 0.0;
        double best_score = 0.0;
        for (GateId id = 0; id < circuit.num_gates(); ++id) {
          const Gate& g = circuit.gate(id);
          if (g.kind == CellKind::kInput) continue;
          const bool can_hvt =
              g.vth == Vth::kLow && locked.count({id, true}) == 0;
          const std::size_t step = lib.nearest_step(g.size);
          const bool can_down = step > 0 && locked.count({id, false}) == 0;
          if (!can_hvt && !can_down) continue;
          const double crit = std::max(t.criticality[id], kCritFloor);
          const double d_now = own_delay(id, g.vth, g.size);
          if (can_hvt) {
            const double dd = own_delay(id, Vth::kHigh, g.size) - d_now;
            const double benefit =
                q_now - leak.quantile_if_na(id, Vth::kHigh, g.size, pct);
            if (benefit > 0.0) {
              const double score =
                  benefit / (crit * std::max(dd, kEps) + kEps);
              if (score > best_score) {
                best_score = score;
                best = id;
                best_hvt = true;
              }
            }
          }
          if (can_down) {
            const double smaller = steps[step - 1];
            const double dd = own_delay(id, g.vth, smaller) - d_now;
            const double benefit =
                q_now - leak.quantile_if_na(id, g.vth, smaller, pct);
            if (benefit > 0.0) {
              const double score =
                  benefit / (crit * std::max(dd, kEps) + kEps);
              if (score > best_score) {
                best_score = score;
                best = id;
                best_hvt = false;
                best_size = smaller;
              }
            }
          }
        }
        if (best == kInvalidGate) break;

        const Gate saved = circuit.gate(best);
        if (best_hvt) {
          circuit.set_vth(best, Vth::kHigh);
        } else {
          circuit.set_size(best, best_size);
        }
        const double new_yield = yield_now();
        if (new_yield + 1e-12 >= eta ||
            (best_effort && new_yield + 1e-12 >= cur_yield)) {
          ++(best_hvt ? result.hvt_commits : result.downsize_commits);
          ++committed_this_round;
        } else {
          circuit.set_vth(best, saved.vth);
          circuit.set_size(best, saved.size);
          locked.insert({best, best_hvt});
          ++result.rejected_moves;
        }
      }
      if (committed_this_round == 0) break;
    }
  };

  const auto phase_recover = [&]() {
    double yield = yield_now();
    std::set<std::pair<GateId, bool>> tried;  // (gate, to_lvt)
    while (yield < eta && result.iterations < max_iterations) {
      ++result.iterations;
      const SstaResult t = timing();
      record("recover", objective(), yield, t.circuit_delay.mean);
      GateId best = kInvalidGate;
      bool to_lvt = false;
      double best_crit = 0.0;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& g = circuit.gate(id);
        if (g.kind == CellKind::kInput) continue;
        if (t.criticality[id] <= best_crit) continue;
        if (g.vth == Vth::kHigh && tried.count({id, true}) == 0) {
          best = id;
          to_lvt = true;
          best_crit = t.criticality[id];
        } else if (lib.nearest_step(g.size) + 1 < steps.size() &&
                   tried.count({id, false}) == 0) {
          best = id;
          to_lvt = false;
          best_crit = t.criticality[id];
        }
      }
      if (best == kInvalidGate) break;
      if (to_lvt) {
        circuit.set_vth(best, Vth::kLow);
      } else {
        circuit.set_size(best,
                         steps[lib.nearest_step(circuit.gate(best).size) + 1]);
      }
      tried.insert({best, to_lvt});
      yield = yield_now();
    }
    return yield;
  };

  double yield = phase_sizing(eta);
  result.feasible = yield >= eta;
  phase_assign(/*best_effort=*/!result.feasible);
  if (yield_now() < eta) {
    yield = phase_recover();
    result.feasible = yield + 1e-12 >= eta;
  }
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
      return objective();
    };
    double best_objective = take();
    double boost_target = eta;
    for (int round = 0; round < 4; ++round) {
      boost_target = std::min(0.99995, 1.0 - (1.0 - boost_target) * 0.35);
      (void)phase_sizing(boost_target);
      phase_assign(/*best_effort=*/false);
      if (objective() < best_objective * (1.0 - 1e-9)) best_objective = take();
    }
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      circuit.set_size(id, best_sizes[id]);
      circuit.set_vth(id, best_vths[id]);
    }
  }
  result.final_objective = objective();
  return run;
}

struct Case {
  std::string name;
  Circuit circuit;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* name : {"c432p", "c880p", "c1908p"}) {
    out.push_back({name, iscas85_proxy(name)});
  }
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    RandomDagSpec spec;
    spec.num_gates = 200;
    spec.locality = 12.0;
    spec.seed = seed;
    out.push_back({"dag" + std::to_string(seed), make_random_dag(spec)});
  }
  return out;
}

TEST(StatReferenceTest, OptimizerMatchesFullPassReference) {
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();
  for (const Case& c : cases()) {
    const double d_min = min_achievable_delay_ps(c.circuit, lib);
    bool recovered = false;
    // 1.15 x D_min is met by sizing and assignment; at 0.75 x D_min eta is
    // out of reach and the run ends in yield recovery; 0.85 x D_min lands
    // in between (partial yield, or recovery followed by the boost loop).
    for (double factor : {1.15, 0.85, 0.75}) {
      SCOPED_TRACE(c.name + " factor=" + std::to_string(factor));
      OptConfig cfg;
      cfg.t_max_ps = factor * d_min;
      cfg.num_threads = 2;

      Circuit ref_circuit = c.circuit;
      const ReferenceRun ref = reference_run(ref_circuit, lib, var, cfg);
      Circuit got_circuit = c.circuit;
      obs::Registry reg;
      const OptResult got =
          StatisticalOptimizer(lib, var, cfg).run(got_circuit, &reg);

      EXPECT_EQ(got.iterations, ref.result.iterations);
      EXPECT_EQ(got.sizing_commits, ref.result.sizing_commits);
      EXPECT_EQ(got.hvt_commits, ref.result.hvt_commits);
      EXPECT_EQ(got.downsize_commits, ref.result.downsize_commits);
      EXPECT_EQ(got.rejected_moves, ref.result.rejected_moves);
      EXPECT_EQ(got.feasible, ref.result.feasible);
      EXPECT_EQ(got.final_objective, ref.result.final_objective);

      const auto events = reg.trace_events("stat");
      ASSERT_EQ(events.size(), ref.trace.size());
      for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::TraceEvent& want = ref.trace[i];
        ASSERT_EQ(events[i].phase, want.phase) << "iteration " << i + 1;
        ASSERT_EQ(events[i].objective, want.objective) << "iteration " << i + 1;
        ASSERT_EQ(events[i].yield, want.yield) << "iteration " << i + 1;
        ASSERT_EQ(events[i].delay_ps, want.delay_ps) << "iteration " << i + 1;
      }
      for (GateId id = 0; id < got_circuit.num_gates(); ++id) {
        ASSERT_EQ(got_circuit.gate(id).size, ref_circuit.gate(id).size)
            << "gate " << id;
        ASSERT_TRUE(got_circuit.gate(id).vth == ref_circuit.gate(id).vth)
            << "gate " << id;
      }
      for (const obs::TraceEvent& e : ref.trace) {
        recovered = recovered || e.phase == "recover";
      }
    }
    EXPECT_TRUE(recovered) << c.name << " never reached yield recovery";
  }
}

}  // namespace
}  // namespace statleak
