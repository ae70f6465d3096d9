// Differential equivalence harness for the incremental (dirty-cone) flat
// SSTA engine and the TreeSum-backed leakage analyzer.
//
// The contract under test: after ANY sequence of reported mutations —
// committed resizes and Vth swaps, trial moves that are rolled back, trial
// moves that are committed — every query on the long-lived FlatSstaEngine is
// *bit-identical* to a fresh full-pass SstaEngine looking at the same
// circuit, and the long-lived leakage analyzer matches a fresh one. Equality
// is ==, never EXPECT_NEAR: the dirty-cone retiming recomputes each changed
// gate with exactly the arithmetic a full pass would use, and the
// fixed-shape summation trees make the leakage totals insensitive to update
// order. A rejected move's leakage goes back through on_gate_changed(), as in
// the optimizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/random_dag.hpp"
#include "leakage/leakage.hpp"
#include "obs/registry.hpp"
#include "spatial/placement.hpp"
#include "spatial/spatial_model.hpp"
#include "spatial/spatial_ssta.hpp"
#include "ssta/flat_incremental.hpp"
#include "ssta/ssta.hpp"
#include "sta/loads.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

class SstaIncrementalTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();

  Circuit random_circuit(std::uint64_t seed, int gates = 250) const {
    RandomDagSpec spec;
    spec.num_inputs = 24;
    spec.num_gates = gates;
    spec.num_outputs = 12;
    spec.seed = seed;
    return make_random_dag(spec);
  }

  /// The five random DAGs every walk runs on.
  std::vector<Circuit> walk_circuits() const {
    std::vector<Circuit> out;
    for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
      out.push_back(random_circuit(seed));
    }
    return out;
  }

  std::vector<GateId> cells_of(const Circuit& c) const {
    std::vector<GateId> cells;
    for (GateId id = 0; id < c.num_gates(); ++id) {
      if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
    }
    return cells;
  }
};

testing::AssertionResult same(const Canonical& a, const Canonical& b,
                              const char* what) {
  if (a.mean == b.mean && a.gl == b.gl && a.gv == b.gv && a.loc == b.loc) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << what << " diverged: (" << a.mean << ", " << a.gl << ", " << a.gv
         << ", " << a.loc << ") vs (" << b.mean << ", " << b.gl << ", "
         << b.gv << ", " << b.loc << ")";
}

/// Incremental engine + analyzer vs freshly constructed ones: loads,
/// arrivals, criticality, circuit delay and leakage stats must match
/// bitwise. The fresh timing reference is the full-pass SstaEngine, so this
/// is a cross-engine differential: the flat-SoA layout must reproduce the
/// full pass's arithmetic bit for bit.
testing::AssertionResult states_match(const Circuit& c, const CellLibrary& lib,
                                      const VariationModel& var,
                                      const FlatSstaEngine& inc,
                                      const LeakageAnalyzer& leak) {
  const SstaEngine fresh(c, lib, var);
  const SstaResult& got = inc.analyze_ref();
  const SstaResult want = fresh.analyze();

  for (GateId id = 0; id < c.num_gates(); ++id) {
    const double load = output_load_ff(c, lib, id);
    if (inc.loads().load_ff(id) != load) {
      return testing::AssertionFailure()
             << "load of gate " << id << " diverged: "
             << inc.loads().load_ff(id) << " vs " << load;
    }
    auto r = same(got.arrival[id], want.arrival[id],
                  ("arrival of gate " + std::to_string(id)).c_str());
    if (!r) return r;
    if (got.criticality[id] != want.criticality[id]) {
      return testing::AssertionFailure()
             << "criticality of gate " << id << " diverged: "
             << got.criticality[id] << " vs " << want.criticality[id];
    }
  }
  auto r = same(got.circuit_delay, want.circuit_delay, "circuit delay");
  if (!r) return r;

  const LeakageAnalyzer fresh_leak(c, lib, var);
  if (leak.mean_na() != fresh_leak.mean_na()) {
    return testing::AssertionFailure()
           << "leakage mean diverged: " << leak.mean_na() << " vs "
           << fresh_leak.mean_na();
  }
  if (leak.quantile_na(0.99) != fresh_leak.quantile_na(0.99)) {
    return testing::AssertionFailure()
           << "leakage p99 diverged: " << leak.quantile_na(0.99) << " vs "
           << fresh_leak.quantile_na(0.99);
  }
  if (leak.distribution().var_na2 != fresh_leak.distribution().var_na2) {
    return testing::AssertionFailure() << "leakage variance diverged";
  }
  return testing::AssertionSuccess();
}

// ------------------------------------------------- randomized move walks ----

/// 1000-step random walk of committed moves, rolled-back trials and
/// committed trials; bit-identity asserted against fresh engines after
/// every step.
void run_random_walk(const CellLibrary& lib, const VariationModel& var,
                     const std::vector<Circuit>& circuits) {
  const auto steps = lib.size_steps();
  for (std::size_t walk = 0; walk < circuits.size(); ++walk) {
    Circuit c = circuits[walk];
    std::vector<GateId> cells;
    for (GateId id = 0; id < c.num_gates(); ++id) {
      if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
    }
    FlatSstaEngine inc(c, lib, var);
    LeakageAnalyzer leak(c, lib, var);
    Rng rng((walk + 1) * 11000033ull);

    // A saved (gate, size, vth) triple for restoring after a rollback.
    struct Saved {
      GateId id;
      double size;
      Vth vth;
    };

    const auto random_move = [&](GateId id) {
      if (rng.uniform() < 0.5) {
        c.set_size(id, steps[rng.uniform_index(steps.size())]);
        inc.on_resize(id);
      } else {
        const Vth flipped =
            c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow;
        c.set_vth(id, flipped);
        inc.on_vth_change(id);
      }
      leak.on_gate_changed(id);
    };

    for (int step = 0; step < 1000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.55) {
        // Committed single move.
        random_move(cells[rng.uniform_index(cells.size())]);
      } else {
        // Trial of 1-3 moves; half are rolled back, half committed.
        const bool rollback = roll < 0.80;
        const int moves = 1 + static_cast<int>(rng.uniform_index(3));
        std::vector<Saved> saved;
        inc.begin_trial();
        for (int m = 0; m < moves; ++m) {
          const GateId id = cells[rng.uniform_index(cells.size())];
          saved.push_back({id, c.gate(id).size, c.gate(id).vth});
          random_move(id);
          // Sometimes query mid-trial so the cone actually retimes inside
          // the trial (exercises the undo log, not just the dirty list).
          if (rng.uniform() < 0.7) (void)inc.circuit_delay();
        }
        if (rollback) {
          inc.rollback_trial();
          for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
            c.set_size(it->id, it->size);
            c.set_vth(it->id, it->vth);
            leak.on_gate_changed(it->id);
          }
        } else {
          inc.commit_trial();
        }
      }
      ASSERT_TRUE(states_match(c, lib, var, inc, leak))
          << "circuit " << walk << ", step " << step;
    }
  }
}

/// CSR win slices, cached own delays and rollback memcpy restores must
/// reproduce the full pass's arithmetic bit for bit after every step.
TEST_F(SstaIncrementalTest, FlatEngineRandomWalkMatchesScalarEverySeed) {
  run_random_walk(lib_, var_, walk_circuits());
}

/// Rolled-back trials whose cones span most of the circuit: the undo log
/// restores them entry by entry however large they are, so the engine is
/// primed by exactly one full pass for the whole walk — no rollback ever
/// falls back to re-timing the circuit from scratch.
TEST_F(SstaIncrementalTest, FlatEngineLargeConeRollbacksNeverReprime) {
  const auto steps = lib_.size_steps();
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    Circuit c = random_circuit(seed, 2000);
    const auto cells = cells_of(c);
    // Gates fed only by primary inputs head the widest fanout cones.
    std::vector<GateId> roots;
    for (GateId id : cells) {
      if (c.level(id) == 1) roots.push_back(id);
    }
    ASSERT_FALSE(roots.empty());
    obs::Registry reg;
    FlatSstaEngine inc(c, lib_, var_);
    inc.attach_observer(&reg);
    LeakageAnalyzer leak(c, lib_, var_);
    Rng rng(seed * 7919);
    double widest_cone = 0.0;

    for (int step = 0; step < 150; ++step) {
      if (rng.uniform() < 0.3) {
        // Committed move anywhere, left pending into the next trial.
        const GateId id = cells[rng.uniform_index(cells.size())];
        c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
        inc.on_vth_change(id);
        leak.on_gate_changed(id);
      }
      const GateId id = roots[rng.uniform_index(roots.size())];
      const Gate saved = c.gate(id);
      inc.begin_trial();
      const double retimed_before =
          reg.counter_value("ssta.flat_cone_gates_retimed");
      c.set_size(id, steps[rng.uniform_index(steps.size())]);
      inc.on_resize(id);
      c.set_vth(id, saved.vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
      inc.on_vth_change(id);
      (void)inc.circuit_delay();  // retime the whole cone inside the trial
      // Criticality refreshed mid-trial must not outlive a rollback.
      if (rng.uniform() < 0.5) (void)inc.analyze_ref();
      widest_cone = std::max(
          widest_cone,
          reg.counter_value("ssta.flat_cone_gates_retimed") - retimed_before);
      if (rng.uniform() < 0.8) {
        inc.rollback_trial();
        c.set_size(id, saved.size);
        c.set_vth(id, saved.vth);
      } else {
        inc.commit_trial();
        leak.on_gate_changed(id);
      }
      ASSERT_TRUE(states_match(c, lib_, var_, inc, leak))
          << "seed " << seed << ", step " << step;
      ASSERT_EQ(reg.counter_value("ssta.flat_full_passes"), 1.0)
          << "seed " << seed << ", step " << step;
    }
    // The walk did reach cones covering most of the circuit.
    EXPECT_GT(widest_cone, 0.5 * static_cast<double>(cells.size()))
        << "seed " << seed;
  }
}

/// Full passes on the flat engine: rebuild_loads() after every move drops
/// every cache, so each query re-primes with a whole-circuit pass.
TEST_F(SstaIncrementalTest, FlatEngineFullPassModeMatchesToo) {
  Circuit c = random_circuit(7);
  const auto cells = cells_of(c);
  const auto steps = lib_.size_steps();
  FlatSstaEngine eng(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  Rng rng(99);
  for (int step = 0; step < 100; ++step) {
    const GateId id = cells[rng.uniform_index(cells.size())];
    if (rng.uniform() < 0.5) {
      c.set_size(id, steps[rng.uniform_index(steps.size())]);
    } else {
      c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
    }
    eng.rebuild_loads();
    leak.on_gate_changed(id);
    ASSERT_TRUE(states_match(c, lib_, var_, eng, leak)) << "step " << step;
  }
}

// ------------------------------------------------------ trial edge cases ----

/// Rollback-after-trial must restore the engine state *bitwise* — the flat
/// engine's undo path is memcpy of CSR slices plus the own-delay log, and a
/// single missed slot would surface as a one-bit arrival drift here.
TEST_F(SstaIncrementalTest, FlatEngineRejectedTrialRestoresBitwise) {
  Circuit c = random_circuit(3);
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  (void)inc.analyze();  // prime the caches

  // Capture the committed state exactly as the optimizer sees it.
  const SstaResult before = inc.analyze();
  const GateId victim = cells_of(c).front();
  const Gate saved = c.gate(victim);

  inc.begin_trial();
  c.set_size(victim, 8.0);
  inc.on_resize(victim);
  leak.on_gate_changed(victim);
  c.set_vth(victim, Vth::kHigh);
  inc.on_vth_change(victim);
  leak.on_gate_changed(victim);
  (void)inc.circuit_delay();  // force retiming inside the trial
  inc.rollback_trial();
  c.set_size(victim, saved.size);
  c.set_vth(victim, saved.vth);
  leak.on_gate_changed(victim);

  EXPECT_FALSE(inc.trial_active());
  const SstaResult after = inc.analyze();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    ASSERT_TRUE(same(after.arrival[id], before.arrival[id],
                     ("post-rollback arrival of gate " + std::to_string(id))
                         .c_str()));
    ASSERT_EQ(after.criticality[id], before.criticality[id]) << "gate " << id;
  }
  ASSERT_TRUE(same(after.circuit_delay, before.circuit_delay,
                   "post-rollback circuit delay"));
  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
}

TEST_F(SstaIncrementalTest, FlatEngineRollbackOnUnprimedEngineStaysExact) {
  Circuit c = random_circuit(5);
  FlatSstaEngine inc(c, lib_, var_);  // never queried: trial starts unprimed
  LeakageAnalyzer leak(c, lib_, var_);
  const GateId victim = cells_of(c).back();
  const Gate saved = c.gate(victim);

  inc.begin_trial();
  c.set_size(victim, 4.0);
  inc.on_resize(victim);
  (void)inc.circuit_delay();
  inc.rollback_trial();
  c.set_size(victim, saved.size);

  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
}

TEST_F(SstaIncrementalTest, PendingDirtFromBeforeTheTrialSurvivesRollback) {
  Circuit c = random_circuit(6);
  const auto cells = cells_of(c);
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  (void)inc.analyze();

  // A committed (but not yet flushed) change...
  c.set_size(cells[1], 6.0);
  inc.on_resize(cells[1]);
  leak.on_gate_changed(cells[1]);

  // ...must not be forgotten when an unrelated trial rolls back.
  const Gate saved = c.gate(cells[2]);
  inc.begin_trial();
  c.set_vth(cells[2], Vth::kHigh);
  inc.on_vth_change(cells[2]);
  inc.rollback_trial();
  c.set_vth(cells[2], saved.vth);

  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
}

// ------------------------------------------------------ spatial analyzer ----

testing::AssertionResult same_vec(const VectorCanonical& a,
                                  const VectorCanonical& b) {
  if (a.mean == b.mean && a.loc == b.loc && a.g == b.g) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "vector canonical diverged: mean " << a.mean << " vs " << b.mean
         << ", loc " << a.loc << " vs " << b.loc;
}

/// The spatial analyzer keeps no timing state between queries: a
/// long-lived engine follows every unreported size/Vth mutation exactly
/// like a freshly constructed one.
TEST_F(SstaIncrementalTest, SpatialEngineRandomWalkMatchesFromScratch) {
  SpatialVariationModel model;
  model.base = var_;
  model.grid = 4;
  model.region_fraction_l = 0.5;
  model.region_fraction_v = 0.25;
  const auto steps = lib_.size_steps();

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Circuit c = random_circuit(seed, 150);
    const auto placement = make_topological_placement(c, seed);
    const auto cells = cells_of(c);
    const SpatialSstaEngine engine(c, lib_, model, placement);
    Rng rng(seed + 777);

    for (int step = 0; step < 100; ++step) {
      const GateId id = cells[rng.uniform_index(cells.size())];
      if (rng.uniform() < 0.5) {
        c.set_size(id, steps[rng.uniform_index(steps.size())]);
      } else {
        c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
      }
      const SpatialSstaEngine fresh(c, lib_, model, placement);
      ASSERT_TRUE(same_vec(engine.circuit_delay(), fresh.circuit_delay()))
          << "seed " << seed << ", step " << step;
    }
  }
}

}  // namespace
}  // namespace statleak
