// Differential tests for the incremental corner timer: seeded random
// sequences of resizes, Vth swaps, exact undos, target switches and
// snapshot-style bulk rebuilds, checked after every step against a
// from-scratch StaEngine::analyze_corner pass, bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gen/proxy.hpp"
#include "netlist/bench_io.hpp"
#include "sta/corner_timer.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/health.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Circuit make_c17() {
  return read_bench_string(R"(
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)",
                           "c17");
}

/// Gates that reach no primary output keep +inf required internally: a
/// dangling chain hanging off the critical path, and a dangling gate fed by
/// an output.
Circuit make_dangling() {
  Circuit c("dangling");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId n1 = c.add_gate("n1", CellKind::kNand2, {a, b});
  const GateId n2 = c.add_gate("n2", CellKind::kInv, {n1});
  const GateId n3 = c.add_gate("n3", CellKind::kNor2, {n2, b});
  const GateId d1 = c.add_gate("d1", CellKind::kInv, {n1});
  (void)c.add_gate("d2", CellKind::kNand2, {d1, n2});
  (void)c.add_gate("d3", CellKind::kInv, {n3});
  c.mark_output(n3);
  c.mark_output(n2);
  c.finalize();
  return c;
}

class CornerTimerTest : public ::testing::Test {
 protected:
  const CellLibrary lib_{generic_100nm()};
  const VariationModel var_ = VariationModel::typical_100nm();

  /// Every arrival, slack, delay and the critical delay must equal a fresh
  /// full corner pass bit for bit.
  void expect_matches_oracle(const Circuit& c, CornerTimer& timer,
                             double target, double k_sigma) {
    const StaEngine sta(c, lib_);
    const StaResult r = sta.analyze_corner(target, var_, k_sigma);
    ASSERT_EQ(bits(timer.critical_delay_ps()), bits(r.critical_delay_ps));
    const CornerTimer::SlackView slacks = timer.slacks();
    for (GateId id = 0; id < c.num_gates(); ++id) {
      ASSERT_EQ(bits(timer.arrival_ps(id)), bits(r.arrival_ps[id]))
          << "arrival of gate " << id;
      ASSERT_EQ(bits(slacks[id]), bits(r.slack_ps[id]))
          << "slack of gate " << id;
      ASSERT_EQ(bits(timer.delay_ps(id)),
                bits(sta.gate_delay_corner_ps(id, var_, k_sigma)))
          << "delay of gate " << id;
    }
  }

  /// Drives `steps` random steps on `c`, checking after each one.
  void run_random_walk(Circuit c, double k_sigma, std::uint64_t seed,
                       int steps) {
    const auto sizes = lib_.size_steps();
    std::vector<GateId> cells;
    for (GateId id = 0; id < c.num_gates(); ++id) {
      if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
    }
    const double base = StaEngine(c, lib_).analyze_corner(0.0, var_, k_sigma)
                            .critical_delay_ps;
    const double targets[] = {1.2 * base, 0.9 * base, 2.0 * base};
    double target = targets[0];
    CornerTimer timer(c, lib_, var_, k_sigma, target);
    expect_matches_oracle(c, timer, target, k_sigma);

    struct Move {
      GateId id = kInvalidGate;
      double size = 0.0;
      Vth vth = Vth::kLow;
    };
    Move last;
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(c.name() + " step " + std::to_string(step));
      // One to three mutations pile up before the next read.
      const auto moves = 1 + rng.uniform_index(3);
      for (std::uint64_t m = 0; m < moves; ++m) {
        const auto op = rng.uniform_index(10);
        if (op < 4) {  // resize
          const GateId id = cells[rng.uniform_index(cells.size())];
          last = {id, c.gate(id).size, c.gate(id).vth};
          c.set_size(id, sizes[rng.uniform_index(sizes.size())]);
          timer.on_resize(id);
        } else if (op < 6) {  // Vth swap
          const GateId id = cells[rng.uniform_index(cells.size())];
          last = {id, c.gate(id).size, c.gate(id).vth};
          c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
          timer.on_vth_change(id);
        } else if (op < 8) {  // exact undo of the last move
          if (last.id == kInvalidGate) continue;
          c.set_vth(last.id, last.vth);
          timer.on_vth_change(last.id);
          c.set_size(last.id, last.size);
          timer.on_resize(last.id);
          last = {};
        } else if (op < 9) {  // target switch
          target = targets[rng.uniform_index(3)];
          timer.set_target(target);
        } else {  // snapshot-style restore: bulk writes, then rebuild
          for (int i = 0; i < 4; ++i) {
            const GateId id = cells[rng.uniform_index(cells.size())];
            c.gate(id).size = sizes[rng.uniform_index(sizes.size())];
            c.gate(id).vth = rng.uniform_index(2) == 0 ? Vth::kLow : Vth::kHigh;
          }
          timer.rebuild();
          last = {};
        }
      }
      // Sometimes read only the forward state first, leaving the backward
      // pass pending.
      if (rng.uniform_index(2) == 0) (void)timer.critical_delay_ps();
      expect_matches_oracle(c, timer, target, k_sigma);
      if (HasFatalFailure()) return;
    }
  }
};

TEST_F(CornerTimerTest, C17RandomWalkMatchesFullPass) {
  run_random_walk(make_c17(), 0.0, 1, 400);
  run_random_walk(make_c17(), 1.5, 2, 400);
}

TEST_F(CornerTimerTest, DanglingGatesRandomWalkMatchesFullPass) {
  run_random_walk(make_dangling(), 0.0, 3, 400);
  run_random_walk(make_dangling(), 3.0, 4, 400);
}

TEST_F(CornerTimerTest, C880pRandomWalkMatchesFullPass) {
  run_random_walk(iscas85_proxy("c880p"), 1.5, 5, 150);
}

TEST_F(CornerTimerTest, DanglingGateSlackIsClampedToTarget) {
  const Circuit c = make_dangling();
  const double target = 250.0;
  CornerTimer timer(c, lib_, var_, 0.0, target);
  const GateId d3 = c.find("d3");
  EXPECT_EQ(timer.slacks()[d3], target - timer.arrival_ps(d3));
}

TEST_F(CornerTimerTest, NonFiniteTargetIsAStructuredError) {
  const Circuit c = iscas85_proxy("c432p");
  CornerTimer timer(c, lib_, var_, 1.5, 500.0);
  (void)timer.slacks();
  timer.set_target(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW((void)timer.slacks(), NumericalError);
  EXPECT_THROW((void)timer.slacks(), NumericalError);
  timer.set_target(-std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)timer.slacks(), NumericalError);
  // A valid target recovers the timer.
  timer.set_target(500.0);
  expect_matches_oracle(c, timer, 500.0, 1.5);
}

}  // namespace
}  // namespace statleak
