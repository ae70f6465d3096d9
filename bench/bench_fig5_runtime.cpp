/// \file bench_fig5_runtime.cpp
/// \brief F5 — runtime scaling (paper figure class: optimizer CPU time vs
///        circuit size) plus micro-benchmarks of the analysis engines.
///
/// Google-benchmark binary. The optimizer scaling series uses seeded random
/// DAGs from 250 to 4000 cells (the greedy loops are O(n^2) in the cell
/// count — visible as the ~4x time growth per 2x size). The micro series
/// pins the per-pass cost of STA, SSTA, criticality, Wilkinson rebuild and
/// one Monte-Carlo sample on c880p. The BM_MonteCarloBatched series
/// measures single-thread MC throughput of the batched SoA engine against
/// the scalar reference on c880p/c7552p (docs/PERFORMANCE.md); pipe its
/// --benchmark_format=json output through tools/bench_to_json.py to
/// regenerate BENCH_mc.json. BM_LaneDraw times the batched engines' deviate
/// draw at each SIMD lane width the host supports.

#include <benchmark/benchmark.h>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "leakage/leakage.hpp"
#include "mc/lane_draw.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/sweep.hpp"
#include "opt/deterministic.hpp"
#include "opt/statistical.hpp"
#include "ssta/ssta.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace {

using namespace statleak;

const CellLibrary& lib() {
  static const CellLibrary instance(generic_100nm());
  return instance;
}

const VariationModel& var() {
  static const VariationModel instance = VariationModel::typical_100nm();
  return instance;
}

Circuit sized_dag(int cells) {
  RandomDagSpec spec;
  spec.num_inputs = std::max(16, cells / 16);
  spec.num_gates = cells;
  spec.num_outputs = std::max(8, cells / 32);
  spec.seed = 4242;
  return make_random_dag(spec);
}

void BM_StatisticalOptimizer(benchmark::State& state) {
  Circuit base = sized_dag(static_cast<int>(state.range(0)));
  OptConfig cfg;
  cfg.t_max_ps = 1.2 * StaEngine(base, lib()).critical_delay_ps();
  for (auto _ : state) {
    Circuit c = base;
    const OptResult r = StatisticalOptimizer(lib(), var(), cfg).run(c);
    benchmark::DoNotOptimize(r.final_objective);
  }
  state.counters["cells"] = static_cast<double>(base.num_cells());
}
BENCHMARK(BM_StatisticalOptimizer)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_DeterministicOptimizer(benchmark::State& state) {
  Circuit base = sized_dag(static_cast<int>(state.range(0)));
  OptConfig cfg;
  cfg.t_max_ps = 1.2 * StaEngine(base, lib()).critical_delay_ps();
  cfg.corner_k_sigma = 3.0;
  for (auto _ : state) {
    Circuit c = base;
    const OptResult r = DeterministicOptimizer(lib(), var(), cfg).run(c);
    benchmark::DoNotOptimize(r.final_objective);
  }
  state.counters["cells"] = static_cast<double>(base.num_cells());
}
BENCHMARK(BM_DeterministicOptimizer)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ----------------------------- engine micro-benchmarks on c880p -----------

void BM_StaFullPass(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  const StaEngine sta(c, lib());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta.analyze(1000.0).critical_delay_ps);
  }
}
BENCHMARK(BM_StaFullPass)->Unit(benchmark::kMicrosecond);

void BM_SstaForwardOnly(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  const SstaEngine ssta(c, lib(), var());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta.circuit_delay().mean);
  }
}
BENCHMARK(BM_SstaForwardOnly)->Unit(benchmark::kMicrosecond);

void BM_SstaWithCriticality(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  const SstaEngine ssta(c, lib(), var());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta.analyze().circuit_delay.mean);
  }
}
BENCHMARK(BM_SstaWithCriticality)->Unit(benchmark::kMicrosecond);

void BM_LeakageRebuild(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  LeakageAnalyzer an(c, lib(), var());
  for (auto _ : state) {
    an.rebuild();
    benchmark::DoNotOptimize(an.mean_na());
  }
}
BENCHMARK(BM_LeakageRebuild)->Unit(benchmark::kMicrosecond);

void BM_LeakageMovePricing(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  const LeakageAnalyzer an(c, lib(), var());
  GateId id = c.outputs()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(an.quantile_if_na(id, Vth::kHigh, 2.0, 0.99));
  }
}
BENCHMARK(BM_LeakageMovePricing)->Unit(benchmark::kNanosecond);

void BM_MonteCarloSample(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  McConfig cfg;
  cfg.num_samples = 100;
  cfg.num_threads = 1;
  for (auto _ : state) {
    const McResult res = run_monte_carlo(c, lib(), var(), cfg);
    benchmark::DoNotOptimize(res.delay_ps.back());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MonteCarloSample)->Unit(benchmark::kMillisecond);

// --------------------- batched vs scalar MC (tentpole acceptance) ---------

// Single-thread Monte-Carlo throughput, batched SoA engine vs the scalar
// per-sample reference, on the two proxies the acceptance criteria name.
// Second arg: 1 = batched (auto block size), 0 = scalar. Output is
// bit-identical between the two (tests/mc_batched_test.cpp); only
// items_per_second (samples/s) should move. Tentpole acceptance: >= 3x on
// c7552p vs the pre-PR scalar baseline.
void BM_MonteCarloBatched(benchmark::State& state) {
  const char* name = state.range(0) == 0 ? "c880p" : "c7552p";
  const Circuit c = iscas85_proxy(name);
  McConfig cfg;
  cfg.num_samples = state.range(0) == 0 ? 2000 : 500;
  cfg.num_threads = 1;
  cfg.use_batched = state.range(1) != 0;
  for (auto _ : state) {
    const McResult res = run_monte_carlo(c, lib(), var(), cfg);
    benchmark::DoNotOptimize(res.delay_ps.back());
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_samples);
  state.SetLabel(name);
  state.counters["cells"] = static_cast<double>(c.num_cells());
  state.counters["batched"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_MonteCarloBatched)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

// -------------------------- lane-parallel deviate draws --------------------

// The batched engines' per-gate draw for one 16-lane block of c7552p (the
// auto block there), at lane width 1 (sample_gates per lane), 4 (AVX2) and
// 8 (AVX-512F+DQ). Output is bit-identical across widths
// (tests/lane_draw_test.cpp); items_per_second counts normals. A width the
// host lacks is skipped.
void BM_LaneDraw(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  if (!lane_draw_supported(width)) {
    state.SkipWithError("lane width not supported on this host");
    return;
  }
  const Circuit c = iscas85_proxy("c7552p");
  const std::vector<double> widths = mc_device_widths(c, lib());
  constexpr std::size_t kLanes = 16;
  std::vector<Rng> rngs(kLanes);
  std::vector<GlobalSample> dies(kLanes);
  std::vector<double> dl(widths.size() * kLanes);
  std::vector<double> dv(widths.size() * kLanes);
  std::uint64_t block = 0;
  for (auto _ : state) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      rngs[lane] = Rng::stream(1, block * kLanes + lane);
      dies[lane] = sample_global(var(), rngs[lane]);
    }
    draw_lanes(var(), dies, rngs, widths, dl.data(), dv.data(), kLanes,
               width);
    benchmark::DoNotOptimize(dl.data());
    ++block;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kLanes *
                                                    widths.size()));
}
BENCHMARK(BM_LaneDraw)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

// ------------------------- corner sweep: reuse vs cold (acceptance) -------

// A 3-temperature x 2-Vdd sweep grid on c880p: the corner-major sweep
// engine (one McArena carrying the FlatCircuit/kernel/scratch state across
// cells) vs naive per-cell cold runs that pay the full setup for every
// corner. First arg: samples per cell (the setup cost amortizes as it
// grows, so the reuse win is largest on thin cells); second arg: 1 = sweep
// engine, 0 = cold loop. The populations are bit-identical
// (tests/sweep_test.cpp); only the setup reuse moves the clock.
// items_per_second is samples/s across the whole grid.
void BM_CornerSweep(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  SweepGrid grid;
  grid.temperatures_k = {0.0, 398.15, 423.15};
  grid.vdds_v = {0.0, 1.1};
  McConfig cfg;
  cfg.num_samples = static_cast<int>(state.range(0));
  cfg.num_threads = 1;
  const bool reuse = state.range(1) != 0;
  for (auto _ : state) {
    if (reuse) {
      const SweepResult r = run_corner_sweep(c, grid, cfg);
      benchmark::DoNotOptimize(r.cells.back().result.delay_ps.back());
    } else {
      // The equivalent standalone runs: per-corner library, target
      // resolution and a cold engine start, exactly what a shell loop
      // over `statleak mc --temp ... --vdd ...` pays.
      for (const SweepCorner& corner : grid.corners()) {
        const CellLibrary corner_lib(corner.resolve_node());
        const double t_max =
            1.1 * StaEngine(c, corner_lib).critical_delay_ps();
        benchmark::DoNotOptimize(t_max);
        const McResult r =
            run_monte_carlo(c, corner_lib, corner.resolve_variation(), cfg);
        benchmark::DoNotOptimize(r.delay_ps.back());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_samples *
                          static_cast<std::int64_t>(grid.num_cells()));
  state.counters["reuse"] = reuse ? 1.0 : 0.0;
  state.counters["grid_cells"] = static_cast<double>(grid.num_cells());
}
BENCHMARK(BM_CornerSweep)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

// ------------------------------ threads scaling (tentpole acceptance) -----

// 10k-sample Monte-Carlo on a c-series circuit vs worker count. Output is
// bit-identical across the series (counter-based sample streams); only the
// wall clock should move. items_per_second is samples/s.
void BM_MonteCarloThreads(benchmark::State& state) {
  const Circuit c = iscas85_proxy("c880p");
  McConfig cfg;
  cfg.num_samples = 10000;
  cfg.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const McResult res = run_monte_carlo(c, lib(), var(), cfg);
    benchmark::DoNotOptimize(res.delay_ps.back());
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_samples);
  state.counters["threads"] = static_cast<double>(cfg.num_threads);
}
BENCHMARK(BM_MonteCarloThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

// Statistical-optimizer candidate scoring vs worker count on a 1000-cell
// DAG; the committed implementation (and OptResult) is identical per arg.
void BM_StatisticalOptimizerThreads(benchmark::State& state) {
  Circuit base = sized_dag(1000);
  OptConfig cfg;
  cfg.t_max_ps = 1.2 * StaEngine(base, lib()).critical_delay_ps();
  cfg.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Circuit c = base;
    const OptResult r = StatisticalOptimizer(lib(), var(), cfg).run(c);
    benchmark::DoNotOptimize(r.final_objective);
  }
  state.counters["threads"] = static_cast<double>(cfg.num_threads);
}
BENCHMARK(BM_StatisticalOptimizerThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace

// Google Benchmark's own "library_build_type" context key describes the
// HARNESS library (the distro package is built without NDEBUG), not the
// timed statleak code. Stamp the statleak build type explicitly so
// tools/bench_to_json.py can tell Release timing artifacts from debug ones.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("statleak_build_type", "release");
#else
  benchmark::AddCustomContext("statleak_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
