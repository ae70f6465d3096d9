#include "abb/abb.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "leakage/batch_leakage.hpp"
#include "leakage/leakage.hpp"
#include "mc/batch.hpp"
#include "mc/lane_draw.hpp"
#include "netlist/flat_circuit.hpp"
#include "sta/batch_delay.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"
#include "util/health.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace statleak {

void BodyBiasConfig::validate() const {
  STATLEAK_CHECK(k_body_v_per_v > 0.0, "body-effect strength must be > 0");
  STATLEAK_CHECK(vbb_step_v > 0.0, "bias step must be positive");
  STATLEAK_CHECK(vbb_min_v <= 0.0 && vbb_max_v >= 0.0,
                 "bias ladder must include zero bias");
}

std::vector<double> BodyBiasConfig::ladder() const {
  validate();
  std::vector<double> steps;
  for (double v = vbb_min_v; v <= vbb_max_v + 1e-12; v += vbb_step_v) {
    // Snap near-zero entries to exactly zero so the unbiased setting is in
    // the ladder.
    steps.push_back(std::abs(v) < 1e-12 ? 0.0 : v);
  }
  return steps;
}

double AbbResult::reverse_fraction() const {
  if (bias_v.empty()) return 0.0;
  std::size_t n = 0;
  for (double v : bias_v) {
    if (v < -1e-12) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(bias_v.size());
}

double AbbResult::forward_fraction() const {
  if (bias_v.empty()) return 0.0;
  std::size_t n = 0;
  for (double v : bias_v) {
    if (v > 1e-12) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(bias_v.size());
}

AbbResult run_abb_experiment(const Circuit& circuit, const CellLibrary& lib,
                             const VariationModel& var,
                             const BodyBiasConfig& abb, const McConfig& mc,
                             double t_max_ps, obs::Registry* obs) {
  abb.validate();
  var.validate();
  STATLEAK_CHECK(mc.num_samples > 0, "need at least one sample");
  STATLEAK_CHECK(t_max_ps > 0.0, "delay target must be positive");
  obs::ScopedTimer timer(obs, "abb.sweep");

  StaEngine sta(circuit, lib);
  LeakageAnalyzer leakage(circuit, lib, var);
  const std::vector<double> ladder = abb.ladder();

  const std::size_t n = circuit.num_gates();
  std::vector<double> widths(n, -1.0);
  for (std::size_t id = 0; id < n; ++id) {
    const Gate& g = circuit.gate(static_cast<GateId>(id));
    if (g.kind != CellKind::kInput) widths[id] = lib.area_um(g.kind, g.size);
  }

  const auto num_samples = static_cast<std::size_t>(mc.num_samples);
  AbbResult result;
  result.dies_requested = num_samples;
  result.baseline.delay_ps.assign(num_samples, 0.0);
  result.baseline.leakage_na.assign(num_samples, 0.0);
  result.compensated.delay_ps.assign(num_samples, 0.0);
  result.compensated.leakage_na.assign(num_samples, 0.0);
  result.bias_v.assign(num_samples, 0.0);

  const int workers = resolve_num_threads(mc.num_threads);

  // Fault-tolerance plumbing (deadline at block boundaries, per-die health
  // checks, serial compaction of partial populations) mirrors
  // run_monte_carlo; checkpointing stays a flat-MC feature.
  const Deadline deadline(mc.deadline_ms);
  std::atomic<bool> stop{false};
  const bool fail_fast = mc.health_policy == HealthPolicy::kFail;
  using SlotRun = std::pair<std::size_t, std::size_t>;
  std::vector<std::vector<SlotRun>> computed_runs(
      static_cast<std::size_t>(workers));
  const auto log_run = [&](int worker, std::size_t run_begin,
                           std::size_t run_end) {
    if (run_end > run_begin) {
      computed_runs[static_cast<std::size_t>(worker)].emplace_back(run_begin,
                                                                   run_end);
    }
  };
  // A die is healthy only when all four of its paired values are finite.
  const auto die_health = [&result](std::size_t s) -> std::uint8_t {
    return static_cast<std::uint8_t>(
        classify_health(result.baseline.delay_ps[s],
                        result.baseline.leakage_na[s]) |
        classify_health(result.compensated.delay_ps[s],
                        result.compensated.leakage_na[s]));
  };

  // Die i reuses the Monte-Carlo engine's counter-derived stream i, so the
  // baseline population is bit-identical to run_monte_carlo with the same
  // config (the experiment is paired) — for any thread count of either.
  if (mc.use_batched) {
    const auto t0 = std::chrono::steady_clock::now();
    const FlatCircuit flat = FlatCircuit::build(circuit);
    const BatchDelayKernel delay_kernel(flat, lib, sta.loads());
    const BatchLeakageKernel leak_kernel(flat, lib);
    const auto t1 = std::chrono::steady_clock::now();
    if (obs != nullptr) {
      obs->add("flat.build_ns",
               static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t1 - t0)
                       .count()));
    }

    const std::size_t block = resolve_batch_size(mc.batch_size, n);
    std::vector<BatchScratch> scratch_pool(
        static_cast<std::size_t>(workers));

    parallel_for(
        mc.num_threads, num_samples,
        [&](std::size_t begin, std::size_t end, int worker) {
          obs::LocalCounter evals(obs, "abb.sta_evals");
          obs::LocalCounter batches(obs, "abb.batches");
          BatchScratch& sc = scratch_pool[static_cast<std::size_t>(worker)];
          sc.resize(n, block);
          // Per-lane ladder-selection state, reused across blocks. The
          // comparison sequence per lane is identical to the scalar sweep.
          std::vector<double> best_bias(block), best_leak(block),
              best_delay(block), fastest_delay(block), fastest_bias(block),
              fastest_leak(block);
          std::vector<char> any_feasible(block);
          std::size_t covered = begin;
          for (std::size_t s0 = begin; s0 < end; s0 += block) {
            if (stop.load(std::memory_order_relaxed)) break;
            if (deadline.expired()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            const std::size_t lanes = std::min(block, end - s0);
            evals.add(static_cast<double>(lanes) *
                      (1.0 + static_cast<double>(ladder.size())));
            batches.add();
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              sc.rngs[lane] = Rng::stream(mc.seed, s0 + lane);
              sc.dies[lane] = sample_global(var, sc.rngs[lane]);
            }
            draw_lanes(var, std::span(sc.dies).first(lanes),
                       std::span(sc.rngs).first(lanes), widths, sc.dl.data(),
                       sc.dv.data(), block);
            delay_kernel.critical_delay_block(
                sc.dl.data(), sc.dv.data(), block, lanes, mc.exact_delay,
                nullptr, sc.arrival.data(), sc.delay_out.data());
            leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block, lanes,
                                    nullptr, sc.leak_out.data());
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              result.baseline.delay_ps[s0 + lane] = sc.delay_out[lane];
              result.baseline.leakage_na[s0 + lane] = sc.leak_out[lane];
              best_bias[lane] = ladder.front();
              best_leak[lane] = std::numeric_limits<double>::infinity();
              best_delay[lane] = std::numeric_limits<double>::infinity();
              any_feasible[lane] = 0;
              fastest_delay[lane] = std::numeric_limits<double>::infinity();
              fastest_bias[lane] = 0.0;
              fastest_leak[lane] = 0.0;
            }
            // Sweep the ladder: min leakage subject to delay <= T; if
            // nothing meets T, the fastest (most forward) setting. The
            // whole block shares each ladder step, applied as a uniform
            // dVth shift inside the kernels — bitwise the same as the
            // scalar path's `biased[id].dvth_v += dvth` precompute.
            for (double vbb : ladder) {
              const double dvth = -abb.k_body_v_per_v * vbb;
              delay_kernel.critical_delay_block(
                  sc.dl.data(), sc.dv.data(), block, lanes, mc.exact_delay,
                  &dvth, sc.arrival.data(), sc.delay_out.data());
              leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block,
                                      lanes, &dvth, sc.leak_out.data());
              for (std::size_t lane = 0; lane < lanes; ++lane) {
                const double delay = sc.delay_out[lane];
                const double leak = sc.leak_out[lane];
                if (delay < fastest_delay[lane]) {
                  fastest_delay[lane] = delay;
                  fastest_bias[lane] = vbb;
                  fastest_leak[lane] = leak;
                }
                if (delay <= t_max_ps && leak < best_leak[lane]) {
                  any_feasible[lane] = 1;
                  best_leak[lane] = leak;
                  best_bias[lane] = vbb;
                  best_delay[lane] = delay;
                }
              }
            }
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              if (!any_feasible[lane]) {
                best_bias[lane] = fastest_bias[lane];
                best_delay[lane] = fastest_delay[lane];
                best_leak[lane] = fastest_leak[lane];
              }
              result.compensated.delay_ps[s0 + lane] = best_delay[lane];
              result.compensated.leakage_na[s0 + lane] = best_leak[lane];
              result.bias_v[s0 + lane] = best_bias[lane];
              if (fail_fast) {
                const std::uint8_t cause = die_health(s0 + lane);
                if (cause != 0) {
                  stop.store(true, std::memory_order_relaxed);
                  throw_sample_health(s0 + lane, cause);
                }
              }
            }
            covered = s0 + lanes;
          }
          log_run(worker, begin, covered);
        });
  } else {
    std::vector<std::vector<ParamSample>> sample_pool(
        static_cast<std::size_t>(workers));
    std::vector<std::vector<ParamSample>> biased_pool(
        static_cast<std::size_t>(workers));
    std::vector<std::vector<double>> scratch_pool(
        static_cast<std::size_t>(workers));
    parallel_for(
        mc.num_threads, num_samples,
        [&](std::size_t begin, std::size_t end, int worker) {
          obs::LocalCounter evals(obs, "abb.sta_evals");
          std::vector<ParamSample>& samples =
              sample_pool[static_cast<std::size_t>(worker)];
          samples.resize(n);
          std::vector<ParamSample>& biased =
              biased_pool[static_cast<std::size_t>(worker)];
          biased.resize(n);
          std::vector<double>& scratch =
              scratch_pool[static_cast<std::size_t>(worker)];
          std::size_t covered = begin;
          for (std::size_t s = begin; s < end; ++s) {
            if (stop.load(std::memory_order_relaxed)) break;
            if (deadline.expired()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            evals.add(1.0 + static_cast<double>(ladder.size()));
            Rng rng = Rng::stream(mc.seed, s);
            const GlobalSample die = sample_global(var, rng);
            for (std::size_t id = 0; id < n; ++id) {
              samples[id] = sample_gate(var, die, rng, widths[id]);
            }
            result.baseline.delay_ps[s] = sta.critical_delay_sample_ps(
                samples, mc.exact_delay, scratch);
            result.baseline.leakage_na[s] = leakage.total_sample_na(samples);

            // Sweep the ladder: min leakage subject to delay <= T; if
            // nothing meets T, the fastest (most forward) setting.
            double best_bias = ladder.front();
            double best_leak = std::numeric_limits<double>::infinity();
            double best_delay = std::numeric_limits<double>::infinity();
            bool any_feasible = false;
            double fastest_delay = std::numeric_limits<double>::infinity();
            double fastest_bias = 0.0;
            double fastest_leak = 0.0;
            for (double vbb : ladder) {
              const double dvth = -abb.k_body_v_per_v * vbb;
              for (std::size_t id = 0; id < n; ++id) {
                biased[id] = samples[id];
                biased[id].dvth_v += dvth;
              }
              const double delay = sta.critical_delay_sample_ps(
                  biased, mc.exact_delay, scratch);
              const double leak = leakage.total_sample_na(biased);
              if (delay < fastest_delay) {
                fastest_delay = delay;
                fastest_bias = vbb;
                fastest_leak = leak;
              }
              if (delay <= t_max_ps && leak < best_leak) {
                any_feasible = true;
                best_leak = leak;
                best_bias = vbb;
                best_delay = delay;
              }
            }
            if (!any_feasible) {
              best_bias = fastest_bias;
              best_delay = fastest_delay;
              best_leak = fastest_leak;
            }
            result.compensated.delay_ps[s] = best_delay;
            result.compensated.leakage_na[s] = best_leak;
            result.bias_v[s] = best_bias;
            if (fail_fast) {
              const std::uint8_t cause = die_health(s);
              if (cause != 0) {
                stop.store(true, std::memory_order_relaxed);
                throw_sample_health(s, cause);
              }
            }
            covered = s + 1;
          }
          log_run(worker, begin, covered);
        });
  }

  // Serial finalize: paired compaction — a die survives into baseline,
  // compensated and bias arrays together or not at all.
  std::vector<std::uint8_t> done(num_samples, 0);
  for (const auto& runs : computed_runs) {
    for (const SlotRun& r : runs) {
      std::fill(done.begin() + static_cast<std::ptrdiff_t>(r.first),
                done.begin() + static_cast<std::ptrdiff_t>(r.second), 1);
    }
  }
  std::size_t done_count = 0;
  for (std::uint8_t d : done) done_count += d;
  result.dies_done = done_count;
  result.completed = done_count == num_samples;
  result.baseline.samples_requested = num_samples;
  result.compensated.samples_requested = num_samples;
  std::vector<QuarantinedSample> quarantined;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (done[s] == 0) continue;
    const std::uint8_t cause = die_health(s);
    if (cause == 0) continue;
    if (fail_fast) throw_sample_health(s, cause);
    quarantined.push_back(
        {static_cast<std::uint64_t>(s), static_cast<HealthCause>(cause)});
  }
  if (!result.completed || !quarantined.empty()) {
    std::size_t q = 0;
    std::size_t out = 0;
    for (std::size_t s = 0; s < num_samples; ++s) {
      if (done[s] == 0) continue;
      if (q < quarantined.size() && quarantined[q].slot == s) {
        ++q;
        continue;
      }
      result.baseline.delay_ps[out] = result.baseline.delay_ps[s];
      result.baseline.leakage_na[out] = result.baseline.leakage_na[s];
      result.compensated.delay_ps[out] = result.compensated.delay_ps[s];
      result.compensated.leakage_na[out] = result.compensated.leakage_na[s];
      result.bias_v[out] = result.bias_v[s];
      ++out;
    }
    result.baseline.delay_ps.resize(out);
    result.baseline.leakage_na.resize(out);
    result.compensated.delay_ps.resize(out);
    result.compensated.leakage_na.resize(out);
    result.bias_v.resize(out);
  }
  result.baseline.completed = result.completed;
  result.compensated.completed = result.completed;
  result.baseline.samples_done = done_count;
  result.compensated.samples_done = done_count;
  result.baseline.quarantined = quarantined;
  result.compensated.quarantined = std::move(quarantined);

  if (obs != nullptr) {
    obs->add("abb.dies", static_cast<double>(result.bias_v.size()));
    if (!result.compensated.quarantined.empty()) {
      obs->add("abb.quarantined",
               static_cast<double>(result.compensated.quarantined.size()));
    }
    if (!result.completed) {
      obs->add("abb.dies_done", static_cast<double>(result.dies_done));
      obs->mark_incomplete("deadline");
    }
  }
  return result;
}

}  // namespace statleak
