#include "workloads.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "api/driver.hpp"
#include "gen/proxy.hpp"
#include "gen/scaling.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/bench_io.hpp"
#include "obs/registry.hpp"
#include "opt/deterministic.hpp"
#include "opt/metrics.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"

namespace statbench {

using namespace statleak;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workload parameters ---------------------------------------------------

constexpr double kEta = 0.99;              ///< timing-yield target
constexpr double kFlowTmaxFactor = 1.15;   ///< T = 1.15 x D_min
constexpr double kFlowDetCornerK = 1.5;    ///< deterministic guard-band
constexpr int kFlowMcSamples = 2000;       ///< flow's MC cross-check dies
constexpr double kOptTmaxFactor = 1.25;    ///< x generated critical delay
constexpr int kMcSamples = 150000;         ///< mc-c7552p dies
constexpr double kMcTmaxFactor = 1.1;      ///< prepare_mc_study's default
constexpr int kSelfTestMcSamples = 4000;   ///< mc-c880p (self-test) dies

// --- digests --------------------------------------------------------------

/// FNV-1a over the raw bytes of the values fed in.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void add(std::int64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Per-cell Vth and size, in gate-id order.
std::uint64_t impl_digest(const Circuit& c) {
  Fnv f;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    f.add(static_cast<std::int64_t>(g.vth));
    f.add(g.size);
  }
  return f.value();
}

/// OptResult counters plus the post-run measurement of the implementation.
std::uint64_t opt_digest(const OptResult& r, const CircuitMetrics& m) {
  Fnv f;
  for (std::int64_t v :
       {std::int64_t{r.completed}, std::int64_t{r.feasible},
        std::int64_t{r.sizing_commits}, std::int64_t{r.hvt_commits},
        std::int64_t{r.downsize_commits}, std::int64_t{r.rejected_moves},
        std::int64_t{r.iterations}, static_cast<std::int64_t>(m.hvt_count),
        static_cast<std::int64_t>(m.cell_count)}) {
    f.add(v);
  }
  for (double v : {r.final_objective, m.nominal_delay_ps, m.corner3_delay_ps,
                   m.ssta_delay_mean_ps, m.ssta_delay_sigma_ps, m.timing_yield,
                   m.leakage_nominal_na, m.leakage_mean_na, m.leakage_sigma_na,
                   m.leakage_p95_na, m.leakage_p99_na, m.area_um}) {
    f.add(v);
  }
  return f.value();
}

std::uint64_t mc_checks_digest(const McCheck& det, const McCheck& stat) {
  Fnv f;
  for (const McCheck* c : {&det, &stat}) {
    f.add(std::int64_t{c->completed});
    f.add(c->timing_yield);
    f.add(c->leakage_mean_na);
    f.add(c->leakage_p99_na);
  }
  return f.value();
}

/// The per-sample delay and leakage arrays.
std::uint64_t mc_digest(const McResult& r) {
  Fnv f;
  f.add(static_cast<std::int64_t>(r.delay_ps.size()));
  for (double v : r.delay_ps) f.add(v);
  for (double v : r.leakage_na) f.add(v);
  return f.value();
}

std::uint64_t targets_digest(double d_min_ps, double t_max_ps) {
  Fnv f;
  f.add(d_min_ps);
  f.add(t_max_ps);
  return f.value();
}

// --- invariants -----------------------------------------------------------

void check_opt(const char* label, const OptResult& r, const CircuitMetrics& m,
               bool yield_gate, std::vector<std::string>& errors) {
  const std::string who(label);
  if (!r.completed) errors.push_back(who + " optimizer did not complete");
  if (!r.feasible) errors.push_back(who + " solution is infeasible");
  if (r.replayed_moves > 0) {
    errors.push_back(who + " journal replayed " +
                     std::to_string(r.replayed_moves) + " moves");
  }
  if (yield_gate && !(m.timing_yield >= kEta)) {
    errors.push_back(who + " timing yield " + std::to_string(m.timing_yield) +
                     " below eta");
  }
}

void check_mc(const McResult& r, int samples, double t_max_ps,
              std::vector<std::string>& errors) {
  if (!r.completed) errors.push_back("mc did not complete");
  if (!(r.timing_yield(t_max_ps) >= kEta)) {
    errors.push_back("mc timing yield " +
                     std::to_string(r.timing_yield(t_max_ps)) + " below eta");
  }
  if (r.samples_restored > 0) {
    errors.push_back("mc checkpoint restored " +
                     std::to_string(r.samples_restored) + " samples");
  }
  if (r.delay_ps.size() != static_cast<std::size_t>(samples) ||
      !r.quarantined.empty()) {
    errors.push_back("mc returned " + std::to_string(r.delay_ps.size()) +
                     " of " + std::to_string(samples) + " samples");
  }
}

void check_exit(int code, std::vector<std::string>& errors) {
  if (code != 0) errors.push_back("exit code " + std::to_string(code));
}

// --- tracing helpers --------------------------------------------------------

/// Top-level spans timed around public calls, accumulated by layer metric.
class Ledger {
 public:
  explicit Ledger(TracedResult& out) : out_(out), start_(Clock::now()) {}

  template <class F>
  auto span(const char* layer, F&& call) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      call();
      record(layer, seconds_since(t0));
    } else {
      auto result = call();
      record(layer, seconds_since(t0));
      return result;
    }
  }

  /// Closes the traced wall clock.
  void finish() { out_.wall_s = seconds_since(start_); }

 private:
  void record(const char* layer, double s) {
    out_.layers[layer] += s;
    out_.spans_s += s;
  }

  TracedResult& out_;
  Clock::time_point start_;
};

double phase_s(const obs::Registry& reg, std::string_view name) {
  for (const obs::PhaseTime& p : reg.phases()) {
    if (p.name == name) return p.seconds;
  }
  return 0.0;
}

double counter_sum(const obs::Registry& reg,
                   std::initializer_list<std::string_view> names) {
  double s = 0.0;
  for (std::string_view n : names) s += reg.counter_value(n);
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// Reads the counters and phases the registry already records into the
/// per-layer metrics. Layers a workload does not exercise read as 0.
void read_registry(const obs::Registry& reg, TracedResult& out) {
  auto& L = out.layers;
  if (reg.counter_value("opt.journal_replayed") > 0.0) {
    out.errors.push_back("optimizer journal replayed moves");
  }

  L["det.sizing_s"] = phase_s(reg, "det.sizing");
  L["det.assign_s"] = phase_s(reg, "det.assign");
  L["det.iterations"] = reg.counter_value("det.iterations");
  L["det.rejected_moves"] = reg.counter_value("det.rejected_moves");
  const double det_commits = counter_sum(
      reg, {"det.commits.sizing", "det.commits.hvt", "det.commits.downsize"});
  L["det.accept_ratio"] =
      ratio(det_commits, det_commits + L["det.rejected_moves"]);

  L["stat.sizing_s"] = phase_s(reg, "stat.sizing");
  L["stat.assign_s"] = phase_s(reg, "stat.assign");
  L["stat.score_s"] = phase_s(reg, "stat.score");
  // stat.score accumulates the scoring scans of both scored phases, so the
  // serial remainder is taken over both.
  L["stat.unscored_s"] =
      L["stat.sizing_s"] + L["stat.assign_s"] - L["stat.score_s"];
  L["stat.iterations"] = reg.counter_value("stat.iterations");
  L["stat.commits"] =
      counter_sum(reg, {"stat.commits.sizing", "stat.commits.hvt",
                        "stat.commits.downsize"});
  L["stat.rejected_moves"] = reg.counter_value("stat.rejected_moves");
  L["stat.accept_ratio"] =
      ratio(L["stat.commits"], L["stat.commits"] + L["stat.rejected_moves"]);

  // Scalar and flat incremental engines count under their own names; the
  // ledger reports whichever ran.
  L["ssta.cone_gates_retimed"] = counter_sum(
      reg, {"ssta.cone_gates_retimed", "ssta.flat_cone_gates_retimed"});
  L["ssta.incremental_passes"] = counter_sum(
      reg, {"ssta.incremental_passes", "ssta.flat_incremental_passes"});
  L["ssta.full_passes"] =
      counter_sum(reg, {"ssta.full_passes", "ssta.flat_full_passes"});
  L["ssta.gates_per_pass"] =
      ratio(L["ssta.cone_gates_retimed"], L["ssta.incremental_passes"]);

  L["score.candidate_blocks"] = reg.counter_value("opt.candidate_blocks");
  L["score.pruned_candidates"] = reg.counter_value("opt.pruned_candidates");
  double block = 0.0;
  for (const auto& [key, value] : reg.config()) {
    if (key == "opt.candidate_block") block = std::stod(value.first);
  }
  L["score.prune_ratio"] =
      ratio(L["score.pruned_candidates"], L["score.candidate_blocks"] * block);

  L["mc.samples_s"] = phase_s(reg, "mc.samples");
  L["mc.batches"] = reg.counter_value("mc.batches");
  L["mc.sta_evals"] = reg.counter_value("mc.sta_evals");

  L["opt.journal_records"] = reg.counter_value("opt.journal_records");
  L["opt.journal_snapshots"] = reg.counter_value("opt.journal_snapshots");
}

/// Time at 1 thread / time at the larger thread count, from a call at the
/// workload's threads and the same call at the reference threads.
double thread_speedup(const RunContext& ctx, double own_s, double ref_s) {
  return ctx.threads < ctx.reference_threads ? own_s / ref_s : ref_s / own_s;
}

std::string reference_mismatch(const RunContext& ctx, const char* digest) {
  return std::to_string(ctx.reference_threads) + "-thread reference digest '" +
         digest + "' differs from the " + std::to_string(ctx.threads) +
         "-thread call";
}

api::StudyInput study_input(const Prepared& in) {
  api::StudyInput s;
  s.bench_text = in.bench_text;
  s.circuit_name = in.circuit_name;
  return s;
}

/// The library load_study resolves for the default 100 nm node.
CellLibrary default_library() {
  return CellLibrary(at_corner(generic_100nm(), 0.0, 0.0));
}

Prepared prepare(const Circuit& c, int mc_samples) {
  Prepared p;
  p.bench_text = write_bench_string(c);
  p.circuit_name = c.name();
  p.cells = c.num_cells();
  p.mc_samples = mc_samples;
  return p;
}

// --- flow: the paper's iso-yield experiment --------------------------------

FlowConfig flow_config(const Prepared& in, const RunContext& ctx) {
  FlowConfig f;
  f.t_max_factor = kFlowTmaxFactor;
  f.yield_target = kEta;
  f.det_corner_k = kFlowDetCornerK;
  f.mc_samples = in.mc_samples;
  f.num_threads = ctx.threads;
  f.seed = ctx.seed;
  f.opt_checkpoint_path = ctx.files.journal;
  return f;
}

void flow_digests(const FlowOutcome& o, Digests& d) {
  d["targets"] = targets_digest(o.d_min_ps, o.t_max_ps);
  d["det"] = opt_digest(o.det_result, o.det_metrics);
  d["stat"] = opt_digest(o.stat_result, o.stat_metrics);
  d["mc"] = mc_checks_digest(o.det_mc, o.stat_mc);
}

void flow_checks(const FlowOutcome& o, std::vector<std::string>& errors) {
  check_opt("det", o.det_result, o.det_metrics, false, errors);
  check_opt("stat", o.stat_result, o.stat_metrics, true, errors);
  if (!o.det_mc.completed || !o.stat_mc.completed) {
    errors.push_back("flow MC cross-check did not complete");
  }
}

OpResult run_flow(const Prepared& in, const RunContext& ctx) {
  api::FlowCommandConfig cfg;
  cfg.input = study_input(in);
  cfg.flow = flow_config(in, ctx);
  OpResult out;
  const auto t0 = Clock::now();
  const api::FlowCommandResult r = api::run_flow_command(cfg);
  out.wall_s = seconds_since(t0);
  const FlowOutcome& o = r.outcome;
  check_exit(r.exit_code(), out.errors);
  flow_checks(o, out.errors);
  out.work = o.det_result.iterations + o.stat_result.iterations;
  out.leakage_p99_na = o.stat_metrics.leakage_p99_na;
  out.timing_yield = o.stat_metrics.timing_yield;
  out.p99_saving = o.p99_saving();
  flow_digests(o, out.digests);
  return out;
}

McCheck mc_check(const Circuit& c, const CellLibrary& lib,
                 const VariationModel& var, double t_max_ps,
                 const FlowConfig& cfg, std::uint64_t seed,
                 obs::Registry* reg) {
  McConfig mc;
  mc.num_samples = cfg.mc_samples;
  mc.batch_size = cfg.mc_batch_size;
  mc.seed = seed;
  mc.num_threads = cfg.num_threads;
  const McResult res = run_monte_carlo(c, lib, var, mc, reg);
  McCheck check;
  check.completed = res.completed;
  if (!res.delay_ps.empty()) {
    check.timing_yield = res.timing_yield(t_max_ps);
    check.leakage_mean_na = res.leakage_summary().mean;
    check.leakage_p99_na = res.leakage_quantile_na(0.99);
  }
  return check;
}

/// run_flow's sequence (report/flow.cpp), one public call at a time.
TracedResult traced_flow(const Prepared& in, const RunContext& ctx) {
  const FlowConfig cfg = flow_config(in, ctx);
  obs::Registry reg;
  TracedResult out;
  Ledger ledger(out);

  api::LoadedStudy study = ledger.span(
      "netlist.load_s", [&] { return api::load_study(study_input(in)); });
  const CellLibrary& lib = study.lib;
  const VariationModel& var = study.var;

  FlowOutcome o;
  o.d_min_ps = ledger.span("report.d_min_s", [&] {
    return min_achievable_delay_ps(study.circuit, lib);
  });
  o.t_max_ps = cfg.t_max_factor * o.d_min_ps;

  OptConfig base;
  base.t_max_ps = o.t_max_ps;
  base.yield_target = cfg.yield_target;
  base.leakage_percentile = cfg.leakage_percentile;
  base.num_threads = cfg.num_threads;
  base.flat_engine = cfg.opt_flat_engine;
  base.candidate_block = cfg.opt_candidate_block;

  Circuit det = study.circuit;
  OptConfig det_cfg = base;
  det_cfg.corner_k_sigma = cfg.det_corner_k;
  o.det_result = ledger.span("det.run_s", [&] {
    return DeterministicOptimizer(lib, var, det_cfg).run(det, &reg);
  });
  o.det_metrics = ledger.span("metrics.measure_s", [&] {
    return measure_metrics(det, lib, var, o.t_max_ps);
  });
  o.det_mc = ledger.span("mc.run_s", [&] {
    return mc_check(det, lib, var, o.t_max_ps, cfg, cfg.seed, &reg);
  });

  OptConfig stat_cfg = base;
  stat_cfg.checkpoint_path = cfg.opt_checkpoint_path;
  stat_cfg.checkpoint_every = cfg.opt_checkpoint_every;
  o.stat_result = ledger.span("stat.run_s", [&] {
    return StatisticalOptimizer(lib, var, stat_cfg).run(study.circuit, &reg);
  });
  o.stat_metrics = ledger.span("metrics.measure_s", [&] {
    return measure_metrics(study.circuit, lib, var, o.t_max_ps);
  });
  o.stat_mc = ledger.span("mc.run_s", [&] {
    return mc_check(study.circuit, lib, var, o.t_max_ps, cfg, cfg.seed + 1,
                    &reg);
  });
  ledger.finish();

  flow_checks(o, out.errors);
  flow_digests(o, out.digests);
  out.digests["det.impl"] = impl_digest(det);
  out.digests["stat.impl"] = impl_digest(study.circuit);
  read_registry(reg, out);
  out.layers["netlist.cells"] = static_cast<double>(in.cells);
  out.layers["opt.journal_bytes"] = file_bytes(ctx.files.journal);
  return out;
}

Prepared setup_proxy(const char* name) {
  return prepare(iscas85_proxy(name), kFlowMcSamples);
}

Prepared setup_flow_c7552p(std::uint64_t) { return setup_proxy("c7552p"); }
Prepared setup_flow_c880p(std::uint64_t) { return setup_proxy("c880p"); }
Prepared setup_mc_c880p(std::uint64_t) {
  return prepare(iscas85_proxy("c880p"), kSelfTestMcSamples);
}

// --- opt: the statistical optimizer at 10^4 gates ---------------------------

/// Reorders the gate definitions of .bench text by a seeded shuffle. The
/// circuit is the same; the reader assigns gate ids in definition order, so
/// the program sees another gate numbering and memory layout.
std::string shuffle_definitions(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> head, defs;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    (line.find(" = ") == std::string::npos ? head : defs).push_back(line);
  }
  Rng rng(seed);
  for (std::size_t i = defs.size(); i > 1; --i) {
    std::swap(defs[i - 1], defs[rng() % i]);
  }
  std::string out;
  for (const auto* part : {&head, &defs}) {
    for (const std::string& line : *part) out += line + "\n";
  }
  return out;
}

Prepared setup_opt_s10k(std::uint64_t seed) {
  const Circuit c = scaling_circuit("s10k");
  Prepared p = prepare(c, 0);
  if (seed != kDefaultSeed) {
    p.bench_text = shuffle_definitions(p.bench_text, seed);
  }
  const CellLibrary lib = default_library();
  p.t_max_ps = kOptTmaxFactor * StaEngine(c, lib).critical_delay_ps();
  return p;
}

OptConfig opt_config(const Prepared& in, int threads) {
  OptConfig opt;
  opt.t_max_ps = in.t_max_ps;
  opt.yield_target = kEta;
  opt.num_threads = threads;
  return opt;
}

OpResult run_opt(const Prepared& in, const RunContext& ctx) {
  api::OptimizeCommandConfig cfg;
  cfg.input = study_input(in);
  cfg.opt = opt_config(in, ctx.threads);
  cfg.flow = api::OptimizeFlow::kStat;
  OpResult out;
  const auto t0 = Clock::now();
  const api::OptimizeCommandResult r = api::run_optimize_command(cfg);
  out.wall_s = seconds_since(t0);
  check_exit(r.exit_code(), out.errors);
  check_opt("stat", r.result, r.metrics, true, out.errors);
  out.work = r.result.iterations;
  out.leakage_p99_na = r.metrics.leakage_p99_na;
  out.timing_yield = r.metrics.timing_yield;
  out.digests["stat"] = opt_digest(r.result, r.metrics);
  out.digests["stat.impl"] = impl_digest(r.circuit);
  return out;
}

/// run_optimize_command's sequence (api/driver.cpp), one call at a time.
TracedResult traced_opt(const Prepared& in, const RunContext& ctx) {
  const OptConfig opt = opt_config(in, ctx.threads);
  obs::Registry reg;
  TracedResult out;
  Ledger ledger(out);

  api::LoadedStudy study = ledger.span(
      "netlist.load_s", [&] { return api::load_study(study_input(in)); });
  const Circuit loaded = study.circuit;  // starting point of the reference
  const OptResult r = ledger.span("stat.run_s", [&] {
    return StatisticalOptimizer(study.lib, study.var, opt)
        .run(study.circuit, &reg);
  });
  const CircuitMetrics m = ledger.span("metrics.measure_s", [&] {
    return measure_metrics(study.circuit, study.lib, study.var, opt.t_max_ps);
  });
  ledger.finish();

  check_opt("stat", r, m, true, out.errors);
  out.digests["stat"] = opt_digest(r, m);
  out.digests["stat.impl"] = impl_digest(study.circuit);
  read_registry(reg, out);
  out.layers["netlist.cells"] = static_cast<double>(in.cells);

  if (ctx.reference_threads > 0) {
    OptConfig ref = opt;
    ref.num_threads = ctx.reference_threads;
    Circuit c = loaded;
    obs::Registry ref_reg;
    const auto t0 = Clock::now();
    const OptResult r1 =
        StatisticalOptimizer(study.lib, study.var, ref).run(c, &ref_reg);
    out.layers["stat.thread_speedup"] = thread_speedup(
        ctx, out.layers["stat.run_s"], seconds_since(t0));
    const CircuitMetrics m1 =
        measure_metrics(c, study.lib, study.var, opt.t_max_ps);
    if (opt_digest(r1, m1) != out.digests["stat"] ||
        impl_digest(c) != out.digests["stat.impl"]) {
      out.errors.push_back(reference_mismatch(ctx, "stat"));
    }
  }
  return out;
}

// --- mc: Monte Carlo at the generated implementation ------------------------

Prepared setup_mc_c7552p(std::uint64_t) {
  return prepare(iscas85_proxy("c7552p"), kMcSamples);
}

McConfig mc_config(const Prepared& in, const RunContext& ctx) {
  McConfig mc;
  mc.num_samples = in.mc_samples;
  mc.num_threads = ctx.threads;
  mc.seed = ctx.seed;
  mc.checkpoint_path = ctx.files.checkpoint;
  return mc;
}

OpResult run_mc(const Prepared& in, const RunContext& ctx) {
  api::McCommandConfig cfg;
  cfg.input = study_input(in);
  cfg.mc = mc_config(in, ctx);
  OpResult out;
  const auto t0 = Clock::now();
  const api::McCommandResult r = api::run_mc_command(cfg);
  out.wall_s = seconds_since(t0);
  check_exit(r.exit_code(), out.errors);
  check_mc(r.result, in.mc_samples, r.t_max_ps, out.errors);
  out.work = static_cast<double>(r.result.delay_ps.size());
  out.leakage_p99_na = r.result.leakage_quantile_na(0.99);
  out.timing_yield = r.result.timing_yield(r.t_max_ps);
  out.digests["mc"] = mc_digest(r.result);
  out.digests["targets"] = targets_digest(0.0, r.t_max_ps);
  return out;
}

/// run_mc_command's sequence (api/driver.cpp), one call at a time.
TracedResult traced_mc(const Prepared& in, const RunContext& ctx) {
  const McConfig mc = mc_config(in, ctx);
  obs::Registry reg;
  TracedResult out;
  Ledger ledger(out);

  const api::LoadedStudy study = ledger.span(
      "netlist.load_s", [&] { return api::load_study(study_input(in)); });
  // prepare_mc_study's default target: 1.1 x nominal critical delay.
  const double t_max_ps = ledger.span("sta.target_s", [&] {
    return kMcTmaxFactor *
           StaEngine(study.circuit, study.lib).critical_delay_ps();
  });
  const McResult r = ledger.span("mc.run_s", [&] {
    return run_monte_carlo(study.circuit, study.lib, study.var, mc, &reg);
  });
  ledger.finish();

  check_mc(r, in.mc_samples, t_max_ps, out.errors);
  out.digests["mc"] = mc_digest(r);
  out.digests["targets"] = targets_digest(0.0, t_max_ps);
  read_registry(reg, out);
  out.layers["netlist.cells"] = static_cast<double>(in.cells);
  out.layers["mc.checkpoint_bytes"] = file_bytes(ctx.files.checkpoint);

  if (ctx.reference_threads > 0) {
    McConfig ref = mc;
    ref.num_threads = ctx.reference_threads;
    ref.checkpoint_path = ctx.files.checkpoint + ".ref";
    obs::Registry ref_reg;
    const auto t0 = Clock::now();
    const McResult r1 =
        run_monte_carlo(study.circuit, study.lib, study.var, ref, &ref_reg);
    out.layers["mc.thread_speedup"] =
        thread_speedup(ctx, out.layers["mc.run_s"], seconds_since(t0));
    check_mc(r1, in.mc_samples, t_max_ps, out.errors);
    if (mc_digest(r1) != out.digests["mc"]) {
      out.errors.push_back(reference_mismatch(ctx, "mc"));
    }
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"flow-c7552p", 1, 0, "moves_per_s", setup_flow_c7552p, run_flow,
       traced_flow},
      {"opt-s10k", 1, 4, "moves_per_s", setup_opt_s10k, run_opt, traced_opt},
      {"mc-c7552p", 4, 1, "samples_per_s", setup_mc_c7552p, run_mc,
       traced_mc},
  };
  return all;
}

const std::vector<Workload>& selftest_workloads() {
  static const std::vector<Workload> all = {
      {"flow-c880p", 1, 0, "moves_per_s", setup_flow_c880p, run_flow,
       traced_flow},
      {"mc-c880p", 4, 1, "samples_per_s", setup_mc_c880p, run_mc, traced_mc},
  };
  return all;
}

const Digests& pinned_digests(const std::string& workload) {
  // Pinned from a Release build at kDefaultSeed. A change that moves any
  // of these changed the optimization trajectory or the sampled dies.
  static const std::map<std::string, Digests> pins = {
      {"flow-c7552p",
       {{"targets", 0xd85f6f265708c02bULL},
        {"det", 0x2af5400854b5c5f0ULL},
        {"det.impl", 0x0b1fed3c3f9c4164ULL},
        {"stat", 0xb0766d0bb7487513ULL},
        {"stat.impl", 0x4a9e42fdb98904efULL},
        {"mc", 0x33821cbcaadfff30ULL}}},
      {"opt-s10k",
       {{"stat", 0x54fd6c7b1be6a1a2ULL},
        {"stat.impl", 0x96176ca7a5861b1eULL}}},
      {"mc-c7552p",
       {{"targets", 0xa2685bdbdc458cc1ULL},
        {"mc", 0x460d63c79f50ce1fULL}}},
  };
  static const Digests none;
  const auto it = pins.find(workload);
  return it == pins.end() ? none : it->second;
}

}  // namespace statbench
