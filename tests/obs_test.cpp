/// \file obs_test.cpp
/// \brief Observability layer: registry semantics, JSON round-trips, the
///        golden run-report schema, trace/iteration invariants, and the
///        "observation never changes results" contract.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "statleak.hpp"

namespace statleak {
namespace {

// ------------------------------------------------------------- registry ---

TEST(Registry, CountersAccumulateAndGaugesOverwrite) {
  obs::Registry reg;
  reg.add("a.count", 2.0);
  reg.add("a.count", 3.0);
  reg.add("b.count", 1.0);
  reg.set_gauge("g", 1.0);
  reg.set_gauge("g", 2.5);

  EXPECT_DOUBLE_EQ(reg.counter_value("a.count"), 5.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("b.count"), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing", -1.0), -1.0);

  const auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.count");  // sorted by name
  EXPECT_EQ(counters[1].first, "b.count");
}

TEST(Registry, PhasesAccumulateInFirstSeenOrder) {
  obs::Registry reg;
  reg.add_phase_s("late", 0.25);
  reg.add_phase_s("early", 1.0);
  reg.add_phase_s("late", 0.75);

  const auto phases = reg.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "late");  // insertion order, not sorted
  EXPECT_DOUBLE_EQ(phases[0].seconds, 1.0);
  EXPECT_EQ(phases[0].calls, 2);
  EXPECT_EQ(phases[1].name, "early");
  EXPECT_EQ(phases[1].calls, 1);
}

TEST(Registry, LocalCounterMergesOncePerScope) {
  obs::Registry reg;
  {
    obs::LocalCounter local(&reg, "work");
    local.add();
    local.add(2.0);
    // Nothing merged until the scope ends.
    EXPECT_DOUBLE_EQ(reg.counter_value("work"), 0.0);
    EXPECT_DOUBLE_EQ(local.pending(), 3.0);
  }
  EXPECT_DOUBLE_EQ(reg.counter_value("work"), 3.0);

  // Null registry: increments are collected but never merged anywhere.
  obs::LocalCounter detached(nullptr, "work");
  detached.add(100.0);
  detached.flush();
  EXPECT_DOUBLE_EQ(reg.counter_value("work"), 3.0);
}

TEST(Registry, LocalCountersMergeFromManyThreads) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      obs::LocalCounter local(&reg, "thread.work");
      for (int i = 0; i < kAddsPerThread; ++i) local.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(reg.counter_value("thread.work"),
                   static_cast<double>(kThreads) * kAddsPerThread);
}

TEST(Registry, ScopedTimerRecordsOneCallAndIsIdempotent) {
  obs::Registry reg;
  {
    obs::ScopedTimer timer(&reg, "p");
    timer.stop();
    timer.stop();  // second stop is a no-op
  }                // destructor after stop() is also a no-op
  const auto phases = reg.phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].calls, 1);
  EXPECT_GE(phases[0].seconds, 0.0);

  obs::ScopedTimer null_timer(nullptr, "p");  // must not crash or record
  null_timer.stop();
  EXPECT_EQ(reg.phases()[0].calls, 1);
}

TEST(Registry, LocalTimerMergesItsLapsAsOneCall) {
  obs::Registry reg;
  {
    obs::LocalTimer timer(&reg, "laps");
    for (int i = 0; i < 3; ++i) {
      timer.start();
      timer.stop();
    }
    obs::LocalTimer idle(&reg, "idle");  // no laps: merges nothing
  }
  const auto phases = reg.phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "laps");
  EXPECT_EQ(phases[0].calls, 1);
  EXPECT_GE(phases[0].seconds, 0.0);

  obs::LocalTimer null_timer(nullptr, "laps");  // must not crash or record
  null_timer.start();
  null_timer.stop();
  null_timer.flush();
  EXPECT_EQ(reg.phases()[0].calls, 1);
}

TEST(Registry, TraceStreamsKeepEventOrder) {
  obs::Registry reg;
  for (int i = 1; i <= 3; ++i) {
    obs::TraceEvent e;
    e.step = i;
    e.phase = "sizing";
    reg.trace("stat", e);
  }
  obs::TraceEvent other;
  other.step = 7;
  reg.trace("det", other);

  const auto streams = reg.trace_streams();
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0], "det");  // sorted
  EXPECT_EQ(streams[1], "stat");
  const auto events = reg.trace_events("stat");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, 1);
  EXPECT_EQ(events[2].step, 3);
  EXPECT_TRUE(reg.trace_events("absent").empty());
}

// ----------------------------------------------------------------- JSON ---

TEST(Json, DumpCompactAndPretty) {
  obs::Json doc = obs::Json::object();
  doc.set("n", 1.5);
  doc.set("s", "a\"b");
  doc.set("flag", true);
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back(nullptr);
  doc.set("xs", std::move(arr));

  EXPECT_EQ(doc.dump(),
            "{\"n\": 1.5, \"s\": \"a\\\"b\", \"flag\": true, \"xs\": [1, null]}");
  EXPECT_EQ(doc.dump(2),
            "{\n  \"n\": 1.5,\n  \"s\": \"a\\\"b\",\n  \"flag\": true,\n"
            "  \"xs\": [\n    1,\n    null\n  ]\n}\n");
}

TEST(Json, ObjectsPreserveInsertionOrderAndSetOverwrites) {
  obs::Json doc = obs::Json::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("z", 3);  // overwrite keeps the original position
  EXPECT_EQ(doc.dump(), "{\"z\": 3, \"a\": 2}");
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("b"));
  EXPECT_EQ(doc.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(doc.at("z").as_number(), 3.0);
}

TEST(Json, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(obs::format_json_number(0.0), "0");
  EXPECT_EQ(obs::format_json_number(-0.0), "0");
  EXPECT_EQ(obs::format_json_number(100.0), "100");
  EXPECT_EQ(obs::format_json_number(0.75), "0.75");
  EXPECT_EQ(obs::format_json_number(1.0 / 3.0), "0.3333333333333333");
  // JSON cannot express non-finite values.
  EXPECT_EQ(obs::format_json_number(
                std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::format_json_number(
                std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, ParseRoundTripsItsOwnOutput) {
  const std::string text =
      R"({"a": [1, 2.5, -3e-2], "b": {"nested": "ué"}, "c": null,)"
      R"( "d": false, "e": "tab\there"})";
  const obs::Json doc = obs::Json::parse(text);
  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(obs::Json::parse(doc.dump()).dump(), doc.dump());
  EXPECT_EQ(obs::Json::parse(doc.dump(2)).dump(2), doc.dump(2));
  EXPECT_DOUBLE_EQ(doc.at("a").as_array()[2].as_number(), -3e-2);
  EXPECT_EQ(doc.at("b").at("nested").as_string(), "u\xc3\xa9");
  EXPECT_TRUE(doc.at("c").is_null());
  EXPECT_FALSE(doc.at("d").as_bool());
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "\"open",
                          "1.2.3", "{} trailing", "[1 2]", "nul",
                          "\"bad\\q\"", ""}) {
    EXPECT_THROW((void)obs::Json::parse(bad), Error) << "input: " << bad;
  }
}

TEST(Json, RejectsTruncatedDocuments) {
  // Prefixes of a valid document cut at every structural boundary: the
  // parser must reject each one with a structured Error, never read past
  // the end or loop.
  const std::string full =
      R"({"a": [1, {"b": "text"}, null], "c": {"d": [true, 2e3]}})";
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW((void)obs::Json::parse(full.substr(0, len)), Error)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW((void)obs::Json::parse(full));
}

TEST(Json, RejectsOversizedNestingDepth) {
  // parse() bounds recursion at 256 levels so hostile or corrupt input
  // cannot overflow the stack. 255 arrays parse; 300 are rejected with a
  // depth diagnostic, not a crash.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)obs::Json::parse(nested(255)));
  try {
    (void)obs::Json::parse(nested(300));
    FAIL() << "300-deep nesting accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // Mixed object/array nesting hits the same bound.
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += "{\"k\": [";
  EXPECT_THROW((void)obs::Json::parse(mixed), Error);
}

TEST(Json, TypeMismatchesThrow) {
  const obs::Json num(1.0);
  EXPECT_THROW((void)num.as_string(), Error);
  EXPECT_THROW((void)num.as_object(), Error);
  obs::Json obj = obs::Json::object();
  EXPECT_THROW((void)obj.at("missing"), Error);
  EXPECT_THROW((void)obj.push_back(1), Error);
}

// ----------------------------------------------------------- run report ---

/// Pins the exact bytes of a version-1 report. If this fails, either the
/// change is accidental, or the schema changed — then bump
/// kReportSchemaVersion and regenerate this golden text with it.
TEST(RunReport, GoldenFile) {
  obs::Registry reg;
  reg.note_config("circuit", "c17");
  reg.note_config_num("samples", std::int64_t{100});
  reg.note_config_num("exact", true);
  reg.add_phase_s("mc.samples", 0.5);
  reg.add("mc.sta_evals", 100.0);
  reg.set_gauge("mc.timing_yield", 0.75);
  obs::TraceEvent e;
  e.step = 100;
  e.phase = "samples";
  e.objective = 12.5;
  reg.trace("mc", e);

  const std::string expected = R"({
  "schema_version": 2,
  "tool": "statleak",
  "tool_version": "1.0.0",
  "completed": true,
  "incomplete_reason": "",
  "config": {
    "circuit": "c17",
    "exact": true,
    "samples": 100
  },
  "phases": [
    {
      "name": "mc.samples",
      "seconds": 0.5,
      "calls": 1
    }
  ],
  "counters": {
    "mc.sta_evals": 100
  },
  "gauges": {
    "mc.timing_yield": 0.75
  },
  "traces": {
    "mc": [
      {
        "step": 100,
        "phase": "samples",
        "objective": 12.5,
        "yield": 0,
        "delay_ps": 0,
        "commits": 0,
        "rejected": 0
      }
    ]
  }
}
)";
  EXPECT_EQ(obs::run_report_json(reg), expected);
}

TEST(RunReport, SchemaVersionLeadsAndSectionsAreTyped) {
  obs::Registry reg;
  reg.add("c", 1.0);
  const obs::Json report =
      obs::Json::parse(obs::run_report_json(reg));  // round-trip through text

  const auto& members = report.as_object();
  ASSERT_FALSE(members.empty());
  EXPECT_EQ(members[0].first, "schema_version");
  EXPECT_DOUBLE_EQ(members[0].second.as_number(), obs::kReportSchemaVersion);
  EXPECT_EQ(report.at("tool").as_string(), "statleak");
  EXPECT_TRUE(report.at("config").is_object());
  EXPECT_TRUE(report.at("phases").is_array());
  EXPECT_TRUE(report.at("counters").is_object());
  EXPECT_TRUE(report.at("gauges").is_object());
  EXPECT_TRUE(report.at("traces").is_object());
  EXPECT_DOUBLE_EQ(report.at("counters").at("c").as_number(), 1.0);
}

TEST(RunReport, IncompleteRunsAreFlagged) {
  obs::Registry reg;
  EXPECT_TRUE(reg.completed());
  reg.mark_incomplete("deadline");
  reg.mark_incomplete("quarantine");  // first reason wins
  EXPECT_FALSE(reg.completed());
  EXPECT_EQ(reg.incomplete_reason(), "deadline");

  const obs::Json report = obs::Json::parse(obs::run_report_json(reg));
  EXPECT_FALSE(report.at("completed").as_bool());
  EXPECT_EQ(report.at("incomplete_reason").as_string(), "deadline");
}

TEST(RunReport, DeadlineStoppedMcReportsIncomplete) {
  // End to end: a deadline-stopped MC run marks its registry, and the
  // emitted report carries "completed": false plus the partial-progress
  // counter. (1 ms against 50k samples; on a machine fast enough to finish
  // anyway the run is simply complete — both outcomes must be coherent.)
  CellLibrary lib{generic_100nm()};
  const VariationModel var = VariationModel::typical_100nm();
  const Circuit circuit = make_carry_lookahead_adder(8);
  McConfig cfg;
  cfg.num_samples = 50000;
  cfg.deadline_ms = 1;
  obs::Registry reg;
  const McResult res = run_monte_carlo(circuit, lib, var, cfg, &reg);
  EXPECT_EQ(res.completed, reg.completed());
  const obs::Json report = obs::Json::parse(obs::run_report_json(reg));
  EXPECT_EQ(report.at("completed").as_bool(), res.completed);
  if (!res.completed) {
    EXPECT_EQ(report.at("incomplete_reason").as_string(), "deadline");
    EXPECT_DOUBLE_EQ(report.at("counters").at("mc.samples_done").as_number(),
                     static_cast<double>(res.samples_done));
  }
}

// ----------------------------------------------------------- ExecConfig ---

TEST(ExecConfig, IsTheSharedBaseOfEveryRunConfig) {
  static_assert(std::is_base_of_v<ExecConfig, McConfig>);
  static_assert(std::is_base_of_v<ExecConfig, OptConfig>);
  static_assert(std::is_base_of_v<ExecConfig, FlowConfig>);
  static_assert(std::is_base_of_v<ExecConfig, MlvConfig>);

  // Historical per-config seed defaults survive the unification — golden
  // results everywhere depend on them.
  EXPECT_EQ(McConfig{}.seed, 42u);
  EXPECT_EQ(FlowConfig{}.seed, 7u);
  EXPECT_EQ(MlvConfig{}.seed, 1u);
  EXPECT_EQ(McConfig{}.num_threads, 0);  // 0 = all hardware threads
}

// ------------------------------------------- engine/observer invariants ---

struct OptFixture {
  CellLibrary lib{generic_100nm()};
  VariationModel var = VariationModel::typical_100nm();
  Circuit circuit = make_carry_lookahead_adder(8);
  OptConfig cfg;

  OptFixture() {
    cfg.t_max_ps = 1.2 * StaEngine(circuit, lib).critical_delay_ps();
    cfg.yield_target = 0.95;
  }
};

void expect_same_implementation(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (GateId id = 0; id < a.num_gates(); ++id) {
    EXPECT_EQ(a.gate(id).size, b.gate(id).size) << "gate " << id;
    EXPECT_EQ(a.gate(id).vth, b.gate(id).vth) << "gate " << id;
  }
}

TEST(Instrumentation, StatisticalTraceCountEqualsIterations) {
  OptFixture f;
  obs::Registry reg;
  const OptResult result =
      StatisticalOptimizer(f.lib, f.var, f.cfg).run(f.circuit, &reg);

  ASSERT_GT(result.iterations, 0);
  EXPECT_EQ(reg.trace_events("stat").size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_DOUBLE_EQ(reg.counter_value("stat.iterations"), result.iterations);
  EXPECT_DOUBLE_EQ(reg.counter_value("stat.commits.hvt"),
                   result.hvt_commits);
  EXPECT_DOUBLE_EQ(reg.counter_value("stat.rejected_moves"),
                   result.rejected_moves);
  // Steps are monotone non-decreasing (one event per loop iteration).
  const auto events = reg.trace_events("stat");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].step, events[i].step);
  }
  // The optimizer's phases were timed.
  bool saw_total = false;
  for (const auto& p : reg.phases()) saw_total |= p.name == "stat.total";
  EXPECT_TRUE(saw_total);
}

TEST(Instrumentation, DeterministicTraceCountEqualsIterations) {
  OptFixture f;
  f.cfg.corner_k_sigma = 3.0;
  obs::Registry reg;
  const OptResult result =
      DeterministicOptimizer(f.lib, f.var, f.cfg).run(f.circuit, &reg);

  ASSERT_GT(result.iterations, 0);
  EXPECT_EQ(reg.trace_events("det").size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_DOUBLE_EQ(reg.counter_value("det.iterations"), result.iterations);
}

TEST(Instrumentation, StatisticalResultsAreBitIdenticalWithObserver) {
  OptFixture plain;
  OptFixture observed;
  obs::Registry reg;

  const OptResult a =
      StatisticalOptimizer(plain.lib, plain.var, plain.cfg).run(plain.circuit);
  const OptResult b = StatisticalOptimizer(observed.lib, observed.var,
                                           observed.cfg)
                          .run(observed.circuit, &reg);

  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.sizing_commits, b.sizing_commits);
  EXPECT_EQ(a.hvt_commits, b.hvt_commits);
  EXPECT_EQ(a.downsize_commits, b.downsize_commits);
  EXPECT_EQ(a.rejected_moves, b.rejected_moves);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.final_objective, b.final_objective);  // bit-identical
  expect_same_implementation(plain.circuit, observed.circuit);
}

TEST(Instrumentation, DeterministicResultsAreBitIdenticalWithObserver) {
  OptFixture plain;
  OptFixture observed;
  plain.cfg.corner_k_sigma = observed.cfg.corner_k_sigma = 3.0;
  obs::Registry reg;

  const OptResult a = DeterministicOptimizer(plain.lib, plain.var, plain.cfg)
                          .run(plain.circuit);
  const OptResult b = DeterministicOptimizer(observed.lib, observed.var,
                                             observed.cfg)
                          .run(observed.circuit, &reg);

  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.final_objective, b.final_objective);
  expect_same_implementation(plain.circuit, observed.circuit);
}

TEST(Instrumentation, MonteCarloCountersAndMilestones) {
  OptFixture f;
  McConfig mc;
  mc.num_samples = 333;
  obs::Registry reg;

  const McResult with_obs = run_monte_carlo(f.circuit, f.lib, f.var, mc, &reg);
  const McResult without = run_monte_carlo(f.circuit, f.lib, f.var, mc);

  EXPECT_EQ(with_obs.delay_ps, without.delay_ps);  // observation is passive
  EXPECT_EQ(with_obs.leakage_na, without.leakage_na);

  EXPECT_DOUBLE_EQ(reg.counter_value("mc.samples"), 333.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("mc.sta_evals"), 333.0);
  const auto milestones = reg.trace_events("mc");
  ASSERT_FALSE(milestones.empty());
  // The last milestone always covers the full population, whatever the
  // stride; its running mean equals the final summary mean.
  EXPECT_EQ(milestones.back().step, 333);
  EXPECT_NEAR(milestones.back().objective, without.leakage_summary().mean,
              1e-9 * without.leakage_summary().mean);
  for (std::size_t i = 1; i < milestones.size(); ++i) {
    EXPECT_LT(milestones[i - 1].step, milestones[i].step);
  }
}

TEST(Instrumentation, MonteCarloTimesDrawAndKernelPerWorker) {
  // Each worker times its draws and kernels locally and merges once, so a
  // phase has one call per worker that ran, and at one thread the two
  // inner phases fit inside the enclosing mc.samples phase.
  OptFixture f;
  McConfig mc;
  mc.num_samples = 400;
  for (const bool batched : {true, false}) {
    for (const int threads : {1, 4}) {
      mc.use_batched = batched;
      mc.num_threads = threads;
      obs::Registry reg;
      (void)run_monte_carlo(f.circuit, f.lib, f.var, mc, &reg);
      double samples_s = 0.0;
      double inner_s = 0.0;
      int timed = 0;
      for (const obs::PhaseTime& p : reg.phases()) {
        if (p.name == "mc.samples") samples_s = p.seconds;
        if (p.name == "mc.draw" || p.name == "mc.kernel") {
          ++timed;
          inner_s += p.seconds;
          EXPECT_GT(p.seconds, 0.0) << p.name;
          EXPECT_GE(p.calls, 1) << p.name;
          EXPECT_LE(p.calls, threads) << p.name;
        }
      }
      EXPECT_EQ(timed, 2) << "batched " << batched << " threads " << threads;
      if (threads == 1) {
        EXPECT_LE(inner_s, samples_s);
      }
    }
  }
}

TEST(Instrumentation, MonteCarloLedgerCoversTheSampleLoop) {
  // mc.draw + mc.kernel + mc.checkpoint_io + mc.finalize account for the
  // enclosing mc.samples phase at one thread: what is left is setup
  // (engine and kernel construction, scratch) and loop bookkeeping.
  const CellLibrary lib{generic_100nm()};
  const VariationModel var = VariationModel::typical_100nm();
  const Circuit c = iscas85_proxy("c880p");
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() /
      ("statleak_obs_ledger_" + std::to_string(::getpid()) + ".ckpt");
  std::filesystem::remove(ckpt);
  McConfig mc;
  mc.num_samples = 6000;
  mc.num_threads = 1;
  mc.checkpoint_path = ckpt.string();
  mc.checkpoint_every = 500;
  obs::Registry reg;
  (void)run_monte_carlo(c, lib, var, mc, &reg);
  std::filesystem::remove(ckpt);

  double samples_s = 0.0;
  double ledger_s = 0.0;
  int parts = 0;
  for (const obs::PhaseTime& p : reg.phases()) {
    if (p.name == "mc.samples") samples_s = p.seconds;
    if (p.name == "mc.draw" || p.name == "mc.kernel" ||
        p.name == "mc.checkpoint_io" || p.name == "mc.finalize") {
      ++parts;
      ledger_s += p.seconds;
      // mc.checkpoint_io: the checkpoint's creation, then the loop's flushes.
      EXPECT_EQ(p.calls, p.name == "mc.checkpoint_io" ? 2 : 1) << p.name;
    }
  }
  EXPECT_EQ(parts, 4);
  ASSERT_GT(samples_s, 0.0);
  EXPECT_GE(ledger_s, 0.95 * samples_s)
      << "ledger " << ledger_s << " s of mc.samples " << samples_s << " s";
  EXPECT_LE(ledger_s, samples_s);
}

TEST(Instrumentation, MonteCarloMilestonesAreThreadCountInvariant) {
  OptFixture f;
  McConfig mc;
  mc.num_samples = 100;

  obs::Registry serial;
  mc.num_threads = 1;
  (void)run_monte_carlo(f.circuit, f.lib, f.var, mc, &serial);

  obs::Registry parallel;
  mc.num_threads = 4;
  (void)run_monte_carlo(f.circuit, f.lib, f.var, mc, &parallel);

  const auto a = serial.trace_events("mc");
  const auto b = parallel.trace_events("mc");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].objective, b[i].objective);  // bit-identical
    EXPECT_EQ(a[i].delay_ps, b[i].delay_ps);
  }
}

TEST(Instrumentation, MonteCarloBatchCountersAndBuildTime) {
  OptFixture f;
  McConfig mc;
  mc.num_samples = 100;
  mc.batch_size = 16;
  mc.num_threads = 1;
  obs::Registry reg;
  (void)run_monte_carlo(f.circuit, f.lib, f.var, mc, &reg);

  // Single thread, 100 samples in blocks of 16: ceil(100/16) = 7 batches.
  // (Per-shard rounding makes the batch count depend on the thread count;
  // only the sample values are thread-invariant.)
  EXPECT_DOUBLE_EQ(reg.counter_value("mc.batches"), 7.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("mc.sta_evals"), 100.0);
  EXPECT_GT(reg.counter_value("flat.build_ns"), 0.0);
}

TEST(Instrumentation, MonteCarloMilestonesAreBatchAndEngineInvariant) {
  // Milestones are reconstructed serially from the per-sample results, so
  // they cannot depend on the batch size — or on which engine produced the
  // samples, since batched output is bit-identical to scalar.
  OptFixture f;
  McConfig mc;
  mc.num_samples = 100;

  obs::Registry scalar_reg;
  mc.use_batched = false;
  (void)run_monte_carlo(f.circuit, f.lib, f.var, mc, &scalar_reg);
  const auto ref = scalar_reg.trace_events("mc");
  ASSERT_FALSE(ref.empty());

  mc.use_batched = true;
  for (const int batch : {1, 7, 64, 0}) {
    mc.batch_size = batch;
    obs::Registry reg;
    (void)run_monte_carlo(f.circuit, f.lib, f.var, mc, &reg);
    const auto got = reg.trace_events("mc");
    ASSERT_EQ(ref.size(), got.size()) << "batch " << batch;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].step, got[i].step) << "batch " << batch;
      EXPECT_EQ(ref[i].objective, got[i].objective) << "batch " << batch;
      EXPECT_EQ(ref[i].delay_ps, got[i].delay_ps) << "batch " << batch;
    }
  }
}

TEST(Instrumentation, FlowRecordsPhasesAndHeadlineGauges) {
  CellLibrary lib{generic_100nm()};
  const VariationModel var = VariationModel::typical_100nm();
  Circuit circuit = make_ripple_carry_adder(4);
  FlowConfig cfg;
  cfg.t_max_factor = 1.3;
  cfg.yield_target = 0.9;
  cfg.mc_samples = 50;
  obs::Registry reg;

  const FlowOutcome out = run_flow(circuit, lib, var, cfg, &reg);

  std::vector<std::string> names;
  for (const auto& p : reg.phases()) names.push_back(p.name);
  for (const char* expected :
       {"flow.d_min", "flow.det", "flow.stat", "flow.mc_check"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing phase " << expected;
  }
  EXPECT_DOUBLE_EQ(reg.gauge_value("flow.t_max_ps"), out.t_max_ps);
  EXPECT_DOUBLE_EQ(reg.gauge_value("flow.p99_saving"), out.p99_saving());
  // Both optimizers and the MC cross-checks fed the same registry.
  EXPECT_GT(reg.counter_value("stat.iterations"), 0.0);
  EXPECT_GT(reg.counter_value("det.iterations"), 0.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("mc.samples"), 100.0);  // two checks
}

}  // namespace
}  // namespace statleak
