/// \file statbench.cpp
/// \brief statleak's benchmark: three closed-loop workloads, one client.
///
///   statbench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
///             [--work-dir dir]
///   statbench --self-test [--work-dir dir]
///   statbench --list-metrics
///
/// `--trace 0` times the workload's command through its api/driver.hpp
/// front door with no registry attached and reports the end-to-end metrics.
/// `--trace 1` alternates an untraced call with a traced pass (each layer's
/// public function called and timed from workloads.cpp, with an
/// obs::Registry attached) and reports the per-layer ledger. Every
/// operation's result digests are checked before any figure is reported;
/// the last stdout line is the JSON result object. See README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace statbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Setups per untraced run, half before the calls and half after them (so
/// the median spans the run, not just its start); setup_s is their median.
constexpr int kSetupReps = 22;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of the result line (BENCHMARK.json end_to_end).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"work_per_s", "1/s"},     {"peak_rss_mb", "MB"},
    {"leakage_p99_na", "nA"},  {"timing_yield", "fraction"},
};

/// The per-layer ledger of the traced result line (BENCHMARK.json
/// per_layer). Layers a workload does not exercise read 0.
constexpr MetricSpec kPerLayer[] = {
    {"netlist.load_s", "s"},
    {"netlist.cells", "count"},
    {"sta.target_s", "s"},
    {"report.d_min_s", "s"},
    {"det.run_s", "s"},
    {"det.sizing_s", "s"},
    {"det.assign_s", "s"},
    {"det.iterations", "count"},
    {"det.rejected_moves", "count"},
    {"det.accept_ratio", "fraction"},
    {"stat.run_s", "s"},
    {"stat.sizing_s", "s"},
    {"stat.assign_s", "s"},
    {"stat.score_s", "s"},
    {"stat.unscored_s", "s"},
    {"stat.iterations", "count"},
    {"stat.commits", "count"},
    {"stat.rejected_moves", "count"},
    {"stat.accept_ratio", "fraction"},
    {"stat.thread_speedup", "x"},
    {"ssta.cone_gates_retimed", "count"},
    {"ssta.incremental_passes", "count"},
    {"ssta.full_passes", "count"},
    {"ssta.gates_per_pass", "count"},
    {"score.candidate_blocks", "count"},
    {"score.pruned_candidates", "count"},
    {"score.prune_ratio", "fraction"},
    {"metrics.measure_s", "s"},
    {"mc.run_s", "s"},
    {"mc.samples_s", "s"},
    {"mc.batches", "count"},
    {"mc.sta_evals", "count"},
    {"mc.thread_speedup", "x"},
    {"opt.journal_bytes", "bytes"},
    {"opt.journal_records", "count"},
    {"opt.journal_snapshots", "count"},
    {"mc.checkpoint_bytes", "bytes"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
  bool list_metrics = false;
  std::string work_dir = ".bench_build/statbench-work";
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// The workload's reference thread count on this host; 0 when there is
/// none or it would equal the workload's own.
int reference_threads(const Workload& w) {
  const int ref = std::min(w.reference_threads, host_threads());
  return ref == std::min(w.threads, host_threads()) ? 0 : ref;
}

/// A per-process directory of fresh operation files, removed on exit.
class Scratch {
 public:
  explicit Scratch(const std::string& parent)
      : dir_(fs::path(parent) / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// Paths no earlier operation of this process used.
  OpFiles fresh() {
    const std::string stem = (dir_ / ("op" + std::to_string(next_++))).string();
    return {stem + ".jnl", stem + ".ckpt"};
  }

 private:
  fs::path dir_;
  int next_ = 0;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Every digest named in `expected` that `got` also carries must match; a
/// mismatch names the digest.
void check_digests(const Digests& expected, const Digests& got,
                   const std::string& against,
                   std::vector<std::string>& errors) {
  for (const auto& [name, want] : expected) {
    const auto it = got.find(name);
    if (it != got.end() && it->second != want) {
      errors.push_back("digest '" + name + "' " + hex(it->second) +
                       " differs from " + against + " " + hex(want));
    }
  }
}

/// Attempted / failed operations, with the first errors kept for stderr.
struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& what, const std::vector<std::string>& e) {
    ++attempted;
    if (e.empty()) return;
    ++failed;
    for (const std::string& msg : e) errors.push_back(what + ": " + msg);
  }
};

/// The measuring loops run whole operations only: another one starts while
/// it is expected to end within the run's budget.
bool room_for_another(Clock::time_point start, double last_s, int seconds) {
  return seconds_since(start) + last_s <= seconds;
}

template <class F>
auto guarded(F&& call) {
  using R = decltype(call());
  try {
    return call();
  } catch (const std::exception& ex) {
    R failed;
    failed.errors.push_back(std::string("threw: ") + ex.what());
    return failed;
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(const Tally& t, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void print_metric(const Metric& m) {
  std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Fills the declared specs from a name -> value table (absent reads 0).
std::vector<Metric> collect(const MetricSpec* begin, const MetricSpec* end,
                            const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec* s = begin; s != end; ++s) {
    const auto it = values.find(s->name);
    out.push_back({s->name, it == values.end() ? 0.0 : it->second, s->unit});
  }
  return out;
}

struct UntracedSummary {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> work_per_s;
  OpResult first;  ///< the first operation (quality figures, digests)
};

std::map<std::string, double> end_to_end_values(const UntracedSummary& s) {
  return {{"wall_s", median(s.wall_s)},
          {"setup_s", median(s.setup_s)},
          {"work_per_s", median(s.work_per_s)},
          {"peak_rss_mb", peak_rss_mb()},
          {"leakage_p99_na", s.first.leakage_p99_na},
          {"timing_yield", s.first.timing_yield}};
}

/// Checks one operation's digests against the pins (default seed) and
/// against the first operation of the run.
void check_op(const std::string& workload, std::uint64_t seed,
              const Digests& first, OpResult& r) {
  if (seed == kDefaultSeed) {
    check_digests(pinned_digests(workload), r.digests, "pinned", r.errors);
  }
  check_digests(first, r.digests, "first operation", r.errors);
}

void print_provenance(const Workload& w, const Options& o, int threads) {
  std::printf(
      "statbench provenance: build_type=%s compiler=\"%s\" ndebug=%d "
      "nproc=%d threads=%d reference_threads=%d seed=%llu workload=%s "
      "trace=%d seconds=%d\n",
      STATBENCH_BUILD_TYPE, STATBENCH_COMPILER,
#ifdef NDEBUG
      1,
#else
      0,
#endif
      host_threads(), threads, reference_threads(w),
      static_cast<unsigned long long>(o.seed),
      w.name, o.trace ? 1 : 0, o.seconds);
}

int finish(const Tally& t, const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < t.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "statbench: FAILED %s\n", t.errors[i].c_str());
  }
  std::printf("%s\n", result_line(t, metrics).c_str());
  std::fflush(stdout);
  return t.failed == 0 ? 0 : 1;
}

int run_untraced(const Workload& w, const Options& o, int threads) {
  Scratch scratch(o.work_dir);
  Tally tally;
  UntracedSummary s;
  const auto timed_setups = [&](int n) {
    Prepared prep;
    for (int i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      prep = w.setup(o.seed);
      s.setup_s.push_back(seconds_since(t0));
    }
    return prep;
  };
  const Prepared prep = timed_setups(kSetupReps / 2);

  RunContext ctx;
  ctx.seed = o.seed;
  ctx.threads = threads;
  const auto start = Clock::now();
  do {
    ctx.files = scratch.fresh();
    OpResult r = guarded([&] { return w.run(prep, ctx); });
    const bool first = s.wall_s.empty();
    check_op(w.name, o.seed, first ? r.digests : s.first.digests, r);
    tally.record("operation " + std::to_string(tally.attempted), r.errors);
    s.wall_s.push_back(r.wall_s);
    s.work_per_s.push_back(r.wall_s > 0.0 ? r.work / r.wall_s : 0.0);
    if (first) s.first = std::move(r);
  } while (room_for_another(start, s.wall_s.back(), o.seconds));
  timed_setups(kSetupReps - kSetupReps / 2);

  const std::vector<Metric> metrics = collect(
      std::begin(kEndToEnd), std::end(kEndToEnd), end_to_end_values(s));
  std::printf("%s: %zu operations, %zu setups (medians reported); wall_s:",
              w.name, s.wall_s.size(), s.setup_s.size());
  for (double v : s.wall_s) std::printf(" %.4f", v);
  std::printf("\n");
  for (const Metric& m : metrics) print_metric(m);
  print_metric({w.work_metric, median(s.work_per_s), "1/s"});
  for (const auto& [name, value] : s.first.digests) {
    std::printf("  digest %-19s %s\n", name.c_str(), hex(value).c_str());
  }
  print_metric({"error_rate",
                static_cast<double>(tally.failed) / tally.attempted,
                "fraction"});
  if (s.first.p99_saving != 0.0) {
    print_metric({"p99_saving", s.first.p99_saving, "fraction"});
  }
  return finish(tally, metrics);
}

int run_traced(const Workload& w, const Options& o, int threads) {
  Scratch scratch(o.work_dir);
  Tally tally;
  const Prepared prep = w.setup(o.seed);

  RunContext ctx;
  ctx.seed = o.seed;
  ctx.threads = threads;
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> untraced_wall, traced_wall, unattributed;
  Digests first, traced_digests;
  const auto start = Clock::now();
  do {
    ctx.files = scratch.fresh();
    ctx.reference_threads = 0;
    OpResult u = guarded([&] { return w.run(prep, ctx); });
    if (first.empty()) first = u.digests;
    check_op(w.name, o.seed, first, u);
    tally.record("untraced operation", u.errors);
    untraced_wall.push_back(u.wall_s);

    ctx.files = scratch.fresh();
    if (traced_wall.empty()) ctx.reference_threads = reference_threads(w);
    TracedResult t = guarded([&] { return w.traced(prep, ctx); });
    if (o.seed == kDefaultSeed) {
      check_digests(pinned_digests(w.name), t.digests, "pinned", t.errors);
    }
    check_digests(u.digests, t.digests, "untraced run", t.errors);
    if (traced_digests.empty()) traced_digests = t.digests;
    tally.record("traced pass", t.errors);
    traced_wall.push_back(t.wall_s);
    unattributed.push_back(t.wall_s - t.spans_s);
    for (const auto& [name, value] : t.layers) layers[name].push_back(value);
  } while (room_for_another(start, untraced_wall.back() + traced_wall.back(),
                            o.seconds));

  std::map<std::string, double> values;
  for (const auto& [name, v] : layers) values[name] = median(v);
  values["trace.wall_s"] = median(traced_wall);
  values["trace.unattributed_s"] = median(unattributed);
  values["trace.overhead_s"] = median(traced_wall) - median(untraced_wall);

  const std::vector<Metric> metrics =
      collect(std::begin(kPerLayer), std::end(kPerLayer), values);
  std::printf("%s: %zu traced passes (medians reported)\n", w.name,
              traced_wall.size());
  for (const auto& [name, value] : traced_digests) {
    std::printf("  digest %-19s %s\n", name.c_str(), hex(value).c_str());
  }
  for (const Metric& m : metrics) print_metric(m);
  std::printf("  unattributed share of traced wall: %.4f\n",
              values["trace.unattributed_s"] / values["trace.wall_s"]);
  return finish(tally, metrics);
}

// --- self-test ---------------------------------------------------------------

bool contains(const std::vector<std::string>& errors, const std::string& s) {
  for (const std::string& e : errors) {
    if (e.find(s) != std::string::npos) return true;
  }
  return false;
}

/// Every declared metric gets a finite value and appears in the JSON result
/// line with its unit.
void expect_printed(const MetricSpec* begin, const MetricSpec* end,
                    const std::map<std::string, double>& values,
                    const std::string& tag,
                    std::vector<std::string>& failures) {
  const std::vector<Metric> metrics = collect(begin, end, values);
  Tally clean;
  clean.attempted = 1;
  const std::string line = result_line(clean, metrics);
  for (const Metric& m : metrics) {
    const std::string entry = "\"" + m.name + "\": {\"value\": " +
                              json_number(m.value) + ", \"unit\": \"" +
                              m.unit + "\"}";
    if (m.unit.empty() || !std::isfinite(m.value) ||
        line.find(entry) == std::string::npos) {
      failures.push_back(tag + "metric " + m.name +
                         " is not printed with a value and its unit");
    }
  }
}

/// On c880p-sized inputs: the untraced and traced paths agree, every metric
/// prints with its unit, a tampered digest is caught, and a pre-existing
/// journal or checkpoint is caught.
int self_test(const Options& o) {
  Scratch scratch(o.work_dir);
  std::vector<std::string> failures;
  for (const Workload& w : selftest_workloads()) {
    const std::string tag = std::string(w.name) + ": ";
    const Prepared prep = w.setup(kDefaultSeed);
    RunContext ctx;
    ctx.threads = std::min(w.threads, host_threads());
    ctx.files = scratch.fresh();
    OpResult r = guarded([&] { return w.run(prep, ctx); });
    for (const std::string& e : r.errors) failures.push_back(tag + e);

    RunContext tctx = ctx;
    tctx.files = scratch.fresh();
    tctx.reference_threads = reference_threads(w);
    TracedResult t = guarded([&] { return w.traced(prep, tctx); });
    check_digests(r.digests, t.digests, "untraced run", t.errors);
    for (const std::string& e : t.errors) failures.push_back(tag + e);

    UntracedSummary s;
    s.setup_s = {0.0};
    s.wall_s = {r.wall_s};
    s.work_per_s = {r.work / r.wall_s};
    s.first = r;
    expect_printed(std::begin(kEndToEnd), std::end(kEndToEnd),
                   end_to_end_values(s), tag, failures);
    expect_printed(std::begin(kPerLayer), std::end(kPerLayer), t.layers, tag,
                   failures);

    // A tampered digest fails the operation and is named.
    if (r.digests.empty()) {
      failures.push_back(tag + "no digests to tamper with");
    } else {
      Digests tampered = r.digests;
      auto victim = tampered.begin();
      victim->second ^= 1;
      std::vector<std::string> caught;
      check_digests(tampered, r.digests, "tampered", caught);
      if (caught.size() != 1 ||
          !contains(caught, "'" + victim->first + "'")) {
        failures.push_back(tag + "tampered digest '" + victim->first +
                           "' not caught");
      }
    }

    // Rerunning on the first operation's files must be flagged, never
    // counted as a timed run.
    OpResult stale = guarded([&] { return w.run(prep, ctx); });
    if (!contains(stale.errors, "replayed") &&
        !contains(stale.errors, "restored")) {
      failures.push_back(tag + "pre-existing journal/checkpoint not caught");
    }
    std::printf("self-test %s: %zu digests, stale-file check -> %s\n", w.name,
                r.digests.size(),
                stale.errors.empty() ? "(none)" : stale.errors.front().c_str());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "statbench self-test: FAILED %s\n", f.c_str());
  }
  std::printf("self-test %s\n", failures.empty() ? "ok" : "FAILED");
  return failures.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: statbench --workload <name> [--seed n] [--seconds s] "
               "[--trace 0|1] [--work-dir dir]\n"
               "       statbench --self-test [--work-dir dir]\n"
               "       statbench --list-metrics\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--self-test") {
        o.self_test = true;
      } else if (a == "--list-metrics") {
        o.list_metrics = true;
      } else if (a == "--workload" && has_value) {
        o.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        o.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        o.seconds = std::stoi(argv[++i]);
      } else if (a == "--trace" && has_value) {
        o.trace = std::stoi(argv[++i]) != 0;
      } else if (a == "--work-dir" && has_value) {
        o.work_dir = argv[++i];
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return o.seconds >= 1;
}

int main_impl(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage();
  if (o.list_metrics) {
    for (const MetricSpec& m : kEndToEnd) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const MetricSpec& m : kPerLayer) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }
  if (o.self_test) return self_test(o);

  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage();
#ifndef NDEBUG
  std::fprintf(stderr,
               "statbench: refusing to time a build without NDEBUG "
               "(build type %s)\n",
               STATBENCH_BUILD_TYPE);
  return 3;
#endif
  const int threads = std::min(w->threads, host_threads());
  print_provenance(*w, o, threads);
  return o.trace ? run_traced(*w, o, threads) : run_untraced(*w, o, threads);
}

}  // namespace
}  // namespace statbench

int main(int argc, char** argv) {
  try {
    return statbench::main_impl(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "statbench: %s\n", ex.what());
    return 1;
  }
}
