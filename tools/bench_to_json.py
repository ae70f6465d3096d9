#!/usr/bin/env python3
"""Convert raw benchmark JSON output into a compact BENCH_*.json.

Default mode reads the Google Benchmark JSON emitted by

    bench_fig5_runtime --benchmark_filter='BM_MonteCarloBatched' \
        --benchmark_format=json

from a file (or stdin) and distills the Monte-Carlo throughput series into
samples/sec per (circuit, engine), plus the batched/scalar speedup per
circuit.  When the run used --benchmark_repetitions (CI passes 10 with
--benchmark_report_aggregates_only=true: one repetition is one MC run and
moved +-17 % between back-to-back runs), the median aggregate is taken and
the repetition count is recorded as "statistic"; otherwise the median over
the plain iteration entries.

With --estimators the input is instead the JSON document printed by
bench_estimator_variance (across-replication variance per circuit, metric,
estimator) and the output is BENCH_estimators.json: the same means and
variances plus the variance-reduction factor of every variance-reduced
estimator against the plain-MC baseline of its (circuit, metric).  That
factor is the sample-count reduction at equal variance, and it is what the
CI estimator-quality gate pins floors on.

Timing artifacts from debug builds are meaningless for the perf trajectory,
so any input that carries a build-type marker saying "debug" is refused
unless --allow-debug is passed (intended for pipeline debugging only; the
output then records the debug provenance honestly).

Usage:
    bench_to_json.py [raw_benchmark.json] [-o BENCH_mc.json]
    bench_to_json.py --estimators [raw_estimators.json] \
        [-o BENCH_estimators.json]

With no -o the result is printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _engine_of(entry: dict) -> str:
    # The benchmark exports a "batched" counter: 1 = batched SoA engine,
    # 0 = scalar per-sample reference.
    return "batched" if entry.get("batched", 0.0) > 0.5 else "scalar"


def distill(raw: dict) -> dict:
    """Reduce benchmark entries to {circuit: {engine: samples_per_second}}."""
    # (circuit, engine) -> list of items_per_second; medians are stored
    # separately and win over per-iteration samples when present.
    samples: dict[tuple[str, str], list[float]] = {}
    medians: dict[tuple[str, str], float] = {}
    repetitions: set[int] = set()
    for entry in raw.get("benchmarks", []):
        if not entry.get("name", "").startswith("BM_MonteCarloBatched"):
            continue
        if "items_per_second" not in entry:
            continue
        circuit = entry.get("label", "")
        if not circuit:
            continue
        key = (circuit, _engine_of(entry))
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[key] = entry["items_per_second"]
                repetitions.add(int(entry.get("repetitions", 0)))
            continue
        samples.setdefault(key, []).append(entry["items_per_second"])

    circuits: dict[str, dict] = {}
    for key in sorted(set(samples) | set(medians)):
        circuit, engine = key
        sps = medians.get(key)
        if sps is None:
            sps = statistics.median(samples[key])
        circuits.setdefault(circuit, {})[engine] = {
            "samples_per_second": round(sps, 1)
        }
    for circuit, engines in circuits.items():
        if "scalar" in engines and "batched" in engines:
            scalar = engines["scalar"]["samples_per_second"]
            batched = engines["batched"]["samples_per_second"]
            if scalar > 0:
                engines["speedup_batched_vs_scalar"] = round(batched / scalar, 2)

    context = raw.get("context", {})
    return {
        "schema_version": 1,
        "generated_by": "tools/bench_to_json.py",
        "benchmark": "bench_fig5_runtime:BM_MonteCarloBatched",
        "unit": "monte-carlo samples per second, single thread",
        "statistic": (
            "median of "
            + "/".join(str(r) for r in sorted(repetitions))
            + " repetitions"
            if medians
            else "median of iterations"
        ),
        "host": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            # The build type of the timed statleak code (stamped by the
            # bench via AddCustomContext); the harness library's own build
            # type is kept for completeness but is not the provenance
            # marker — see build_type_of().
            "build_type": context.get("statleak_build_type"),
            "library_build_type": context.get("library_build_type"),
        },
        "circuits": circuits,
        # Historical anchor for the perf trajectory: the scalar engine's
        # single-thread throughput on c7552p before the batched-SoA PR
        # (Box-Muller normals, per-sample scratch allocation). See
        # EXPERIMENTS.md F5 and docs/PERFORMANCE.md.
        "baseline": {
            "pre_batched_pr_scalar": {
                "c7552p": {"samples_per_second": 3593.0}
            }
        },
    }


def distill_estimators(raw: dict) -> dict:
    """Reduce bench_estimator_variance output to variance-reduction factors.

    Output shape:
        circuits.<circuit>.<metric>.plain = {mean, variance}
        circuits.<circuit>.<metric>.<estimator> =
            {mean, variance, variance_reduction[, ess_mean]}
    """
    if raw.get("bench") != "estimator_variance":
        raise ValueError("input is not bench_estimator_variance output")

    baseline: dict[tuple[str, str], float] = {}
    for entry in raw.get("results", []):
        if entry["estimator"] == "plain":
            baseline[(entry["circuit"], entry["metric"])] = entry["variance"]

    circuits: dict[str, dict] = {}
    for entry in raw.get("results", []):
        circuit, metric = entry["circuit"], entry["metric"]
        record = {
            "mean": entry["mean"],
            "variance": entry["variance"],
        }
        if entry["estimator"] != "plain":
            key = (circuit, metric)
            if key not in baseline:
                raise ValueError(
                    f"no plain baseline for {circuit}/{metric}")
            if entry["variance"] > 0:
                record["variance_reduction"] = round(
                    baseline[key] / entry["variance"], 2)
            else:
                record["variance_reduction"] = float("inf")
            # ESS only means something for weighted (importance-sampled)
            # estimators; QMC/CV runs keep every weight at 1.
            if entry.get("ess_mean", 0) and \
                    entry["ess_mean"] != raw.get("samples_per_run"):
                record["ess_mean"] = round(entry["ess_mean"], 1)
        circuits.setdefault(circuit, {}).setdefault(
            metric, {})[entry["estimator"]] = record

    return {
        "schema_version": 1,
        "generated_by": "tools/bench_to_json.py --estimators",
        "benchmark": "bench_estimator_variance",
        "replications": raw.get("replications"),
        "samples_per_run": raw.get("samples_per_run"),
        "note": ("variance_reduction = var(plain) / var(estimator) across "
                 "replications = sample-count reduction at equal variance"),
        "circuits": circuits,
    }


def build_type_of(raw: dict) -> str | None:
    """Best-effort build-type marker of a raw benchmark document.

    Preference order: the document's own "build_type" (our JSON benches),
    then the custom "statleak_build_type" context key (google-benchmark
    benches stamp the build type of the TIMED code there), and only then
    google-benchmark's "library_build_type" — which describes the harness
    library, not the code under test (the distro package reports "debug"
    even under a Release build of statleak).
    """
    context = raw.get("context", {})
    for marker in (raw.get("build_type"),
                   context.get("statleak_build_type"),
                   context.get("library_build_type")):
        if isinstance(marker, str):
            return marker
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", nargs="?", default="-",
                        help="raw benchmark JSON file (default: stdin)")
    parser.add_argument("-o", "--output", default="-",
                        help="output path (default: stdout)")
    parser.add_argument("--estimators", action="store_true",
                        help="input is bench_estimator_variance JSON; emit "
                             "variance-reduction factors")
    parser.add_argument("--allow-debug", action="store_true",
                        help="accept timing input from a debug build "
                             "(refused by default: debug timings are not "
                             "comparable perf artifacts)")
    args = parser.parse_args(argv)

    if args.input == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.input) as f:
            raw = json.load(f)

    build = build_type_of(raw)
    if build is not None and "debug" in build.lower() and \
            not args.allow_debug:
        print("bench_to_json: input was produced by a debug build "
              f"(build type {build!r}); timing artifacts must come from a "
              "Release build. Pass --allow-debug to override.",
              file=sys.stderr)
        return 1

    if args.estimators:
        try:
            result = distill_estimators(raw)
        except ValueError as err:
            print(f"bench_to_json: {err}", file=sys.stderr)
            return 1
    else:
        result = distill(raw)
        if not result["circuits"]:
            print("bench_to_json: no BM_MonteCarloBatched entries in input",
                  file=sys.stderr)
            return 1

    text = json.dumps(result, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
