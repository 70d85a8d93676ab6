#!/usr/bin/env python3
"""Benchmark of degreelab: seeded campaigns driven through the public API and CLI.

Run from the root of a source checkout (it imports degreelab from ``src/``):

    python3 perfbench/run.py --workload structure --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures one workload's end-to-end metrics with tracing off: a
closed loop with one client runs rounds until ``--seconds`` have passed.
``--trace 1`` runs the traced pass instead: every workload in turn, at
jobs=1, with spans around each layer, printing the per-layer metrics of all
of them.  ``--workload all`` runs each workload in a fresh process and then
the traced pass.  Every output is checked; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
perfbench/README.md lists the workloads, metrics and baseline numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("sampling", "structure", "enumeration", "cli_campaigns")
DEFAULT_SEED = 1
SETUP_PROBES = 7
#: Workers for the CLI campaigns; the reference machine has two CPUs.
CLI_JOBS = 2
#: Rounds per workload whose records are pinned by digest at the default seed.
DIGEST_ROUNDS = {"sampling": 8, "structure": 4, "enumeration": 1, "cli_campaigns": 4}

GRAPH_LAYERS = (
    "graphs.build",
    "graphs.adjacency",
    "graphs.max_degree",
    "graphs.peeled_core",
    "graphs.two_core",
    "graphs.components",
    "graphs.induced_subgraph",
    "graphs.decompose",
)
#: Layers whose spans each workload reports in the traced pass.
TRACED_LAYERS = {
    "sampling": (
        "concentration",
        "balls_bins",
        "pruefer.sample_forest_degrees",
        "samplers.sample_gnm_arrays",
        "harness.run_experiment",
    ),
    "structure": GRAPH_LAYERS
    + (
        "pruefer.decode",
        "pruefer.sample_uniform_forest",
        "samplers.complex_part",
        "samplers.sample_gnm_arrays",
        "harness.run_experiment",
    ),
    "enumeration": (
        "graphs.planarity_table",
        "dense_ops.classify_all_graphs",
        "dense_ops.sweep_ratio_bounds",
        "harness.run_experiment",
    ),
    "cli_campaigns": ("cli.main", "harness.run_experiment", "harness.emit")
    + GRAPH_LAYERS
    + (
        "pruefer.decode",
        "pruefer.sample_uniform_forest",
        "pruefer.sample_forest_degrees",
        "samplers.complex_part",
        "samplers.sample_gnm_arrays",
        "balls_bins",
        "concentration",
    ),
}
#: Workloads that build graph objects, the only ones where collection pauses register.
GC_WORKLOADS = ("structure", "cli_campaigns")
REJECT_REASONS = ("loop", "parallel_edge", "complex_component")
#: Layer prefixes whose self time should cover a structure round.
STRUCTURE_LAYERS = ("graphs.", "pruefer.", "samplers.")


def out(line: str) -> None:
    print(line, flush=True)


def environment() -> dict[str, object]:
    import numpy
    import scipy

    def command(argv: list[str], env: dict[str, str] | None = None) -> str:
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout if done.returncode == 0 else ""

    caches = {}
    for line in command(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0]] = value.strip()
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    commit = command(["git", "rev-parse", "HEAD"], git_env).strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "L2": caches.get("L2", "unavailable"),
        "L3": caches.get("L3", "unavailable"),
        "commit": commit or "unavailable (not a git checkout)",
        "start_method": multiprocessing.get_start_method(),
        "cli_jobs": CLI_JOBS,
    }


def stored_digests(name: str, seed: int, smoke: bool) -> list[list[str]]:
    """Digests that pin the records at the default seed; none at other seeds."""
    if seed != DEFAULT_SEED or smoke:
        return []
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)[name]


def setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of fresh interpreters that import degreelab and build the configs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    argv += ["--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--smoke"] if args.smoke else []
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric_line(workload: str, name: str, value, unit: str, note: str = "") -> None:
    shown = "omitted" if value is None else f"{value:.6g}"
    out(f"{workload:<14} {name:<44} {shown:>12} {unit:<8} {note}".rstrip())


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out(json.dumps(payload))


def report_problems(tally) -> None:
    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)


def measure(args: argparse.Namespace, workdir: str) -> int:
    """End-to-end metrics of one workload, tracing off."""
    import workloads

    setup_s = setup_seconds(args)
    wl = workloads.build(args.workload, workdir, args.smoke)
    digests = stored_digests(args.workload, args.seed, args.smoke)
    jobs = CLI_JOBS if args.workload == "cli_campaigns" else 1
    tally = workloads.Tally()
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        cfgs = wl.prepare(args.seed, r)
        t0 = time.perf_counter()
        results = wl.run(cfgs, jobs)
        rounds.append(time.perf_counter() - t0)
        wl.check(wl.collect(cfgs, results), tally, digests[r] if r < len(digests) else None)
        if time.perf_counter() - start >= args.seconds:
            break

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    n = len(rounds)
    ordered = sorted(rounds)
    trials = n * wl.trials_per_round
    name = args.workload
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (trials / sum(rounds), "1/s"),
        "round_ms_p50": (statistics.median(rounds) * 1e3, "ms"),
        "peak_rss_mb": (usage / 1024, "MiB"),
    }
    metric_line(name, "setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh interpreters")
    metric_line(
        name, "trials_per_s", metrics["trials_per_s"][0], "1/s",
        f"{trials} trials in {sum(rounds):.3f} s",
    )
    metric_line(name, "round_ms_p50", metrics["round_ms_p50"][0], "ms", f"{n} rounds")
    if n >= 11:
        k = n - 10  # nearest rank with ten rounds beyond it
        tail = ordered[k - 1] * 1e3
        metric_line(name, "round_ms_tail", tail, "ms", f"p{100 * k / n:.1f}, N={n}")
    else:
        metric_line(name, "round_ms_tail", None, "ms", f"N={n} < 11 rounds")
    metric_line(
        name, "peak_rss_mb", metrics["peak_rss_mb"][0], "MiB",
        "largest of this process and its workers",
    )
    metric_line(
        name, "failed_fraction", tally.failed / max(tally.attempted, 1), "fraction",
        f"{tally.failed} failed of {tally.attempted} attempted",
    )
    report_problems(tally)
    result_line(tally.failed == 0, tally.attempted, tally.failed, metrics)
    return 0


def traced_pass(args: argparse.Namespace, workdir: str) -> int:
    """Per-layer metrics of every workload from spans, at jobs=1."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    span_cost = tracer.span_cost_s()
    tally = workloads.Tally()
    metrics: dict[str, tuple[float, str]] = {}
    try:
        for name in WORKLOADS:
            wl = workloads.build(name, workdir, args.smoke)
            digests = stored_digests(name, args.seed, args.smoke)
            reference = None
            if name == "cli_campaigns":
                # Jobs invariance: the untraced CLI_JOBS run of round 0 must emit
                # the same bytes as the traced jobs=1 run of the same configs.
                cfgs = wl.prepare(args.seed, 0)
                reference = wl.collect(cfgs, wl.run(cfgs, CLI_JOBS))
            tracer.reset()
            rounds = 0
            wall = 0.0
            start = time.perf_counter()
            while True:
                cfgs = wl.prepare(args.seed, rounds)
                tracer.active = True
                t0 = time.perf_counter()
                with tracer.span("round"):
                    results = wl.run(cfgs, 1)
                wall += time.perf_counter() - t0
                tracer.active = False
                outcomes = wl.collect(cfgs, results)
                if reference is not None and rounds == 0:
                    for outcome, ref in zip(outcomes, reference):
                        if outcome.error is None and outcome.data != ref.data:
                            outcome.error = f"jobs=1 output differs from jobs={CLI_JOBS} output"
                wl.check(outcomes, tally, digests[rounds] if rounds < len(digests) else None)
                rounds += 1
                if time.perf_counter() - start >= args.seconds / len(WORKLOADS):
                    break
            metrics.update(layer_metrics(name, tracer, rounds, wall, span_cost))
    finally:
        tracer.uninstall()
    report_problems(tally)
    result_line(tally.failed == 0, tally.attempted, tally.failed, metrics)
    return 0


def layer_metrics(name, tracer, rounds: int, wall: float, span_cost: float) -> dict:
    """Per-round layer metrics of one workload's traced segment, printed as they are made."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    per_round = f"per round, {rounds} rounds"

    def put(metric: str, value: float, unit: str, note: str = per_round) -> None:
        metrics[f"{name}.{metric}"] = (value, unit)
        metric_line(name, metric, value, unit, note)

    for layer in TRACED_LAYERS[name]:
        put(f"{layer}.calls", calls[layer] / rounds, "count")
        put(f"{layer}.self_ms", self_s[layer] * 1e3 / rounds, "ms")
    if "samplers.sample_gnm_arrays" in TRACED_LAYERS[name]:
        attempts, accepted = counts["samplers.attempts"], counts["samplers.accepted"]
        put("samplers.attempts", attempts / rounds, "count")
        put(
            "samplers.acceptance_ratio", accepted / attempts if attempts else 0.0, "fraction",
            f"{accepted} accepted of {attempts} attempts",
        )
        for reason in REJECT_REASONS:
            put(f"samplers.reject.{reason}", counts[f"samplers.reject.{reason}"] / rounds, "count")
    if name == "enumeration":
        put("dense_ops.checks", counts["dense_ops.checks"] / rounds, "count")
        put("dense_ops.vacuous", counts["dense_ops.vacuous"] / rounds, "count")
    if "harness.emit" in TRACED_LAYERS[name]:
        put("harness.emit.bytes", counts["harness.emit.bytes"] / rounds, "bytes")
    if name == "structure":
        covered = sum(s for layer, s in self_s.items() if layer.startswith(STRUCTURE_LAYERS))
        put(
            "trace.layer_share", covered / wall, "fraction",
            "self time of graphs.*, pruefer.*, samplers.* over traced round wall time",
        )
    if name in GC_WORKLOADS:
        pause_ms = tracer.gc_pause_s * 1e3 / rounds
        put("python.gc_pause_ms", pause_ms, "ms", per_round + ", inside the spans above")
        put("python.gc_gen2_collections", counts["python.gc_gen2_collections"] / rounds, "count")
    put(
        "trace.overhead_fraction", len(tracer.spans) * span_cost / wall, "fraction",
        f"{len(tracer.spans)} spans at {span_cost * 1e9:.0f} ns each over {wall:.3f} s traced",
    )
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, then the traced pass; one combined result."""
    argv = [sys.executable, str(Path(__file__).resolve())]
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--smoke"] if args.smoke else []
    runs = [["--workload", name, "--trace", "0"] for name in WORKLOADS]
    runs.append(["--workload", WORKLOADS[0], "--trace", "1"])
    correct, attempted, failed, metrics = True, 0, 0, {}
    for extra in runs:
        done = subprocess.run(argv + extra + common, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            out(line)
        if done.returncode != 0 or not lines:
            print(f"perfbench: {' '.join(extra)} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        prefix = extra[1] + "." if extra[3] == "0" else ""
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({prefix + k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    result_line(correct, attempted, failed, metrics)
    return 0


def record_digests(workdir: str) -> int:
    """Rewrite digests.json from the current program at the default seed."""
    import workloads

    table = {}
    for name in WORKLOADS:
        wl = workloads.build(name, workdir)
        jobs = CLI_JOBS if name == "cli_campaigns" else 1
        tally = workloads.Tally()
        table[name] = []
        for r in range(DIGEST_ROUNDS[name]):
            cfgs = wl.prepare(DEFAULT_SEED, r)
            outcomes = wl.collect(cfgs, wl.run(cfgs, jobs))
            wl.check(outcomes, tally, None)
            table[name].append([hashlib.sha256(o.data).hexdigest() for o in outcomes])
        if tally.failed:
            report_problems(tally)
            return 1
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "degreelab" / "__init__.py").is_file():
        print(f"perfbench: no degreelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, "", args.smoke).configs(args.seed, 0)
        return 0
    if args.workload == "all" and not args.record_digests:
        return run_all(args)

    import degreelab

    if Path(degreelab.__file__).resolve().parent != SRC / "degreelab":
        print(f"perfbench: degreelab comes from {degreelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.record_digests:
            return record_digests(str(workdir))
        out("# environment " + json.dumps(environment()))
        return traced_pass(args, str(workdir)) if args.trace else measure(args, str(workdir))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
