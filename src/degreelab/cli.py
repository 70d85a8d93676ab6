"""Command-line interface.

Subcommands:
  nu          evaluate the concentration point or a predicted window
  sample      draw one random structure (bins, forest, gnm, noncomplex,
              complex-part) from a seed
  decompose   split an edge-list graph into core / complex parts / rest
  enumerate   exhaustive dense-class ratio sweep (CSV)
  experiment  run a Monte Carlo campaign from a JSON config

Graphs are exchanged in a plain text format: a header line "N M" followed by
one "u v" line per edge, 1-indexed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from degreelab import concentration as conc
from degreelab import harness
from degreelab.balls_bins import loads as bin_loads
from degreelab.balls_bins import max_load, sample_locations
from degreelab.dense_ops import sweep_ratio_bounds
from degreelab.graphs import (
    SimpleGraph,
    decompose_masks,
    format_edge_list,
    read_edge_list,
)
from degreelab.pruefer import decode_arrays, sample_codeword, sample_forest_degrees
from degreelab.rng import derive_rng
from degreelab.samplers import DEFAULT_MAX_ATTEMPTS
from degreelab.samplers import complex_part_arrays, sample_gnm_arrays


def _edge_list(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """argparse type for an edge-list file: the (n, us, vs) of its checked graph."""
    try:
        return read_edge_list(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def _experiment_config(path: str) -> harness.ExperimentConfig:
    """argparse type for ``--config``: the campaign config read from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return harness.ExperimentConfig.from_dict(json.load(handle))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def _out_path(path: str) -> str:
    """argparse type for ``--out``: a file path in an existing directory.

    Checked when the arguments are parsed, so a bad path fails before the
    campaign runs; the file itself is neither created nor truncated here.
    """
    if not path:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"{path}: {parent} is not an existing directory"
        )
    return path


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's one argument parser, built on the first call and reused after.

    ``parse_args`` returns a fresh namespace and runs the ``type=`` converters
    on every call, so a reused parser carries nothing from one call to the
    next.  The parser binds only this module's ``_cmd_*`` handlers and type
    converters; a handler looks up the library functions it calls when it
    runs, so a function patched or wrapped after the first call still takes
    effect.
    """
    parser = argparse.ArgumentParser(
        prog="degreelab",
        description="Laboratory for maximum-degree concentration in sparse random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nu = sub.add_parser("nu", help="concentration point and predicted windows")
    p_nu.add_argument("--n", type=int, required=True, help="number of bins")
    p_nu.add_argument("--k", type=int, help="number of balls")
    p_nu.add_argument("--hat", action="store_true", help="balanced case k = n")
    p_nu.add_argument("--interval", action="store_true", help="predicted window for n, m")
    p_nu.add_argument("--m", type=int, help="edge count (with --interval)")
    p_nu.add_argument("--eps", type=float, help="window half-width (with --interval)")
    p_nu.set_defaults(handler=_cmd_nu, parser=p_nu)

    p_sample = sub.add_parser("sample", help="draw one random structure")
    sample_sub = p_sample.add_subparsers(dest="structure", required=True)

    p_bins = sample_sub.add_parser("bins", help="balls-into-bins loads")
    p_bins.add_argument("--n", type=int, required=True)
    p_bins.add_argument("--k", type=int, required=True)
    p_bins.add_argument("--seed", type=int, required=True)
    p_bins.add_argument("--emit", choices=("loads", "max"), default="loads")
    p_bins.set_defaults(handler=_cmd_bins, parser=p_bins)

    p_forest = sample_sub.add_parser("forest", help="uniform rooted forest")
    p_forest.add_argument("--n", type=int, required=True)
    p_forest.add_argument("--t", type=int, required=True)
    p_forest.add_argument("--seed", type=int, required=True)
    p_forest.add_argument(
        "--emit", choices=("edges", "pruefer", "degrees"), default="edges"
    )
    p_forest.set_defaults(handler=_cmd_forest, parser=p_forest)

    for name, help_text in (
        ("gnm", "uniform simple graph"),
        ("noncomplex", "uniform graph without complex components"),
    ):
        p_g = sample_sub.add_parser(name, help=help_text)
        p_g.add_argument("--n", type=int, required=True)
        p_g.add_argument("--m", type=int, required=True)
        p_g.add_argument("--seed", type=int, required=True)
        p_g.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
        p_g.add_argument(
            "--report", action="store_true", help="append the rejection report as JSON"
        )
        p_g.set_defaults(handler=_cmd_graph, parser=p_g)

    p_cp = sample_sub.add_parser("complex-part", help="uniform complex part over a core")
    p_cp.add_argument(
        "--core", type=_edge_list, required=True, help="edge-list file with the core"
    )
    p_cp.add_argument("--q", type=int, required=True)
    p_cp.add_argument("--seed", type=int, required=True)
    p_cp.set_defaults(handler=_cmd_complex_part, parser=p_cp)

    p_dec = sub.add_parser("decompose", help="core / complex parts / rest of a graph")
    p_dec.add_argument(
        "--in",
        dest="graph",
        type=_edge_list,
        required=True,
        metavar="PATH",
        help="edge-list file",
    )
    p_dec.set_defaults(handler=_cmd_decompose, parser=p_dec)

    p_enum = sub.add_parser("enumerate", help="exhaustive class enumeration")
    enum_sub = p_enum.add_subparsers(dest="what", required=True)
    p_ratio = enum_sub.add_parser("dense-ratio", help="degree-raising ratio sweep")
    p_ratio.add_argument("--n", type=int, required=True)
    p_ratio.add_argument("--planar", action="store_true", help="restrict to planar graphs")
    p_ratio.set_defaults(handler=_cmd_enumerate, parser=p_ratio)

    p_exp = sub.add_parser("experiment", help="Monte Carlo campaigns")
    exp_sub = p_exp.add_subparsers(dest="action", required=True)
    p_run = exp_sub.add_parser("run", help="run a campaign from a JSON config")
    p_run.add_argument(
        "--config",
        type=_experiment_config,
        required=True,
        help="JSON file with the config",
    )
    p_run.add_argument("--out", type=_out_path, help="write records to this path")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="run trials on at most N processes, forking workers only once the "
        "trials left will outlast starting them (default: env or 1)",
    )
    p_run.set_defaults(handler=_cmd_experiment, parser=p_run)

    return parser


def _cmd_nu(args: argparse.Namespace) -> int:
    if (args.k is not None) + args.hat + args.interval > 1:
        raise ValueError("nu takes only one of --k, --hat and --interval")
    if not args.interval and (args.m is not None or args.eps is not None):
        raise ValueError("nu takes --m and --eps only with --interval")
    if args.interval:
        if args.m is None or args.eps is None:
            raise ValueError("nu --interval needs --m and --eps")
        interval = conc.predicted_interval_sparse(args.n, args.m, args.eps)
        print(
            json.dumps(
                {
                    "lo": interval.lo,
                    "hi": interval.hi,
                    "delta_star": interval.delta_star,
                }
            )
        )
        return 0
    if args.hat:
        print(repr(conc.balanced_concentration(args.n)))
        return 0
    if args.k is None:
        raise ValueError("nu needs --k (or --hat / --interval)")
    print(repr(conc.concentration_point(args.n, args.k)))
    return 0


def _cmd_bins(args: argparse.Namespace) -> int:
    rng = derive_rng(args.seed, 0)
    counts = bin_loads(sample_locations(args.n, args.k, rng), args.n)
    if args.emit == "max":
        payload = {"n_bins": args.n, "k": args.k, "max_load": max_load(counts)}
    else:
        payload = {"n_bins": args.n, "k": args.k, "loads": counts.tolist()}
    print(json.dumps(payload))
    return 0


def _cmd_forest(args: argparse.Namespace) -> int:
    rng = derive_rng(args.seed, 0)
    if args.emit == "degrees":
        degrees = sample_forest_degrees(args.n, args.t, rng).tolist()
        print(json.dumps({"n": args.n, "t": args.t, "degrees": degrees}))
        return 0
    codeword = sample_codeword(args.n, args.t, rng)
    if args.emit == "pruefer":
        print(json.dumps({"n": args.n, "t": args.t, "sequence": codeword.tolist()}))
    else:
        lo, hi = decode_arrays(codeword, args.n, args.t)
        sys.stdout.write(format_edge_list(args.n, lo, hi))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    noncomplex = args.structure == "noncomplex"
    us, vs, _, report = sample_gnm_arrays(
        args.n, args.m, derive_rng(args.seed, 0), args.max_attempts, noncomplex
    )
    sys.stdout.write(format_edge_list(args.n, us, vs))
    if args.report:
        print(
            json.dumps(
                {
                    "attempts": report.attempts,
                    "accepted": report.accepted,
                    "reject_reasons": report.reject_reasons,
                },
                sort_keys=True,
            )
        )
    return 0


def _cmd_complex_part(args: argparse.Namespace) -> int:
    core = SimpleGraph.from_arrays(*args.core)
    us, vs = complex_part_arrays(core, args.q, derive_rng(args.seed, 0))
    sys.stdout.write(format_edge_list(args.q, us, vs))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    # One degree count on the labels gives Δ, k, l and the peel's degrees.
    # The masks carry a False slot 0, so their nonzero positions are labels;
    # the rest mask is True there and drops its first position.
    n, us, vs = args.graph
    degree = np.bincount(np.concatenate((us, vs)), minlength=n + 1)
    core, big, small = decompose_masks(n, us, vs, degree[1:])
    leaf = degree == 1
    payload = {
        "core_vertices": np.flatnonzero(core).tolist(),
        "qL_vertices": np.flatnonzero(big).tolist(),
        "qS_vertices": np.flatnonzero(small).tolist(),
        "u_vertices": np.flatnonzero(~(big | small))[1:].tolist(),
        "max_degree": int(degree.max()),
        "isolated_vertices": int(np.count_nonzero(degree[1:] == 0)),
        "isolated_edges": int(np.count_nonzero(leaf[us] & leaf[vs])),
    }
    print(json.dumps(payload))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    checks = sweep_ratio_bounds(args.n, planar_only=args.planar)
    print("m,k,l,d,count_src,count_dst,bound,holds")
    for check in checks:
        print(
            f"{check.m},{check.k},{check.l},{check.d},{check.count_src},"
            f"{check.count_dst},{check.bound!r},{'true' if check.holds else 'false'}"
        )
    if not checks:
        print(
            f"note: no class on [{args.n}] satisfies k >= 1, l >= 2, d >= 3; "
            "the bound holds vacuously",
            file=sys.stderr,
        )
    return 0 if all(c.holds for c in checks) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = harness.run_experiment(args.config, jobs=args.jobs)
    if args.out is not None:
        harness.emit(result.records, args.format, args.out, summary=result.summary)
    print(json.dumps(result.summary, sort_keys=True))
    if result.summary.get("thresholds_met") is False:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one ``degreelab`` command and return its exit code.

    ``argv`` is the argument list without the program name (``sys.argv[1:]``
    when None).  The code is 0 on success and 1 when a campaign misses its
    thresholds or a dense-ratio check fails.  A sampler that runs out of
    attempts raises ``RejectionLimitError``, which ends the process with
    exit 1.  A usage error, including a value the library refuses, prints
    the subcommand's usage line and raises ``SystemExit(2)``.  Safe to call
    repeatedly in one process: the parser is built on the first call and
    reused after.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        # A value the library refuses is bad input: a usage error, exit 2.
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
