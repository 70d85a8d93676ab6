"""Reproducible Monte Carlo experiment harness.

An experiment is a declarative config (what to sample, how often, with which
seed) that expands into independent trials.  Trial i draws its own random
generator from the campaign seed via a 64-bit mixing function, so results are
byte-identical for a fixed config and seed regardless of the degree of
parallelism, and trials can be shared out among processes.  ``jobs`` bounds
the processes a campaign uses; workers start only once the trials left are
expected to outlast starting them (see ``_run_trials``).

Each experiment kind is one entry of the ``_KINDS`` table: a ``plan`` that
resolves the kind's defaults at one grid point, checks the bounds that depend
on the kind and computes the predicted window (a config runs it at every grid
point when it is built, so a bad value fails at load, never mid-campaign); a
seeded ``trial``, or a ``sweep`` that yields all records of an exhaustive
campaign; and an optional ``summary`` of the kind's own entries.

Each trial yields a TrialRecord with the observed statistic, the predicted
window (when the experiment has one), and auxiliary data.  Records can be
emitted as CSV (columns: trial,observed,lo,hi,in_interval,aux_json) or JSON
(records plus a summary object).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from functools import partial
from multiprocessing import Pipe, Process
from typing import Any, Callable, Sequence

import numpy as np

from degreelab import concentration as conc
from degreelab import dense_ops
from degreelab.balls_bins import loads as bin_loads
from degreelab.balls_bins import max_load, sample_locations
from degreelab.graphs import (
    ENUMERATION_LIMIT,
    SimpleGraph,
    _leaf_ordered,
    decompose_masks,
)
from degreelab.pruefer import decode_arrays, sample_codeword, sample_forest_degrees
from degreelab.rng import derive_rng
from degreelab.samplers import (
    DEFAULT_MAX_ATTEMPTS,
    RejectionLimitError,
    complex_part_degrees,
    sample_gnm_arrays,
    validate_core,
)

JOBS_ENV_VAR = "DEGREELAB_JOBS"

#: Seconds that one campaign worker costs: start it, wait for its records and
#: join it.  A worker forked from a degreelab process that sends an empty
#: share costs a median of 2.0 ms (0.7 ms to start, 0.8 ms until it sends,
#: 0.5 ms to join; 115 starts, 2 vCPUs, Python 3.11.7), more than the 16
#: trials at n = 1e4 of bins_concentration, gnm_maxdegree, forest_maxdegree
#: or root_gap take in-process (0.95-2.45 ms, medians of 35 campaigns).
_WORKER_START_S = 0.002


def _check_integer(name: str, value: Any) -> int:
    """``value`` as a Python int, so that a NumPy integer derives seeds and
    serialises as JSON; ValueError unless it is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(name: str, value: Any, minimum: int) -> int:
    """``value`` as a Python int; ValueError unless it is an integer >= minimum."""
    value = _check_integer(name, value)
    if value < minimum:
        kind = "a positive" if minimum == 1 else "a non-negative"
        raise ValueError(f"{name} must be {kind} integer, got {value}")
    return value


def _core_graph(value: Any) -> SimpleGraph:
    """The core given by the edge list ``value``, checked as ``validate_core`` does.

    Raises ValueError naming the field and the value unless ``value`` is a
    list of [u, v] pairs forming a simple graph on [1, v] with minimum degree
    two.  ``SimpleGraph`` checks the labels, given as a tuple of all endpoints
    (a set would merge 1.0 into 1).
    """
    if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
        raise ValueError(f"core must be a list of [u, v] edges, got {value!r}")
    for edge in value:
        if (
            isinstance(edge, (str, bytes))
            or not isinstance(edge, (list, tuple))
            or len(edge) != 2
        ):
            raise ValueError(
                f"core edges must be [u, v] integer pairs, got {edge!r}"
            )
    try:
        core = SimpleGraph(vertices=tuple(v for e in value for v in e), edges=value)
        validate_core(core)
    except ValueError as err:
        raise ValueError(f"core {value!r} is not a valid core: {err}") from None
    return core


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo campaign.

    ``n`` may be a single size or a grid of sizes (trials are repeated per
    grid point).  ``m`` defaults to n // 2 where an edge count is needed,
    ``balls`` defaults to n, ``t`` defaults to 1 for forest_maxdegree and to
    ceil(n^0.7) for root_gap.  ``core`` is an edge list on [v] for
    complexpart_maxdegree, which uses ``q`` instead of ``n``.  Of
    ``_KIND_FIELDS``, a config sets off its default (None for all but
    ``eps``, ``max_attempts`` and ``planar_only``) only those its kind reads.
    Building a config runs its kind's plan at every grid point, which checks
    the bounds that depend on the kind (and a ``core``, once), and keeps the
    plans in ``plans`` for ``run_experiment``.
    """

    experiment: str
    n: int | tuple[int, ...] | None = None
    trials: int = 1
    eps: float = 0.25
    seed: int = 0
    m: int | None = None
    balls: int | None = None
    t: int | None = None
    q: int | None = None
    core: tuple[tuple[int, int], ...] | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    min_hit_rate: float | None = None
    planar_only: bool = True

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if isinstance(self.n, (list, tuple)):
            if not self.n:
                raise ValueError("n must be an integer or a non-empty grid, got []")
            grid = tuple(_check_count("n", v, minimum=1) for v in self.n)
            if len(set(grid)) < len(grid):
                raise ValueError(f"n must not repeat a grid size, got {list(grid)}")
            object.__setattr__(self, "n", grid)
        elif self.n is not None:
            object.__setattr__(self, "n", _check_count("n", self.n, minimum=1))
        checked = {
            "trials": _check_count("trials", self.trials, minimum=1),
            "seed": _check_integer("seed", self.seed),
            "max_attempts": _check_count("max_attempts", self.max_attempts, minimum=1),
        }
        for name in ("m", "balls", "t", "q"):
            if getattr(self, name) is not None:
                checked[name] = _check_count(name, getattr(self, name), minimum=0)
        # As Python floats, so that a float32 serialises and windows use doubles.
        eps = self.eps
        if (
            isinstance(eps, bool)
            or not isinstance(eps, numbers.Real)
            or not 0 < eps < math.inf
        ):
            raise ValueError(f"eps must be a positive finite number, got {eps!r}")
        checked["eps"] = float(eps)
        rate = self.min_hit_rate
        if rate is not None:
            if (
                isinstance(rate, bool)
                or not isinstance(rate, numbers.Real)
                or not 0 <= rate <= 1
            ):
                raise ValueError(f"min_hit_rate must lie in [0, 1], got {rate!r}")
            checked["min_hit_rate"] = float(rate)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not isinstance(self.planar_only, bool):
            raise ValueError(
                f"planar_only must be true or false, got {self.planar_only!r}"
            )
        kind = _KINDS[self.experiment]
        if self.core is not None and "core" not in kind.reads:
            # Refused below; checked first so that a malformed core is named
            # as such.  A kind that reads the core checks it in its plan.
            _core_graph(self.core)
        for name in _KIND_FIELDS:
            unset = self.__dataclass_fields__[name].default
            if name not in kind.reads and getattr(self, name) != unset:
                raise ValueError(
                    f"{name} must be left out for {self.experiment}, which reads "
                    f"{', '.join(kind.reads)}, got {self.to_dict()[name]}"
                )
        # A plain attribute, not a field, so to_dict, ==, hash and repr
        # ignore it.
        plans = tuple(kind.plan(self, n) for n in self.n_grid)
        object.__setattr__(self, "plans", plans)
        if self.core is not None:
            object.__setattr__(
                self, "core", tuple((int(u), int(v)) for u, v in self.core)
            )

    @property
    def n_grid(self) -> tuple[int | None, ...]:
        if self.n is None:
            return (None,)
        if isinstance(self.n, tuple):
            return self.n
        return (self.n,)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be an object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in data:
            raise ValueError("a config needs an 'experiment' field")
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if isinstance(data["n"], tuple):
            data["n"] = list(data["n"])
        if data["core"] is not None:
            data["core"] = [list(e) for e in data["core"]]
        return data


@dataclass(frozen=True)
class TrialRecord:
    """One trial outcome: observed statistic, predicted window, extras.

    ``observed`` is None when the trial's sampler exhausted its attempt
    budget; such trials never count as in-window.  A vacuous ``dense_ratio``
    check (empty source class) has no ratio either, and counts as holding.
    ``lo``/``hi`` are None for experiments without a prediction, in which
    case any observed value is in-window.
    """

    trial_index: int
    observed: int | float | None
    lo: int | None
    hi: int | None
    in_interval: bool
    auxiliary: dict[str, Any] = field(default_factory=dict)


def _record(
    trial_index: int,
    observed: int | float | None,
    lo: int | None,
    hi: int | None,
    auxiliary: dict[str, Any],
) -> TrialRecord:
    in_interval = observed is not None and not (
        (lo is not None and observed < lo) or (hi is not None and observed > hi)
    )
    return TrialRecord(trial_index, observed, lo, hi, in_interval, auxiliary)


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[TrialRecord, ...]
    summary: dict[str, Any]


# ---------------------------------------------------------------------------
# Plans: defaults, bounds and the predicted window of one grid point
# ---------------------------------------------------------------------------


def _given(cfg: ExperimentConfig, name: str, value: Any) -> Any:
    if value is None:
        raise ValueError(f"{name} must be given for {cfg.experiment}, got None")
    return value


def _within(
    cfg: ExperimentConfig, name: str, value: int, lo: int, hi: int, where: str = ""
) -> int:
    """``value`` if it lies in [lo, hi]; else a ValueError naming field and value."""
    if not lo <= value <= hi:
        default = "" if getattr(cfg, name) is not None else " (its default)"
        raise ValueError(
            f"{name} must lie in [{lo}, {hi}] for {cfg.experiment}{where}, "
            f"got {value}{default}"
        )
    return value


def _edge_count(cfg: ExperimentConfig, n: int, lo: int, hi: int) -> int:
    m = cfg.m if cfg.m is not None else n // 2
    return _within(cfg, "m", m, lo, hi, f" with n = {n}")


def _window(c: float, eps: float, shift: int = 0) -> dict[str, int]:
    return {"lo": math.floor(c - eps) + shift, "hi": math.floor(c + eps) + shift}


def _plan_bins(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    n = _given(cfg, "n", n)
    balls = cfg.balls if cfg.balls is not None else n
    if balls < 1:
        raise ValueError(f"balls must be positive for {cfg.experiment}, got {balls}")
    c = conc.concentration_point(n, balls)
    return {"n": n, "balls": balls, **_window(c, cfg.eps)}


def _plan_gnm(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    n = _given(cfg, "n", n)
    m = _edge_count(cfg, n, 1, n * (n - 1) // 2)
    return {"n": n, "m": m, **_window(conc.concentration_point(n, 2 * m), cfg.eps)}


def _plan_noncomplex(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    n = _given(cfg, "n", n)
    m = _edge_count(cfg, n, 1, n - 1)
    delta_star = conc.predicted_interval_sparse(n, m, cfg.eps).delta_star
    return {"n": n, "m": m, "lo": delta_star, "hi": delta_star + 1}


def _plan_forest(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    n = _given(cfg, "n", n)
    t = cfg.t if cfg.t is not None else 1
    t = _within(cfg, "t", t, 1, n - 1, f" with n = {n}")
    return {"n": n, "t": t, **_window(conc.balanced_concentration(n), cfg.eps, 1)}


def _plan_complexpart(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    core = _core_graph(_given(cfg, "core", cfg.core))
    q = _given(cfg, "q", cfg.q)
    if q < core.order + 1:
        raise ValueError(f"q must be at least v(core) + 1 = {core.order + 1}, got {q}")
    return {"q": q, "core": core, **_window(conc.balanced_concentration(q), cfg.eps, 1)}


def _plan_root_gap(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    n = _given(cfg, "n", n)
    t = cfg.t if cfg.t is not None else math.ceil(n**0.7)
    t = _within(cfg, "t", t, 1, n - 1, f" with n = {n}")
    return {"n": n, "t": t, "lo": None, "hi": None}


def _plan_decomposition(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    n = _given(cfg, "n", n)
    m = _edge_count(cfg, n, 0, n * (n - 1) // 2)
    return {"n": n, "m": m, "lo": None, "hi": None}


def _plan_dense_ratio(cfg: ExperimentConfig, n: int | None) -> dict[str, Any]:
    if isinstance(cfg.n, tuple):
        raise ValueError(
            f"n must be a single integer for {cfg.experiment}, got {list(cfg.n)}"
        )
    n = _within(cfg, "n", _given(cfg, "n", n), 1, ENUMERATION_LIMIT)
    return {"n": n, "lo": None, "hi": None}


# ---------------------------------------------------------------------------
# Trials: one seeded draw against a plan, returning the observed statistic
# ---------------------------------------------------------------------------


def _bins_trial(cfg, plan, rng, aux) -> int:
    entries = sample_locations(plan["n"], plan["balls"], rng)
    return max_load(bin_loads(entries, plan["n"]))


def _gnm_trial(cfg, plan, rng, aux, require_noncomplex: bool = False) -> int:
    _, _, load_counts, report = sample_gnm_arrays(
        plan["n"], plan["m"], rng, cfg.max_attempts, require_noncomplex
    )
    aux["attempts"] = report.attempts
    return int(load_counts.max())


def _forest_trial(cfg, plan, rng, aux) -> int:
    degrees = sample_forest_degrees(plan["n"], plan["t"], rng)
    aux["max_root_degree"] = int(degrees[: plan["t"]].max())
    return int(degrees.max())


def _root_gap_trial(cfg, plan, rng, aux) -> int:
    aux["max_degree"] = _forest_trial(cfg, plan, rng, aux)
    return aux["max_degree"] - aux["max_root_degree"]


def _complexpart_trial(cfg, plan, rng, aux) -> int:
    """Maximum degree of a uniform complex part on [q] over the plan's core.

    The codeword drawn for the grafted forest fixes the degree sequence
    (occurrence counts, plus one per non-root, plus the core degrees), so
    the degrees are read off it.  The decoded forest comes in leaf order, so
    ``_leaf_ordered`` checks without a graft or a peel that peeling recovers
    the core; the plan's ``validate_core`` has checked the core's own half.
    Over a bare-cycle core, such as a triangle, the graph is unicyclic rather
    than complex, and the law of its maximum degree is the same.
    """
    core: SimpleGraph = plan["core"]
    q, v = plan["q"], core.order
    codeword = sample_codeword(q, v, rng)
    core_recovered = _leaf_ordered(q, v, *decode_arrays(codeword, q, v))
    # After the decode: held through it, the degrees raised the trial's
    # peak of traced memory at q = 1e5 from 6.9 to 7.7 MiB.
    degrees = complex_part_degrees(core, codeword)
    aux["max_root_degree"] = int(degrees[:v].max())
    aux["core_recovered"] = core_recovered
    return int(degrees.max())


def _decomposition_trial(cfg, plan, rng, aux) -> int:
    """Core and part sizes of G(n, m); returns the core's maximum degree.

    The sampler's bin loads are the degree sequence and go to the peel, and
    the masks carry a False slot 0, so the 1-based endpoints index them.
    """
    n = plan["n"]
    us, vs, loads, report = sample_gnm_arrays(n, plan["m"], rng, cfg.max_attempts)
    core, big, small = decompose_masks(n, us, vs, loads)
    core_edge = core[us] & core[vs]
    core_degrees = np.bincount(np.concatenate((us[core_edge], vs[core_edge])))
    qL_vertices = int(np.count_nonzero(big))
    qS_vertices = int(np.count_nonzero(small))
    aux.update(
        attempts=report.attempts,
        core_vertices=int(np.count_nonzero(core)),
        core_edges=int(np.count_nonzero(core_edge)),
        core_max_degree=int(core_degrees.max(initial=0)),
        largest_core_component=int(np.count_nonzero(core & big)),
        qL_vertices=qL_vertices,
        qS_vertices=qS_vertices,
        u_vertices=n - qL_vertices - qS_vertices,
        u_edges=us.size - int(np.count_nonzero((big | small)[us])),
    )
    return aux["core_max_degree"]


def _dense_ratio_sweep(cfg, plan) -> list[TrialRecord]:
    checks = dense_ops.sweep_ratio_bounds(plan["n"], cfg.planar_only)
    records = []
    for i, check in enumerate(checks):
        ratio = check.count_dst / check.count_src if check.count_src else None
        aux = dict(m=check.m, k=check.k, l=check.l, d=check.d,
                   count_src=check.count_src, count_dst=check.count_dst,
                   bound=check.bound, vacuous=check.vacuous)
        records.append(TrialRecord(i, ratio, None, None, check.holds, aux))
    return records


def _dense_ratio_summary(records: Sequence[TrialRecord]) -> dict[str, Any]:
    return {
        "violations": sum(1 for r in records if not r.in_interval),
        "vacuous": sum(1 for r in records if r.auxiliary.get("vacuous")),
    }


def _decomposition_summary(records: Sequence[TrialRecord]) -> dict[str, Any]:
    stats: dict[str, Any] = {}
    numeric_keys = (
        "core_vertices",
        "core_max_degree",
        "largest_core_component",
        "qL_vertices",
        "qS_vertices",
        "u_vertices",
        "u_edges",
    )
    ok = [r for r in records if r.observed is not None]
    for key in numeric_keys:
        values = [r.auxiliary[key] for r in ok]
        if values:
            stats[key] = {
                "min": min(values),
                "median": statistics.median(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }
    excess = [r.auxiliary["u_edges"] - r.auxiliary["u_vertices"] / 2 for r in ok]
    if excess:
        stats["u_edge_excess"] = {
            "min": min(excess),
            "median": statistics.median(excess),
            "max": max(excess),
        }
    return {"decomposition": stats}


#: The config fields that only some kinds read (``_Kind.reads``).
_KIND_FIELDS = (
    "n", "m", "balls", "t", "q", "core", "eps", "max_attempts", "planar_only"
)


@dataclass(frozen=True)
class _Kind:
    """How one experiment kind runs; exactly one of ``trial`` and ``sweep`` is set."""

    reads: tuple[str, ...]  # those of _KIND_FIELDS it reads; others are refused
    plan: Callable[[ExperimentConfig, int | None], dict[str, Any]]
    trial: Callable[..., int] | None = None
    sweep: Callable[[ExperimentConfig, dict[str, Any]], list[TrialRecord]] | None = None
    summary: Callable[[Sequence[TrialRecord]], dict[str, Any]] | None = None


_KINDS: dict[str, _Kind] = {
    "bins_concentration": _Kind(("n", "balls", "eps"), _plan_bins, _bins_trial),
    "gnm_maxdegree": _Kind(
        ("n", "m", "eps", "max_attempts"), _plan_gnm, _gnm_trial
    ),
    "noncomplex_maxdegree": _Kind(
        ("n", "m", "max_attempts"),
        _plan_noncomplex,
        partial(_gnm_trial, require_noncomplex=True),
    ),
    "forest_maxdegree": _Kind(("n", "t", "eps"), _plan_forest, _forest_trial),
    "complexpart_maxdegree": _Kind(
        ("q", "core", "eps"), _plan_complexpart, _complexpart_trial
    ),
    "root_gap": _Kind(("n", "t"), _plan_root_gap, _root_gap_trial),
    "decomposition_stats": _Kind(
        ("n", "m", "max_attempts"),
        _plan_decomposition,
        _decomposition_trial,
        summary=_decomposition_summary,
    ),
    "dense_ratio": _Kind(
        ("n", "planar_only"),
        _plan_dense_ratio,
        sweep=_dense_ratio_sweep,
        summary=_dense_ratio_summary,
    ),
}

EXPERIMENTS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


def _run_trial(task: tuple[ExperimentConfig, dict[str, Any], int]) -> TrialRecord:
    cfg, plan, index = task
    aux: dict[str, Any] = {}
    if isinstance(cfg.n, tuple):
        aux["n"] = plan["n"]
    trial = _KINDS[cfg.experiment].trial
    try:
        observed = trial(cfg, plan, derive_rng(cfg.seed, index), aux)
    except RejectionLimitError as err:
        aux.update(error="rejection_limit", attempts=err.report.attempts)
        observed = None
    return _record(index, observed, plan["lo"], plan["hi"], aux)


def default_jobs() -> int:
    value = os.environ.get(JOBS_ENV_VAR)
    if value is None:
        return 1
    try:
        jobs = int(value)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV_VAR} must be a positive integer, got {value!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be a positive integer, got {value}")
    return jobs


def _run_share(tasks, sender) -> None:
    """Worker body: send the records of ``tasks``, or the error and traceback."""
    try:
        share = [_run_trial(task) for task in tasks]
    except Exception as err:
        share = (err, traceback.format_exc())
    sender.send(share)


def _run_forked(tasks: list, workers: int) -> list[TrialRecord]:
    """Run ``tasks`` on this process and ``workers - 1`` worker processes.

    Process w runs every ``workers``-th task from task w, so the shares differ
    by at most one task and mix the grid points.  The workers are joined before
    this returns; if a share fails, the others are killed first.
    """
    records: list[Any] = [None] * len(tasks)
    started = []
    try:
        for w in range(1, workers):
            receiver, sender = Pipe(duplex=False)
            process = Process(target=_run_share, args=(tasks[w::workers], sender))
            process.start()
            sender.close()
            started.append((w, process, receiver))
        records[0::workers] = [_run_trial(task) for task in tasks[0::workers]]
        for w, process, receiver in started:
            try:
                share = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"a campaign worker exited with code {process.exitcode}"
                ) from None
            if isinstance(share, tuple):
                err, worker_traceback = share
                raise err from RuntimeError(
                    f"raised in a campaign worker:\n{worker_traceback}"
                )
            records[w::workers] = share
    except BaseException:
        for _, process, _ in started:
            process.kill()
        raise
    finally:
        for _, process, receiver in started:
            process.join()
            receiver.close()
    return records


def _run_trials(tasks: list, jobs: int) -> list[TrialRecord]:
    """Run ``tasks`` here until workers pay for themselves, then on ``_run_forked``.

    Before each trial the mean wall time of the trials run so far prices the
    rest: w = min(jobs, remaining) processes save mean * remaining * (1 - 1/w)
    of it, and their w - 1 workers cost ``_WORKER_START_S`` each.  Once the
    saving is at least that cost, the remaining tasks go to ``_run_forked``
    on w processes.  The mean counts as 0 before the first trial, so workers
    start before it only when they cost nothing, and at jobs 1 every task
    goes to ``_run_forked`` on one process before any trial is timed.
    """
    records: list[TrialRecord] = []
    began = time.perf_counter()
    for i, task in enumerate(tasks):
        remaining = len(tasks) - i
        workers = min(jobs, remaining)
        mean = (time.perf_counter() - began) / i if i else 0.0
        if mean * remaining * (1 - 1 / workers) >= (workers - 1) * _WORKER_START_S:
            return records + _run_forked(tasks[i:], workers)
        records.append(_run_trial(task))
    return records


def run_experiment(
    cfg: ExperimentConfig, jobs: int | None = None
) -> ExperimentResult:
    """Run all trials of a campaign and summarise them.

    Per-trial generators depend only on (seed, trial index), and records are
    ordered by trial index, so the output is identical for any ``jobs``.
    ``jobs`` bounds the processes that run trials: this one and workers
    started for the campaign alone, joined before it returns, never more
    than there are trials left.  Workers start only once the trials left,
    priced at the mean of those run so far, are expected to take longer than
    starting them; a campaign of cheap trials runs in this process alone.
    """
    if jobs is None:
        jobs = default_jobs()
    _check_count("jobs", jobs, minimum=1)

    kind = _KINDS[cfg.experiment]
    if kind.sweep is not None:
        records = kind.sweep(cfg, *cfg.plans)
    else:
        tasks = [
            (cfg, plan, g * cfg.trials + i)
            for g, plan in enumerate(cfg.plans)
            for i in range(cfg.trials)
        ]
        records = _run_trials(tasks, jobs)
    return ExperimentResult(records=tuple(records), summary=_summarise(cfg, records))


def _histogram_key(record: TrialRecord) -> str:
    """The observed value, or why there is none: a vacuous ratio check has no
    ratio to observe, and any other trial without one failed."""
    if record.observed is not None:
        return str(record.observed)
    return "vacuous" if record.auxiliary.get("vacuous") else "failed"


def _summarise(cfg: ExperimentConfig, records: Sequence[TrialRecord]) -> dict[str, Any]:
    hits = sum(1 for r in records if r.in_interval)
    histogram: dict[str, int] = {}
    for r in records:
        key = _histogram_key(r)
        histogram[key] = histogram.get(key, 0) + 1
    failures = histogram.get("failed", 0)
    summary: dict[str, Any] = {
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "trials": len(records),
        "hits": hits,
        "hit_rate": hits / len(records) if records else None,
        "failures": failures,
        "histogram": dict(sorted(histogram.items())),
    }

    if isinstance(cfg.n, tuple):
        by_n: dict[str, Any] = {}
        per = cfg.trials
        for g, n in enumerate(cfg.n_grid):
            chunk = records[g * per : (g + 1) * per]
            observed = [r.observed for r in chunk if r.observed is not None]
            entry: dict[str, Any] = {
                "trials": len(chunk),
                "hit_rate": sum(r.in_interval for r in chunk) / len(chunk),
                "median_observed": statistics.median(observed) if observed else None,
            }
            if entry["median_observed"] is not None and n and n > math.e:
                entry["median_log_ratio"] = (
                    entry["median_observed"] * math.log(math.log(n)) / math.log(n)
                )
            by_n[str(n)] = entry
        summary["by_n"] = by_n
        medians = [
            by_n[str(n)]["median_observed"]
            for n in cfg.n_grid
            if by_n[str(n)]["median_observed"] is not None
        ]
        summary["medians_strictly_increasing"] = all(
            a < b for a, b in zip(medians, medians[1:])
        )

    extra = _KINDS[cfg.experiment].summary
    if extra is not None:
        summary.update(extra(records))

    if cfg.min_hit_rate is not None and summary["hit_rate"] is not None:
        summary["min_hit_rate"] = cfg.min_hit_rate
        summary["thresholds_met"] = summary["hit_rate"] >= cfg.min_hit_rate
    else:
        summary["thresholds_met"] = None
    return summary


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("trial", "observed", "lo", "hi", "in_interval", "aux_json")


def _cell(value: int | float | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(
    records: Sequence[TrialRecord],
    format: str,
    path: str,
    summary: dict[str, Any] | None = None,
) -> None:
    """Write records to ``path`` as CSV or JSON.

    CSV columns are exactly trial,observed,lo,hi,in_interval,aux_json; JSON
    output is an object with a records array and a summary object.
    """
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow(
                    [
                        r.trial_index,
                        _cell(r.observed),
                        _cell(r.lo),
                        _cell(r.hi),
                        "true" if r.in_interval else "false",
                        json.dumps(r.auxiliary, sort_keys=True, separators=(",", ":")),
                    ]
                )
    elif format == "json":
        payload = {
            "records": [
                {
                    "trial": r.trial_index,
                    "observed": r.observed,
                    "lo": r.lo,
                    "hi": r.hi,
                    "in_interval": r.in_interval,
                    "auxiliary": r.auxiliary,
                }
                for r in records
            ],
            "summary": summary or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")

