"""The benchmark's four workloads: configs, one round of work, and output checks.

Every campaign config is derived from the workload seed, the round index and
the campaign's position in the round, so the same seed gives the same inputs
and no two rounds repeat a campaign.  A round is timed by the caller; checks
run afterwards, outside the timed region.

The workloads drive degreelab only through its public API and CLI:
``harness.run_experiment``, ``cli.main(["experiment", "run", ...])`` and the
``dense_ratio`` campaign, which calls ``dense_ops.sweep_ratio_bounds``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any

from degreelab import cli, dense_ops, graphs, harness
from degreelab.concentration import TWO_POINT_EPS, concentration_point
from degreelab.harness import ExperimentConfig

TRIANGLE = ((1, 2), (1, 3), (2, 3))

#: Labelled planar graphs on n vertices (OEIS A066537).
PLANAR_GRAPH_COUNTS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1023, 6: 32071, 7: 1823707}

#: Every campaign kind that samples, in the order the CLI workload runs them.
CLI_KINDS = (
    "bins_concentration",
    "gnm_maxdegree",
    "noncomplex_maxdegree",
    "forest_maxdegree",
    "complexpart_maxdegree",
    "root_gap",
    "decomposition_stats",
)

# Held before the tracer rebinds the module attributes, so that clearing the
# caches always reaches the real lru_cache objects.
_CACHED = (graphs.planarity_table, dense_ops.classify_all_graphs)


def campaign_seed(seed: int, round_index: int, position: int) -> int:
    """Campaign seed for one campaign of one round, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{round_index}:{position}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def expected_window(cfg: ExperimentConfig) -> tuple[int | None, int | None]:
    """Predicted window recomputed from ``concentration_point``, independently of the harness."""
    kind, eps = cfg.experiment, cfg.eps
    n = cfg.n
    m = cfg.m if cfg.m is not None else (n // 2 if n is not None else None)
    if kind == "bins_concentration":
        c = concentration_point(n, cfg.balls if cfg.balls is not None else n)
        return math.floor(c - eps), math.floor(c + eps)
    if kind == "gnm_maxdegree":
        c = concentration_point(n, 2 * m)
        return math.floor(c - eps), math.floor(c + eps)
    if kind == "noncomplex_maxdegree":
        delta = math.floor(concentration_point(n, 2 * m) - TWO_POINT_EPS)
        return delta, delta + 1
    if kind == "forest_maxdegree":
        c = concentration_point(n, n)
        return math.floor(c - eps) + 1, math.floor(c + eps) + 1
    if kind == "complexpart_maxdegree":
        c = concentration_point(cfg.q, cfg.q)
        return math.floor(c - eps) + 1, math.floor(c + eps) + 1
    return None, None


@dataclass(frozen=True)
class Campaign:
    """One campaign of a round: a config template and what its output must satisfy."""

    cfg: ExperimentConfig
    lo: int | None
    hi: int | None
    fmt: str = "csv"

    @classmethod
    def of(cls, fmt: str = "csv", **fields: Any) -> "Campaign":
        cfg = ExperimentConfig(**fields)
        lo, hi = expected_window(cfg)
        return cls(cfg=cfg, lo=lo, hi=hi, fmt=fmt)


@dataclass
class Outcome:
    """What one campaign of a round produced: emitted bytes or the error raised."""

    campaign: Campaign
    cfg: ExperimentConfig
    data: bytes = b""
    error: str | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def _rows(fmt: str, data: bytes) -> list[dict[str, Any]]:
    """Records of a CSV or JSON emission as dicts with observed, lo, hi, in_interval, aux."""
    if fmt == "json":
        return [
            {
                "observed": r["observed"],
                "lo": r["lo"],
                "hi": r["hi"],
                "in_interval": r["in_interval"],
                "aux": r["auxiliary"],
            }
            for r in json.loads(data)["records"]
        ]
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [
        {
            "observed": row["observed"] or None,
            "lo": int(row["lo"]) if row["lo"] else None,
            "hi": int(row["hi"]) if row["hi"] else None,
            "in_interval": row["in_interval"] == "true",
            "aux": json.loads(row["aux_json"]),
        }
        for row in reader
    ]


def _failed_trials(campaign: Campaign, cfg: ExperimentConfig, rows: list[dict]) -> int:
    """Trials of a campaign whose record breaks an invariant; all of them if any is missing."""
    if len(rows) != cfg.trials:
        return cfg.trials
    failed = 0
    for row in rows:
        aux = row["aux"]
        ok = row["observed"] is not None and (row["lo"], row["hi"]) == (
            campaign.lo,
            campaign.hi,
        )
        if cfg.experiment == "complexpart_maxdegree":
            ok = ok and aux.get("core_recovered") is True
        if cfg.experiment == "decomposition_stats":
            parts = sum(aux.get(k, 0) for k in ("qL_vertices", "qS_vertices", "u_vertices"))
            ok = ok and parts == cfg.n
        failed += not ok
    return failed


class CampaignWorkload:
    """Rounds of seeded campaigns, run through ``harness.run_experiment`` or the CLI.

    With ``via_cli`` each campaign is one ``experiment run`` command that loads
    a JSON config and writes its records with ``--out``; otherwise records are
    emitted after the timed round so that they can be checked and digested.
    """

    def __init__(self, name: str, campaigns: list[Campaign], workdir: str, via_cli: bool):
        self.name = name
        self.campaigns = campaigns
        self.workdir = workdir
        self.via_cli = via_cli
        self.trials_per_round = sum(c.cfg.trials for c in campaigns)

    def configs(self, seed: int, round_index: int) -> list[ExperimentConfig]:
        return [
            dataclasses.replace(c.cfg, seed=campaign_seed(seed, round_index, i))
            for i, c in enumerate(self.campaigns)
        ]

    def _path(self, i: int, suffix: str) -> str:
        return os.path.join(self.workdir, f"{self.name}_{i}.{suffix}")

    def prepare(self, seed: int, round_index: int) -> list[ExperimentConfig]:
        """Configs of one round; for the CLI they are also written as JSON files."""
        cfgs = self.configs(seed, round_index)
        if self.via_cli:
            for i, cfg in enumerate(cfgs):
                with open(self._path(i, "json"), "w", encoding="utf-8") as handle:
                    json.dump(cfg.to_dict(), handle)
        return cfgs

    def run(self, cfgs: list[ExperimentConfig], jobs: int) -> list[Any]:
        """The timed round: every campaign once, in order."""
        results: list[Any] = []
        for i, (campaign, cfg) in enumerate(zip(self.campaigns, cfgs)):
            try:
                if self.via_cli:
                    argv = [
                        "experiment", "run",
                        "--config", self._path(i, "json"),
                        "--out", self._path(i, campaign.fmt),
                        "--format", campaign.fmt,
                        "--jobs", str(jobs),
                    ]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    results.append(None if code == 0 else f"exit code {code}")
                else:
                    results.append(harness.run_experiment(cfg, jobs=jobs))
            except Exception as err:  # a failing campaign is counted, not fatal
                results.append(f"{type(err).__name__}: {err}")
        return results

    def collect(self, cfgs: list[ExperimentConfig], results: list[Any]) -> list[Outcome]:
        """Emitted bytes of every campaign of a round (after timing)."""
        outcomes = []
        for i, (campaign, cfg, result) in enumerate(zip(self.campaigns, cfgs, results)):
            outcome = Outcome(campaign=campaign, cfg=cfg)
            if isinstance(result, str):
                outcome.error = result
            else:
                path = self._path(i, campaign.fmt)
                if not self.via_cli:
                    harness.emit(result.records, campaign.fmt, path, summary=result.summary)
                with open(path, "rb") as handle:
                    outcome.data = handle.read()
            outcomes.append(outcome)
        return outcomes

    def check(self, outcomes: list[Outcome], tally: Tally, digests: list[str] | None) -> None:
        for i, out in enumerate(outcomes):
            trials = out.cfg.trials
            where = f"{self.name} {out.cfg.experiment} seed={out.cfg.seed}"
            if out.error is not None:
                tally.add(trials, trials, f"{where}: {out.error}")
                continue
            if digests is not None and hashlib.sha256(out.data).hexdigest() != digests[i]:
                tally.add(trials, trials, f"{where}: records differ from the stored digest")
                continue
            failed = _failed_trials(out.campaign, out.cfg, _rows(out.campaign.fmt, out.data))
            tally.add(trials, failed, f"{where}: {failed} trials fail a check" if failed else None)


class EnumerationWorkload:
    """Cold exhaustive sweeps: the public caches are cleared before every round."""

    name = "enumeration"
    trials_per_round = 1

    def __init__(self, n: int, workdir: str):
        self.n = n
        self.workdir = workdir

    def configs(self, seed: int, round_index: int) -> list[ExperimentConfig]:
        return [
            ExperimentConfig(
                experiment="dense_ratio",
                n=self.n,
                planar_only=True,
                seed=campaign_seed(seed, round_index, 0),
            )
        ]

    prepare = configs

    def run(self, cfgs: list[ExperimentConfig], jobs: int) -> list[Any]:
        for cached in _CACHED:
            cached.cache_clear()
        try:
            return [harness.run_experiment(cfgs[0], jobs=jobs)]
        except Exception as err:
            return [f"{type(err).__name__}: {err}"]

    def collect(self, cfgs: list[ExperimentConfig], results: list[Any]) -> list[Outcome]:
        outcome = Outcome(campaign=Campaign(cfg=cfgs[0], lo=None, hi=None), cfg=cfgs[0])
        if isinstance(results[0], str):
            outcome.error = results[0]
            return [outcome]
        path = os.path.join(self.workdir, "enumeration.csv")
        harness.emit(results[0].records, "csv", path)
        with open(path, "rb") as handle:
            outcome.data = handle.read()
        return [outcome]

    def check(self, outcomes: list[Outcome], tally: Tally, digests: list[str] | None) -> None:
        out = outcomes[0]
        if out.error is not None:
            tally.add(1, 1, f"enumeration: {out.error}")
            return
        problems = []
        if digests is not None and hashlib.sha256(out.data).hexdigest() != digests[0]:
            problems.append("records differ from the stored digest")
        if not all(row["in_interval"] for row in _rows("csv", out.data)):
            problems.append("a ratio check fails its bound")
        table = dense_ops.classify_all_graphs(self.n)
        total_all = sum(a for a, _ in table.values())
        total_planar = sum(p for _, p in table.values())
        if total_all != 2 ** (self.n * (self.n - 1) // 2):
            problems.append(f"class counts total {total_all} graphs")
        if total_planar != PLANAR_GRAPH_COUNTS[self.n]:
            problems.append(f"planar class counts total {total_planar}")
        problem = "enumeration: " + "; ".join(problems) if problems else None
        tally.add(1, 1 if problems else 0, problem)


def build(name: str, workdir: str, smoke: bool = False):
    """The named workload at full size, or at a tiny size for the self-test."""
    n = 2_000 if smoke else 100_000
    if name == "sampling":
        campaigns = [
            Campaign.of(experiment="bins_concentration", n=n, balls=n),
            Campaign.of(experiment="gnm_maxdegree", n=n, m=n // 2),
            Campaign.of(experiment="noncomplex_maxdegree", n=n, m=n // 2),
            Campaign.of(experiment="forest_maxdegree", n=n, t=1),
            Campaign.of(experiment="root_gap", n=n, t=math.ceil(n**0.7)),
        ]
        return CampaignWorkload(name, campaigns, workdir, via_cli=False)
    if name == "structure":
        campaigns = [
            Campaign.of(experiment="complexpart_maxdegree", q=n, core=TRIANGLE, eps=0.25),
            Campaign.of(experiment="decomposition_stats", n=n, m=n * 6 // 10),
        ]
        return CampaignWorkload(name, campaigns, workdir, via_cli=False)
    if name == "enumeration":
        return EnumerationWorkload(6 if smoke else 7, workdir)
    if name == "cli_campaigns":
        size, trials = (1_000, 4) if smoke else (10_000, 16)
        campaigns = []
        for i, kind in enumerate(CLI_KINDS):
            fields: dict[str, Any] = {"experiment": kind, "trials": trials}
            if kind == "complexpart_maxdegree":
                fields.update(q=size, core=TRIANGLE)
            else:
                fields["n"] = size
            campaigns.append(Campaign.of(fmt="json" if i % 2 else "csv", **fields))
        return CampaignWorkload(name, campaigns, workdir, via_cli=True)
    raise ValueError(f"unknown workload {name!r}")
