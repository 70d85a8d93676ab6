"""Tests for the experiment harness: determinism, summaries, emission."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace
from itertools import combinations, count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degreelab import harness
from degreelab.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentConfig,
    TrialRecord,
    default_jobs,
    emit,
    run_experiment,
)
from degreelab.rng import derive_seed, mix64

TRIANGLE = ((1, 2), (1, 3), (2, 3))


@pytest.fixture
def eager_workers():
    """Price campaign workers at 0 s, so ``jobs`` >= 2 forks before the first trial.

    It patches through its own MonkeyPatch, so a test's ``monkeypatch.undo()``
    leaves it in place.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_WORKER_START_S", 0.0)
        yield


class TestSeedDerivation:
    def test_mix_is_bijective_on_samples(self):
        values = {mix64(v) for v in range(10_000)}
        assert len(values) == 10_000

    def test_trial_seeds_pairwise_distinct(self):
        seeds = {derive_seed(987654321, i) for i in range(100_000)}
        assert len(seeds) == 100_000

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)


@st.composite
def cores(draw):
    """Valid cores: a cycle on [k] plus chords, edges in any order and orientation."""
    k = draw(st.integers(3, 9))
    cycle = [(i, i % k + 1) for i in range(1, k + 1)]
    chords = [
        (u, v) for u, v in combinations(range(1, k + 1), 2) if v - u not in (1, k - 1)
    ]
    if chords:
        edges = cycle + draw(st.lists(st.sampled_from(chords), unique=True))
    else:
        edges = cycle
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    return draw(st.permutations(edges))


def _common_fields(draw, experiment: str, max_attempts: int) -> dict:
    """The fields every kind takes, plus ``eps``, ``max_attempts`` and
    ``planar_only`` where the kind reads them; elsewhere they are left at
    their defaults."""
    fields = {
        "seed": draw(st.integers(0, 2**63 - 1)),
        "min_hit_rate": draw(st.none() | st.floats(0.0, 1.0)),
    }
    reads = harness._KINDS[experiment].reads
    if "eps" in reads:
        fields["eps"] = draw(st.floats(1e-6, 10.0))
    if "max_attempts" in reads:
        fields["max_attempts"] = draw(st.integers(1, max_attempts))
    if "planar_only" in reads:
        fields["planar_only"] = draw(st.booleans())
    return fields


@st.composite
def valid_fields(draw, largest):
    """Config fields valid for the drawn kind, with sizes up to ``largest``.

    The field a kind bounds is drawn within its bounds at every grid point;
    the fields it does not read are left out.
    """
    experiment = draw(st.sampled_from(EXPERIMENTS))
    fields = {"experiment": experiment, "trials": draw(st.integers(1, 10**6))}
    fields.update(_common_fields(draw, experiment, 10**6))
    if experiment == "complexpart_maxdegree":
        core = draw(cores())
        fields.update(core=core, q=draw(st.integers(max(map(max, core)) + 1, largest)))
        return fields
    if experiment == "dense_ratio":
        fields["n"] = draw(st.integers(1, 7))
        return fields
    least_n = 1 if experiment in ("bins_concentration", "decomposition_stats") else 2
    size = st.integers(least_n, largest)
    fields["n"] = n = draw(size | st.lists(size, min_size=1, max_size=4, unique=True))
    least = n if isinstance(n, int) else min(n)
    name, lo, hi = {
        "bins_concentration": ("balls", 1, largest),
        "gnm_maxdegree": ("m", 1, least * (least - 1) // 2),
        "noncomplex_maxdegree": ("m", 1, least - 1),
        "forest_maxdegree": ("t", 1, least - 1),
        "root_gap": ("t", 1, least - 1),
        "decomposition_stats": ("m", 0, least * (least - 1) // 2),
    }[experiment]
    # Every default is valid but root_gap's t = ceil(n^0.7), which equals n
    # below n = 4.
    default = st.nothing() if experiment == "root_gap" and least < 4 else st.none()
    fields[name] = draw(default | st.integers(lo, hi))
    return fields


@st.composite
def small_fields(draw):
    """One-trial config fields at small sizes, valid for the drawn kind or not.

    Only the fields the kind reads are drawn, since any other is refused.
    """
    experiment = draw(st.sampled_from(EXPERIMENTS))
    size = st.integers(1, 6 if experiment == "dense_ratio" else 60)
    count = st.none() | st.integers(0, 60)
    values = {
        "n": st.none() | size | st.lists(size, min_size=1, max_size=3),
        "core": st.none() | cores(),
        **{name: count for name in ("m", "balls", "t", "q")},
    }
    fields = {"experiment": experiment}
    for name in harness._KINDS[experiment].reads:
        if name in values:
            fields[name] = draw(values[name])
    fields.update(_common_fields(draw, experiment, 20))
    return fields


class TestConfig:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"experiment": "bins_concentration", "nope": 1})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="coin_flips", n=10)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bins_concentration", n=10, eps=0.0)

    def test_round_trips_through_dict(self):
        cfg = ExperimentConfig(
            experiment="complexpart_maxdegree",
            q=50,
            core=((1, 2), (1, 3), (2, 3)),
            trials=3,
            seed=7,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("n", 1e3, "n must be an integer, got 1000.0"),
            ("n", [100, 2.5], "n must be an integer, got 2.5"),
            ("n", [], "n must be an integer or a non-empty grid"),
            ("n", True, "n must be an integer, got True"),
            ("n", 0, "n must be a positive integer, got 0"),
            ("trials", 2.5, "trials must be an integer, got 2.5"),
            ("trials", 0, "trials must be a positive integer, got 0"),
            ("m", -5, "m must be a non-negative integer, got -5"),
            ("m", 50.0, "m must be an integer, got 50.0"),
            ("balls", -1, "balls must be a non-negative integer, got -1"),
            ("balls", "100", "balls must be an integer, got '100'"),
            ("t", -2, "t must be a non-negative integer, got -2"),
            ("t", False, "t must be an integer, got False"),
            ("q", -100, "q must be a non-negative integer, got -100"),
            ("max_attempts", 1e4, "max_attempts must be an integer, got 10000.0"),
            ("max_attempts", 0, "max_attempts must be a positive integer, got 0"),
            ("min_hit_rate", 1.5, "min_hit_rate must lie in \\[0, 1\\], got 1.5"),
            ("min_hit_rate", -0.1, "min_hit_rate must lie in \\[0, 1\\], got -0.1"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", "7", "seed must be an integer, got '7'"),
            ("seed", True, "seed must be an integer, got True"),
            ("eps", "0.3", "eps must be a positive finite number, got '0.3'"),
            ("eps", float("nan"), "eps must be a positive finite number, got nan"),
            ("eps", float("inf"), "eps must be a positive finite number, got inf"),
            ("eps", True, "eps must be a positive finite number, got True"),
            ("eps", 0, "eps must be a positive finite number, got 0"),
            ("eps", -0.5, "eps must be a positive finite number, got -0.5"),
            ("planar_only", "no", "planar_only must be true or false, got 'no'"),
            ("planar_only", 1, "planar_only must be true or false, got 1"),
            ("core", 5, "core must be a list of \\[u, v\\] edges, got 5"),
            (
                "core",
                [[1, 2, 3]],
                "core edges must be \\[u, v\\] integer pairs, got \\[1, 2, 3\\]",
            ),
            (
                "core",
                [[1, 1], [1, 2]],
                "core \\[\\[1, 1\\], \\[1, 2\\]\\] is not a valid core: "
                "loop at vertex 1",
            ),
            (
                "core",
                [[1, 2], [2, 3]],
                "core .* is not a valid core: every core vertex must have degree",
            ),
            (
                "core",
                [[1, 2], [2, 4], [1, 4]],
                "core .* is not a valid core: the core must occupy the vertex set",
            ),
            ("core", [], "core \\[\\] is not a valid core: .*at least one vertex"),
            (
                "q",
                {
                    "experiment": "complexpart_maxdegree",
                    "n": None,
                    "q": 3,
                    "core": TRIANGLE,
                },
                "q must be at least v\\(core\\) \\+ 1 = 4, got 3",
            ),
            # Bounds that depend on the experiment kind; a dict value holds
            # the fields that make the case, field names the one at fault.
            ("n", None, "n must be given for bins_concentration, got None"),
            ("balls", 0, "balls must be positive for bins_concentration, got 0"),
            (
                "n",
                {"experiment": "dense_ratio", "n": 8},
                "n must lie in \\[1, 7\\] for dense_ratio, got 8",
            ),
            (
                "n",
                {"experiment": "dense_ratio", "n": [5, 6]},
                "n must be a single integer for dense_ratio, got \\[5, 6\\]",
            ),
            (
                "m",
                {"experiment": "gnm_maxdegree", "n": 10, "m": 46},
                "m must lie in \\[1, 45\\] for gnm_maxdegree with n = 10, got 46",
            ),
            (
                "m",
                {"experiment": "gnm_maxdegree", "n": [100, 1]},
                "m must lie in \\[1, 0\\] for gnm_maxdegree with n = 1, "
                "got 0 \\(its default\\)",
            ),
            (
                "m",
                {"experiment": "noncomplex_maxdegree", "n": 10, "m": 10},
                "m must lie in \\[1, 9\\] for noncomplex_maxdegree with n = 10, "
                "got 10",
            ),
            (
                "m",
                {"experiment": "noncomplex_maxdegree", "n": 1},
                "m must lie in \\[1, 0\\] for noncomplex_maxdegree with n = 1, "
                "got 0 \\(its default\\)",
            ),
            (
                "m",
                {"experiment": "decomposition_stats", "n": 4, "m": 7},
                "m must lie in \\[0, 6\\] for decomposition_stats with n = 4, got 7",
            ),
            (
                "t",
                {"experiment": "forest_maxdegree", "n": 10, "t": 10},
                "t must lie in \\[1, 9\\] for forest_maxdegree with n = 10, got 10",
            ),
            (
                "t",
                {"experiment": "root_gap", "n": 2},
                "t must lie in \\[1, 1\\] for root_gap with n = 2, "
                "got 2 \\(its default\\)",
            ),
            (
                "t",
                {"experiment": "root_gap", "n": 3},
                "t must lie in \\[1, 2\\] for root_gap with n = 3, "
                "got 3 \\(its default\\)",
            ),
            (
                "q",
                {"experiment": "complexpart_maxdegree", "n": None, "core": TRIANGLE},
                "q must be given for complexpart_maxdegree, got None",
            ),
            (
                "core",
                {
                    "experiment": "complexpart_maxdegree",
                    "n": None,
                    "q": 50,
                    "core": None,
                },
                "core must be given for complexpart_maxdegree, got None",
            ),
            (
                "core",
                {
                    "experiment": "complexpart_maxdegree",
                    "n": None,
                    "q": 20,
                    "core": [[1, 2], [2, 3], [1, 3], [3, 1]],
                },
                "core .* is not a valid core: edge \\(1, 3\\) appears more than once",
            ),
            # A field the kind does not read, one case per kind.
            (
                "m",
                {"experiment": "bins_concentration", "m": 10},
                "m must be left out for bins_concentration, which reads n, balls, "
                "eps, got 10",
            ),
            (
                "balls",
                {
                    "experiment": "gnm_maxdegree",
                    "core": TRIANGLE,
                    "q": 5,
                    "t": 3,
                    "balls": 7,
                },
                "balls must be left out for gnm_maxdegree, which reads n, m, "
                "eps, max_attempts, got 7",
            ),
            (
                "t",
                {"experiment": "noncomplex_maxdegree", "t": 2},
                "t must be left out for noncomplex_maxdegree, which reads n, m, "
                "max_attempts, got 2",
            ),
            (
                "balls",
                {"experiment": "forest_maxdegree", "balls": 5},
                "balls must be left out for forest_maxdegree, which reads n, t, "
                "eps, got 5",
            ),
            (
                "n",
                {"experiment": "complexpart_maxdegree", "n": [10, 20], "q": 50},
                "n must be left out for complexpart_maxdegree, which reads q, core, "
                "eps, got \\[10, 20\\]",
            ),
            (
                "m",
                {"experiment": "root_gap", "m": 10},
                "m must be left out for root_gap, which reads n, t, got 10",
            ),
            (
                "core",
                {"experiment": "decomposition_stats", "core": TRIANGLE},
                "core must be left out for decomposition_stats, which reads n, m, "
                "max_attempts, got \\[\\[1, 2\\], \\[1, 3\\], \\[2, 3\\]\\]",
            ),
            (
                "q",
                {"experiment": "dense_ratio", "n": 5, "q": 50},
                "q must be left out for dense_ratio, which reads n, planar_only, "
                "got 50",
            ),
            # A field with a default, set off it on a kind that never reads it.
            (
                "max_attempts",
                {"experiment": "bins_concentration", "max_attempts": 5},
                "max_attempts must be left out for bins_concentration, which "
                "reads n, balls, eps, got 5",
            ),
            (
                "planar_only",
                {"experiment": "gnm_maxdegree", "planar_only": False},
                "planar_only must be left out for gnm_maxdegree, which reads n, "
                "m, eps, max_attempts, got False",
            ),
            (
                "eps",
                {"experiment": "root_gap", "eps": 5.0},
                "eps must be left out for root_gap, which reads n, t, got 5.0",
            ),
            (
                "eps",
                {"experiment": "decomposition_stats", "eps": 5.0},
                "eps must be left out for decomposition_stats, which reads n, m, "
                "max_attempts, got 5.0",
            ),
            (
                "eps",
                {"experiment": "dense_ratio", "n": 5, "eps": 5.0},
                "eps must be left out for dense_ratio, which reads n, "
                "planar_only, got 5.0",
            ),
            (
                # Its window is {delta*, delta* + 1}, whatever eps.
                "eps",
                {"experiment": "noncomplex_maxdegree", "m": 50, "eps": 5.0},
                "eps must be left out for noncomplex_maxdegree, which reads n, m, "
                "max_attempts, got 5.0",
            ),
            (
                "max_attempts",
                {"experiment": "dense_ratio", "n": 5, "max_attempts": 1},
                "max_attempts must be left out for dense_ratio, which reads n, "
                "planar_only, got 1",
            ),
            ("n", [50, 50], "n must not repeat a grid size, got \\[50, 50\\]"),
            (
                "n",
                [10, 20, 10],
                "n must not repeat a grid size, got \\[10, 20, 10\\]",
            ),
        ],
    )
    def test_bad_values_rejected_with_field_and_value(self, field, value, message):
        # Values are checked before the fields a kind reads, so a bad value
        # of any field is named as such on the bins kind.
        data = {"experiment": "bins_concentration", "n": 100}
        data.update(value if isinstance(value, dict) else {field: value})
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "core, message",
        [
            # Core vertex 4 has core degree one.
            ([[1, 2], [2, 3], [1, 3], [3, 4]], "degree at least two"),
            # An edge leaves [1, v]: the triangle sits on 1, 2, 4.
            ([[1, 2], [2, 4], [1, 4]], "must occupy the vertex set"),
            ([[1, 2], [2, 0], [1, 0]], "labels must be positive"),
            ([[1, 2], [2, -1], [1, -1]], "labels must be positive"),
            ([[1, 2], [2, 7], [1, 7]], "must occupy the vertex set"),
        ],
        ids=[
            "core-degree-one",
            "core-edge-leaving-the-core",
            "core-endpoint-0",
            "core-endpoint--1",
            "core-endpoint-7",
        ],
    )
    def test_complexpart_plan_refuses_what_the_trial_no_longer_checks(
        self, core, message
    ):
        # The complex-part trial checks only the decoded forest; the core's
        # half is validate_core's, run by the plan before any trial.
        fields = dict(experiment="complexpart_maxdegree", q=10, core=core, eps=0.25)
        with pytest.raises(ValueError, match=message):
            harness._plan_complexpart(SimpleNamespace(**fields), None)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(fields)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_defaults_of_unread_fields_are_accepted(self, experiment):
        # to_dict writes eps, max_attempts and planar_only for every kind, so
        # a config that spells out their defaults must load wherever it goes.
        if experiment == "complexpart_maxdegree":
            base = ExperimentConfig(experiment=experiment, q=10, core=TRIANGLE)
        else:
            base = ExperimentConfig(experiment=experiment, n=5)
        data = base.to_dict()
        assert (data["eps"], data["max_attempts"], data["planar_only"]) == (
            0.25,
            10_000,
            True,
        )
        assert ExperimentConfig.from_dict(data) == base

    @pytest.mark.parametrize(
        "fields",
        [
            dict(experiment="bins_concentration", n=50),
            dict(experiment="gnm_maxdegree", n=50),
            dict(experiment="forest_maxdegree", n=50),
            dict(experiment="complexpart_maxdegree", q=50, core=TRIANGLE),
        ],
    )
    def test_kinds_with_a_window_take_eps(self, fields):
        cfg = ExperimentConfig(eps=5.0, **fields)
        assert cfg.to_dict()["eps"] == 5.0
        (plan,) = cfg.plans
        assert plan["hi"] - plan["lo"] == 10

    def test_core_is_validated_once_per_config(self, monkeypatch):
        calls = []
        validate_core = harness.validate_core

        def counted(core):
            calls.append(core)
            return validate_core(core)

        monkeypatch.setattr(harness, "validate_core", counted)
        cfg = ExperimentConfig(experiment="complexpart_maxdegree", q=10, core=TRIANGLE)
        assert len(calls) == 1
        run_experiment(cfg, jobs=1)
        assert len(calls) == 1
        # The plans are kept outside the fields: dict, repr and hash ignore them.
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert "plans" not in cfg.to_dict() and "plans" not in repr(cfg)
        assert again == cfg and hash(again) == hash(cfg)
        assert len(calls) == 2
        with pytest.raises(ValueError, match="core must be left out"):
            ExperimentConfig(experiment="root_gap", n=10, core=TRIANGLE)
        assert len(calls) == 3

    @given(fields=valid_fields(largest=10**9))
    def test_valid_configs_round_trip_through_dict(self, fields):
        cfg = ExperimentConfig(**fields)
        data = cfg.to_dict()
        assert data["n"] == fields.get("n") and data["trials"] == fields["trials"]
        assert ExperimentConfig.from_dict(data) == cfg

    @settings(deadline=None)
    @given(fields=small_fields())
    def test_accepted_small_configs_run(self, fields):
        try:
            cfg = ExperimentConfig(**fields)
        except ValueError:
            return
        result = run_experiment(cfg, jobs=1)
        assert result.summary["trials"] == len(result.records)
        if cfg.experiment != "dense_ratio":
            assert len(result.records) == len(cfg.n_grid)

    @given(
        bad=st.one_of(
            st.tuples(
                st.sampled_from(["n", "trials", "max_attempts"]),
                st.integers(max_value=0),
            ),
            st.tuples(
                st.sampled_from(["m", "balls", "t", "q"]),
                st.integers(max_value=-1),
            ),
            st.tuples(
                st.just("min_hit_rate"),
                st.floats(max_value=0.0, exclude_max=True)
                | st.floats(min_value=1.0, exclude_min=True),
            ),
            st.tuples(
                st.just("eps"),
                st.floats(max_value=0.0)
                | st.just(float("inf"))
                | st.just(float("nan"))
                | st.text()
                | st.booleans(),
            ),
            st.tuples(st.just("seed"), st.floats() | st.text() | st.booleans()),
            st.tuples(
                st.just("planar_only"),
                st.integers() | st.floats() | st.text() | st.none(),
            ),
        )
    )
    def test_out_of_range_values_rejected(self, bad):
        field, value = bad
        data = {"experiment": "gnm_maxdegree", "n": 100, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(
                experiment="gnm_maxdegree", n=(50, 60), trials=2, seed=-4, m=10,
                max_attempts=5,
            ),
            dict(experiment="bins_concentration", n=50, balls=40),
            dict(experiment="forest_maxdegree", n=50, t=3),
            dict(experiment="complexpart_maxdegree", q=50, core=TRIANGLE),
        ],
        ids=["gnm", "bins", "forest", "complexpart"],
    )
    def test_every_integer_field_is_stored_as_a_python_int(self, fields):
        integers = fields.keys() - {"experiment", "core"}
        as_numpy = {
            name: tuple(map(np.int32, v)) if isinstance(v, tuple) else np.int32(v)
            for name, v in fields.items()
            if name in integers
        }
        cfg = ExperimentConfig(**{**fields, **as_numpy})
        assert cfg == ExperimentConfig(**fields)
        for name in integers:
            value = getattr(cfg, name)
            grid = value if isinstance(value, tuple) else (value,)
            assert all(type(v) is int for v in grid)


class TestRunExperiment:
    @pytest.mark.parametrize("name", ["n", "trials", "seed", "m"])
    def test_numpy_integer_fields_run_as_python_ints(self, name, tmp_path):
        # A NumPy trials or seed overflowed in the seed derivation; a NumPy
        # n or m reached the summary, which json.dumps refused.
        fields = dict(experiment="gnm_maxdegree", n=100, trials=2, seed=3, m=30)
        plain = run_experiment(ExperimentConfig(**fields))
        cfg = ExperimentConfig(**{**fields, name: np.int64(fields[name])})
        assert type(getattr(cfg, name)) is int
        result = run_experiment(cfg)
        assert result.records == plain.records
        assert json.dumps(result.summary) == json.dumps(plain.summary)
        emit(result.records, "json", str(tmp_path / "out.json"), result.summary)

    @pytest.mark.parametrize("scalar", [np.float32, np.float64])
    @pytest.mark.parametrize("name, value", [("eps", 0.25), ("min_hit_rate", 0.5)])
    def test_numpy_float_fields_run_as_python_floats(self, name, value, scalar):
        # A float32 eps or min_hit_rate reached the summary, which json.dumps
        # refused, and the window arithmetic c - eps ran in float32.
        fields = dict(experiment="gnm_maxdegree", n=100, trials=2, **{name: value})
        plain = run_experiment(ExperimentConfig(**fields))
        cfg = ExperimentConfig(**{**fields, name: scalar(value)})
        assert type(getattr(cfg, name)) is float
        result = run_experiment(cfg)
        assert result.records == plain.records
        assert json.dumps(result.summary) == json.dumps(plain.summary)

    def test_bins_records_and_summary(self):
        cfg = ExperimentConfig(
            experiment="bins_concentration", n=100, trials=8, seed=5, eps=2.0
        )
        result = run_experiment(cfg)
        assert len(result.records) == 8
        assert [r.trial_index for r in result.records] == list(range(8))
        rate = sum(r.in_interval for r in result.records) / 8
        assert result.summary["hit_rate"] == rate
        assert result.summary["trials"] == 8

    def test_same_seed_same_records(self):
        cfg = ExperimentConfig(
            experiment="gnm_maxdegree", n=60, m=30, trials=6, seed=11
        )
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.records == second.records
        assert first.summary == second.summary

    def test_parallel_matches_serial(self, eager_workers):
        cfg = ExperimentConfig(
            experiment="noncomplex_maxdegree", n=60, m=30, trials=6, seed=13
        )
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert serial.records == parallel.records
        assert serial.summary == parallel.summary

    @pytest.mark.parametrize(
        "kwargs,window",
        [
            # [floor(c - eps), floor(c + eps)] with c = c(n, balls):
            # c(1000, 600) = 5.224 and c(100, 100) = 5.431.
            (dict(experiment="bins_concentration", n=1000, balls=600, eps=0.5), (4, 5)),
            (dict(experiment="bins_concentration", n=100, eps=0.6), (4, 6)),
            # {delta*, delta* + 1} with delta* = floor(c(n, 2m) - 1/3), and
            # no eps: c(1000, 1000) = 6.656 and c(100, 100) = 5.431.
            (dict(experiment="noncomplex_maxdegree", n=1000, m=500), (6, 7)),
            (dict(experiment="noncomplex_maxdegree", n=100, m=50), (5, 6)),
            # [floor(c - eps) + 1, floor(c + eps) + 1] with c = c(q, q).
            (dict(experiment="complexpart_maxdegree", q=100, eps=0.6), (5, 7)),
            (dict(experiment="complexpart_maxdegree", q=1000, eps=0.25), (7, 7)),
        ],
    )
    def test_windows_follow_the_concentration_point(self, kwargs, window):
        if kwargs["experiment"] == "complexpart_maxdegree":
            kwargs = dict(kwargs, core=((1, 2), (1, 3), (2, 3)))
        result = run_experiment(ExperimentConfig(trials=2, seed=4, **kwargs))
        assert {(r.lo, r.hi) for r in result.records} == {window}

    def test_forest_and_root_gap(self):
        cfg = ExperimentConfig(
            experiment="forest_maxdegree", n=200, t=3, trials=5, seed=2
        )
        result = run_experiment(cfg)
        assert all(r.observed >= 1 for r in result.records)
        gap_cfg = ExperimentConfig(
            experiment="root_gap", n=(100, 900), trials=11, seed=3
        )
        gaps = run_experiment(gap_cfg)
        assert len(gaps.records) == 22
        assert all(r.in_interval for r in gaps.records)
        assert set(gaps.summary["by_n"]) == {"100", "900"}
        assert "medians_strictly_increasing" in gaps.summary

    def test_complexpart_checks_core_recovery(self):
        cfg = ExperimentConfig(
            experiment="complexpart_maxdegree",
            q=40,
            core=((1, 2), (1, 3), (2, 3)),
            trials=4,
            seed=9,
        )
        result = run_experiment(cfg)
        assert all(r.auxiliary["core_recovered"] for r in result.records)

    def test_decomposition_stats_summary(self):
        cfg = ExperimentConfig(
            experiment="decomposition_stats", n=300, m=150, trials=6, seed=21
        )
        result = run_experiment(cfg)
        stats = result.summary["decomposition"]
        assert set(stats) >= {"core_vertices", "u_vertices", "u_edge_excess"}
        for record in result.records:
            total = (
                record.auxiliary["qL_vertices"]
                + record.auxiliary["qS_vertices"]
                + record.auxiliary["u_vertices"]
            )
            assert total == 300

    def test_decomposition_stats_sparse_regime(self):
        # Well below half density most samples are forests or close to it:
        # the core is empty in most trials and the non-complex part holds
        # nearly everything.
        cfg = ExperimentConfig(
            experiment="decomposition_stats", n=2000, m=700, trials=20, seed=22
        )
        result = run_experiment(cfg)
        empty_cores = sum(
            1 for r in result.records if r.auxiliary["core_vertices"] == 0
        )
        assert empty_cores > 10
        assert result.summary["decomposition"]["u_vertices"]["median"] >= 1990

    def test_dense_ratio_records(self):
        cfg = ExperimentConfig(experiment="dense_ratio", n=6)
        result = run_experiment(cfg)
        assert result.summary["violations"] == 0

    def test_sampler_failures_are_recorded_not_fatal(self):
        cfg = ExperimentConfig(
            experiment="noncomplex_maxdegree",
            n=40,
            m=39,
            trials=6,
            seed=1,
            max_attempts=1,
        )
        result = run_experiment(cfg)
        assert len(result.records) == 6
        failed = [r for r in result.records if r.observed is None]
        assert failed, "expected at least one rejection-budget failure"
        assert all(not r.in_interval for r in failed)
        assert all(r.auxiliary["error"] == "rejection_limit" for r in failed)
        assert result.summary["failures"] == len(failed)

    def test_thresholds_drive_summary_flag(self):
        cfg = ExperimentConfig(
            experiment="bins_concentration",
            n=50,
            trials=4,
            seed=8,
            eps=3.0,
            min_hit_rate=0.1,
        )
        result = run_experiment(cfg)
        assert result.summary["thresholds_met"] is True
        strict = ExperimentConfig(
            experiment="bins_concentration",
            n=50,
            trials=4,
            seed=8,
            eps=0.01,
            min_hit_rate=1.0,
        )
        strict_summary = run_experiment(strict).summary
        assert strict_summary["hit_rate"] < 1.0
        assert strict_summary["thresholds_met"] is False

    def test_never_more_workers_than_trials(self, monkeypatch, eager_workers):
        started = []

        class CountedProcess(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        # This process runs a share too, so a campaign on w workers starts w - 1.
        monkeypatch.setattr(harness, "Process", CountedProcess)
        cfg = ExperimentConfig(experiment="bins_concentration", n=50, trials=3, seed=1)
        assert run_experiment(cfg, jobs=8) == run_experiment(cfg, jobs=1)
        assert len(started) == 2
        five = ExperimentConfig(experiment="bins_concentration", n=50, trials=5, seed=1)
        assert run_experiment(five, jobs=2) == run_experiment(five, jobs=1)
        assert len(started) == 3

    def test_one_trial_builds_no_pool_at_any_jobs(self, monkeypatch, eager_workers):
        monkeypatch.setattr(harness, "Process", _refuse_worker)
        one = ExperimentConfig(experiment="bins_concentration", n=50, seed=1)
        assert run_experiment(one, jobs=4) == run_experiment(one, jobs=1)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("DEGREELAB_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("DEGREELAB_JOBS", "3")
        assert default_jobs() == 3

    def test_non_integer_jobs_env_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("DEGREELAB_JOBS", "two")
        with pytest.raises(ValueError, match="DEGREELAB_JOBS.*'two'"):
            default_jobs()

    @pytest.mark.parametrize(
        "jobs,message",
        [
            (2.0, "jobs must be an integer, got 2.0"),
            ("2", "jobs must be an integer, got '2'"),
            (True, "jobs must be an integer, got True"),
            (0, "jobs must be a positive integer, got 0"),
        ],
    )
    def test_bad_jobs_names_jobs_and_value(self, jobs, message):
        cfg = ExperimentConfig(experiment="bins_concentration", n=50, trials=2, seed=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(cfg, jobs=jobs)


def _refuse_worker(*args, **kwargs):
    raise AssertionError("a worker process was started")


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _raise_in_worker(cfg, plan, rng, aux):
    if _in_worker():
        raise ValueError("trial failed in a worker")
    return harness._bins_trial(cfg, plan, rng, aux)


def _killed_in_worker(cfg, plan, rng, aux):
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return harness._bins_trial(cfg, plan, rng, aux)


def _raise_here_while_workers_sleep(cfg, plan, rng, aux):
    if _in_worker():
        time.sleep(60)
    raise ValueError("trial failed in the campaign's own process")


@pytest.mark.usefixtures("eager_workers")
class TestWorkers:
    """Campaigns at ``jobs`` >= 2 share their trials with forked workers."""

    CFG = ExperimentConfig(experiment="bins_concentration", n=200, trials=6, seed=5)

    def with_trial(self, monkeypatch, trial):
        # Workers fork from this process, so they see the patched table.
        kind = harness._KINDS["bins_concentration"]
        patched = replace(kind, trial=trial)
        monkeypatch.setitem(harness._KINDS, "bins_concentration", patched)

    def test_any_jobs_emits_the_serial_bytes_and_leaves_no_worker(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="bins_concentration", n=[50, 100], trials=4, seed=9
        )

        def emitted(jobs: int) -> bytes:
            result = run_experiment(cfg, jobs=jobs)
            assert multiprocessing.active_children() == []
            blobs = []
            for fmt in ("csv", "json"):
                path = tmp_path / f"{jobs}.{fmt}"
                emit(result.records, fmt, str(path), summary=result.summary)
                blobs.append(path.read_bytes())
            return b"\n".join(blobs)

        serial = emitted(1)
        for jobs in (2, 3, 2):
            assert emitted(jobs) == serial

    def test_worker_error_propagates_and_the_next_campaign_runs(self, monkeypatch):
        serial = run_experiment(self.CFG, jobs=1)
        self.with_trial(monkeypatch, _raise_in_worker)
        with pytest.raises(ValueError, match="failed in a worker") as caught:
            run_experiment(self.CFG, jobs=2)
        assert "_raise_in_worker" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert run_experiment(self.CFG, jobs=2) == serial

    def test_killed_worker_fails_the_campaign_and_the_next_one_runs(self, monkeypatch):
        serial = run_experiment(self.CFG, jobs=1)
        self.with_trial(monkeypatch, _killed_in_worker)
        killed = f"exited with code -{int(signal.SIGKILL)}"
        with pytest.raises(RuntimeError, match=killed):
            run_experiment(self.CFG, jobs=3)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert run_experiment(self.CFG, jobs=3) == serial

    def test_error_here_kills_the_workers(self, monkeypatch):
        self.with_trial(monkeypatch, _raise_here_while_workers_sleep)
        start = time.monotonic()
        with pytest.raises(ValueError, match="own process"):
            run_experiment(self.CFG, jobs=2)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []


class TestWorkerStart:
    """Workers start only once the trials left outlast starting them."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_cheap_trials_start_no_worker(self, monkeypatch, jobs):
        cfg = ExperimentConfig(experiment="bins_concentration", n=50, trials=16, seed=1)
        serial = run_experiment(cfg, jobs=1)
        # A clock that reads 50 us per trial, as these trials take when the
        # host does not stall them: 15 such trials never pay for a worker.
        clock = SimpleNamespace(perf_counter=count(0, 50e-6).__next__)
        monkeypatch.setattr(harness, "time", clock)
        monkeypatch.setattr(harness, "Process", _refuse_worker)
        assert run_experiment(cfg, jobs=jobs) == serial

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_slow_trials_start_workers_after_the_first(
        self, monkeypatch, tmp_path, jobs
    ):
        cfg = ExperimentConfig(
            experiment="bins_concentration", n=[50, 100], trials=4, seed=3
        )
        serial = run_experiment(cfg, jobs=1)
        # Events in this process only: workers append to their own copies.
        events: list[str] = []

        def slow_trial(cfg, plan, rng, aux):
            events.append("trial")
            time.sleep(0.005)
            return harness._bins_trial(cfg, plan, rng, aux)

        class CountedProcess(multiprocessing.Process):
            def start(self):
                events.append("start")
                super().start()

        monkeypatch.setitem(
            harness._KINDS,
            "bins_concentration",
            replace(harness._KINDS["bins_concentration"], trial=slow_trial),
        )
        monkeypatch.setattr(harness, "Process", CountedProcess)
        result = run_experiment(cfg, jobs=jobs)
        assert multiprocessing.active_children() == []
        # 5 ms trials pay for 2 ms workers from the second trial on.
        assert events[:jobs] == ["trial"] + ["start"] * (jobs - 1)
        assert events.count("start") == jobs - 1
        blobs = []
        for fmt in ("csv", "json"):
            for tag, res in (("serial", serial), ("forked", result)):
                path = tmp_path / f"{tag}.{fmt}"
                emit(res.records, fmt, str(path), summary=res.summary)
                blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] and blobs[2] == blobs[3]


class TestEmit:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", str(path))
        assert path.read_text() == "trial,observed,lo,hi,in_interval,aux_json\n"

    def test_three_records_four_lines(self, tmp_path):
        records = [
            TrialRecord(i, i + 5, 4, 9, True, {"w": i}) for i in range(3)
        ]
        path = tmp_path / "r.csv"
        emit(records, "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == '0,5,4,9,true,"{""w"":0}"'

    def test_none_cells_are_empty(self, tmp_path):
        records = [TrialRecord(0, None, None, None, False, {})]
        path = tmp_path / "n.csv"
        emit(records, "csv", str(path))
        assert path.read_text().splitlines()[1] == "0,,,,false,{}"

    def test_json_round_trip(self, tmp_path):
        records = [
            TrialRecord(0, 7, 6, 8, True, {"attempts": 2}),
            TrialRecord(1, None, 6, 8, False, {"error": "rejection_limit"}),
        ]
        path = tmp_path / "r.json"
        emit(records, "json", str(path), summary={"hit_rate": 0.5})
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        loaded = [
            TrialRecord(
                r["trial"], r["observed"], r["lo"], r["hi"], r["in_interval"], r["auxiliary"]
            )
            for r in payload["records"]
        ]
        assert loaded == records
        assert payload["summary"] == {"hit_rate": 0.5}

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "xml", str(tmp_path / "x"))

    def test_byte_identical_across_runs_and_jobs(self, tmp_path, eager_workers):
        cfg = ExperimentConfig(
            experiment="bins_concentration", n=40, trials=5, seed=77, eps=1.0
        )
        paths = []
        for tag, jobs in (("a", 1), ("b", 2), ("c", 1)):
            result = run_experiment(cfg, jobs=jobs)
            path = tmp_path / f"{tag}.csv"
            emit(result.records, "csv", str(path), summary=result.summary)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]



#: SHA-256 of the CSV emitted by small graph-structure campaigns, recorded
#: with the dict-based graph code and the heap decoder that the array
#: kernels replaced.  A change in any record, or a numpy scalar leaking into
#: ``auxiliary`` (which json cannot encode), changes or breaks the bytes.
PINNED_CSV = {
    "complexpart_maxdegree": (
        ExperimentConfig(
            experiment="complexpart_maxdegree",
            q=2000,
            core=TRIANGLE,
            trials=8,
            seed=20261018,
        ),
        "a7e18a3d4001c33021f5ca70161b9d9c94ed0d2b3f9e636a5eaef6fc9ff64fa1",
    ),
    "decomposition_stats": (
        ExperimentConfig(
            experiment="decomposition_stats", n=2000, m=1200, trials=8, seed=20261018
        ),
        "4df9c7eaa1337eb856dab42b5237db48be00bad7ba77fc7060ed0c1f3dc4a815",
    ),
}


#: SHA-256 of the CSV emitted by small rejection-sampler campaigns (m = n/2),
#: recorded with the hash-based ``np.unique`` simplicity check that the
#: sort-based one replaced.  Trials that needed several attempts pin the
#: rejection decisions as well as the accepted graphs.
PINNED_SAMPLING_CSV = {
    kind: (
        ExperimentConfig(experiment=kind, n=2000, trials=8, seed=20261018),
        digest,
    )
    for kind, digest in (
        (
            "gnm_maxdegree",
            "e56b9d827b6bcb77db7205b3ebee32315c21751fbe258d25e686ac7eb339fecd",
        ),
        (
            "noncomplex_maxdegree",
            "65ca78bfd639489f065274dd1d6612af34539cbca0990867f7aaabd8a60d109f",
        ),
    )
}


def _csv_digest(cfg: ExperimentConfig, jobs: int, tmp_path) -> str:
    result = run_experiment(cfg, jobs=jobs)
    path = tmp_path / f"{cfg.experiment}.csv"
    emit(result.records, "csv", str(path), summary=result.summary)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", sorted(PINNED_CSV))
def test_structure_campaign_csv_bytes_are_pinned(kind, jobs, tmp_path, eager_workers):
    cfg, digest = PINNED_CSV[kind]
    assert _csv_digest(cfg, jobs, tmp_path) == digest


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", sorted(PINNED_SAMPLING_CSV))
def test_sampling_campaign_csv_bytes_are_pinned(kind, jobs, tmp_path, eager_workers):
    cfg, digest = PINNED_SAMPLING_CSV[kind]
    assert _csv_digest(cfg, jobs, tmp_path) == digest


#: SHA-256 of the JSON emission (records and summary) of campaigns whose
#: summaries take the kind-specific paths: ``by_n`` and
#: ``medians_strictly_increasing`` on an n grid, recorded rejection-limit
#: failures, the ``decomposition`` block, ``violations``/``vacuous`` of the
#: ratio sweep and ``thresholds_met``.  Recorded before the experiment kinds
#: were folded into one table.
PINNED_JSON = {
    name: (ExperimentConfig(seed=20261018, **fields), digest)
    for name, fields, digest in (
        (
            "bins_concentration_grid",
            dict(experiment="bins_concentration", n=(50, 500, 5000), trials=6),
            "6e4aa49cbd2cd35b42c504aa93f160c376a907dbf21c920b2b13e64379f13f35",
        ),
        (
            "noncomplex_grid_failures",
            dict(
                experiment="noncomplex_maxdegree", n=(40, 80), trials=6, max_attempts=2
            ),
            "781fb4a11f566fd1bcddd22f8fb566a8d244e985b54589d1829067b07ee0cfd1",
        ),
        (
            "forest_maxdegree",
            dict(experiment="forest_maxdegree", n=2000, t=3, trials=8),
            "96dd8d763385946a4f06d8e79fcebdca28f727d82c59ce95747a0954a36689ab",
        ),
        (
            "root_gap",
            dict(experiment="root_gap", n=2000, trials=8),
            "eedf1d03259f4e5c8ab152b5ecf6fc2d8e8e4009a4923f4e932d6a65f269918a",
        ),
        (
            "dense_ratio_6",
            dict(experiment="dense_ratio", n=6),
            "da451e23fc719850c1db163194b39330f89fca210a513b7fa90f6379a4d5cd00",
        ),
        (
            "dense_ratio_7_all",
            dict(experiment="dense_ratio", n=7, planar_only=False),
            "af150dc8587a6918c64e9e45a29dd535a1b2675b78a03fe120700a3e8dbc0fcd",
        ),
        (
            "decomposition_stats",
            dict(experiment="decomposition_stats", n=2000, m=1200, trials=8),
            "02cc22adb921eed464ff29b918a8d172691ec9f8bfe5bfbb2aa50d7a5da209ab",
        ),
        (
            "complexpart_min_hit_rate",
            dict(
                experiment="complexpart_maxdegree",
                q=2000,
                core=TRIANGLE,
                trials=8,
                min_hit_rate=0.5,
            ),
            "4776018973615535908bacae47812aa009579f37595dde26745882ae174e66fb",
        ),
    )
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_campaign_json_bytes_are_pinned(name, jobs, tmp_path, eager_workers):
    cfg, digest = PINNED_JSON[name]
    result = run_experiment(cfg, jobs=jobs)
    path = tmp_path / f"{name}.json"
    emit(result.records, "json", str(path), summary=result.summary)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
