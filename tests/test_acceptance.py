"""Acceptance suite: one test (or labelled sub-test) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.

The paper's concentration result is asymptotic: the maximum degree lies in
the predicted window with probability tending to 1, and no finite-size hit
rate follows from it.  The Monte Carlo gates (criteria 5, 6 and 7) therefore
compare each campaign with the exact law of its statistic at the campaign's
own size, taken from ``oracles``: an exact binomial test of the hit count
against the window's probability and a chi-square test of the histogram
against the whole law.  Criterion 10i checks the convergence that can be
seen at feasible sizes rather than the limit itself.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats

from degreelab.concentration import (
    balanced_concentration,
    concentration_point,
    load_exponent,
)
from degreelab.dense_ops import classify_all_graphs, sweep_ratio_bounds
from degreelab.graphs import SimpleGraph, _peel
from degreelab.harness import ExperimentConfig, run_experiment
from degreelab.pruefer import count_forests, decode, encode
from degreelab.rng import derive_rng
from degreelab.samplers import (
    RejectionLimitError,
    complex_part_arrays,
    sample_gnm_arrays,
)

from oracles import (
    ReplayRng,
    all_forests,
    complex_part_max_degree_cdf,
    forest_degree_law,
    loads_plus_roots_law,
    max_load_cdf,
)

TRIANGLE_EDGES = ((1, 2), (1, 3), (2, 3))


def announce(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {label}: {status}" + (f" — {detail}" if detail else ""))


#: Significance level of the statistical gates: a campaign fails when its hit
#: count or its histogram is this unlikely under the exact law.
GATE_PVALUE = 1e-3


def _pooled_cells(cdf, values, min_expected: float = 5.0):
    """Histogram cells for a chi-square test against the law with cdf ``cdf``.

    Consecutive values are merged from the bottom up until each cell's
    expected count reaches ``min_expected``; the first cell takes the lower
    tail and the last the upper tail, merged into its neighbour when short.
    Returns (label, expected, observed) per cell.
    """
    trials = len(values)
    counts = Counter(values)
    cells = []
    first, expected, observed, below = 0, 0.0, 0, 0.0
    for y in range(max(values) + 1):
        mass = cdf(y)
        expected += trials * (mass - below)
        observed += counts[y]
        below = mass
        if expected >= min_expected:
            cells.append([first, y, expected, observed])
            first, expected, observed = y + 1, 0.0, 0
    expected += trials * (1.0 - below)
    if cells and expected < min_expected:
        cells[-1][2] += expected
        cells[-1][3] += observed
        cells[-1][1] = None
    else:
        cells.append([first, None, expected, observed])
    labels = []
    for lo, hi, _, _ in cells:
        if hi is None:
            labels.append(f">={lo}")
        elif lo == 0:
            labels.append(f"<={hi}")
        else:
            labels.append(str(lo) if lo == hi else f"{lo}-{hi}")
    return [(label, e, o) for label, (_, _, e, o) in zip(labels, cells)]


def check_against_law(label: str, result, cdf) -> None:
    """Gate a campaign on the exact law of its statistic.

    The hit count must pass a two-sided exact binomial test against
    p = P(lo <= value <= hi), with the window taken from the campaign's own
    records, and the histogram must pass a chi-square goodness-of-fit test
    against the law; both fail below GATE_PVALUE.  Together they reject a
    campaign that is too spread out as well as one that is too concentrated.
    """
    values = [r.observed for r in result.records]
    assert None not in values, "every trial must produce a value"
    trials = len(values)
    lo, hi = result.records[0].lo, result.records[0].hi
    p = cdf(hi) - cdf(lo - 1)
    hits = result.summary["hits"]
    z = (hits - trials * p) / math.sqrt(trials * p * (1.0 - p))
    binom = stats.binomtest(hits, trials, p)
    cells = _pooled_cells(cdf, values)
    chi = stats.chisquare([o for _, _, o in cells], [e for _, e, _ in cells])
    expected = ", ".join(f"{name}: {e:.1f}" for name, e, _ in cells)
    observed = ", ".join(f"{name}: {o}" for name, _, o in cells)
    detail = (
        f"window [{lo},{hi}] has exact p = {p:.4f}; observed rate "
        f"{hits / trials:.3f} ({hits}/{trials}), z = {z:+.2f}, binomial "
        f"p-value {binom.pvalue:.3g}; histogram expected {{{expected}}} vs "
        f"observed {{{observed}}}, chi-square p-value {chi.pvalue:.3g}"
    )
    announce(label, min(binom.pvalue, chi.pvalue) >= GATE_PVALUE, detail)
    assert binom.pvalue >= GATE_PVALUE, f"hit count off the exact law: {detail}"
    assert chi.pvalue >= GATE_PVALUE, f"histogram off the exact law: {detail}"


# ---------------------------------------------------------------------------
# 1. Forest codec exactness
# ---------------------------------------------------------------------------


def test_criterion_01_codec_exactness():
    """Worked example plus full round-trip identity on every codeword with
    n <= 7, in under ten seconds."""
    start = time.perf_counter()

    forest = SimpleGraph.from_edges(
        9, [(1, 5), (2, 8), (4, 8), (8, 9), (4, 7), (6, 9)]
    )
    codeword = encode(forest, 3)
    assert codeword == (4, 9, 8, 1, 8, 2)
    assert decode(codeword, 9, 3).edges == forest.edges

    checked = 0
    for n in range(2, 8):
        for t in range(1, n):
            decoded = set()
            for body in product(range(1, n + 1), repeat=n - t - 1):
                for last in range(1, t + 1):
                    entries = body + (last,)
                    forest = decode(entries, n, t)
                    assert encode(forest, t) == entries
                    decoded.add(forest.edges)
                    checked += 1
            # distinct decodes exhaust the counting formula, so the map is a
            # bijection onto the rooted forests
            assert len(decoded) == count_forests(n, t)
    elapsed = time.perf_counter() - start
    announce("1", True, f"{checked} codewords round-tripped in {elapsed:.1f}s")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Forest counting
# ---------------------------------------------------------------------------


def test_criterion_02_forest_counts():
    """Brute-force |F(n, t)| equals t * n^(n-t-1) for all n <= 6, t < n."""
    start = time.perf_counter()
    for n in range(2, 7):
        for t in range(1, n):
            enumerated = len(all_forests(n, t))
            assert enumerated == count_forests(n, t), (n, t)
    assert count_forests(4, 2) == 8
    assert count_forests(5, 2) == 50
    elapsed = time.perf_counter() - start
    announce("2", True, f"all counts match in {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. Forest degree law
# ---------------------------------------------------------------------------


def test_criterion_03_degree_law_exact():
    """The forest degree-sequence law equals loads plus root indicator plus
    the non-root shift, as exact rational probability tables."""
    forest_law = forest_degree_law(4, 2)
    bins_law = loads_plus_roots_law(4, 2)
    assert forest_law == bins_law
    assert sum(forest_law.values()) == Fraction(1)
    announce("3", True, f"{len(forest_law)} degree sequences, tables identical")


# ---------------------------------------------------------------------------
# 4. Pairing-construction uniformity
# ---------------------------------------------------------------------------


def test_criterion_04_gnm_uniformity_exact():
    """``sample_gnm_arrays`` accepts every simple graph on [4] with 3 edges
    from exactly 48 of the 4^6 location vectors."""
    counts: Counter = Counter()
    for entries in product(range(1, 5), repeat=6):
        try:
            us, vs, _, _ = sample_gnm_arrays(4, 3, ReplayRng(entries), max_attempts=1)
        except RejectionLimitError:
            continue
        counts[frozenset(map(frozenset, zip(us.tolist(), vs.tolist())))] += 1
    assert len(counts) == 20
    assert set(counts.values()) == {48}
    announce("4", True, "20 graphs x 48 vectors each (= 2^3 * 3!)")


# ---------------------------------------------------------------------------
# 5. Balls-into-bins concentration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bins_campaign():
    cfg = ExperimentConfig(
        experiment="bins_concentration",
        n=10**5,
        balls=10**5,
        trials=200,
        eps=0.25,
        seed=20260810,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


def test_criterion_05_bins_concentration(bins_campaign):
    """200 trials at n = k = 1e5 with eps = 0.25, within 60 seconds: the
    maximum loads follow the exact max-load law.

    The floor window is [8, 9].  Its exact probability at this size is
    about 0.63 (P(7), P(8), P(9), P(10) = 0.359, 0.535, 0.095, 0.010), so
    the hit count is tested against that probability, not against a fixed
    rate the asymptotic theorem does not give.
    """
    result, elapsed = bins_campaign
    assert elapsed < 60.0
    n, k = result.summary["config"]["n"], result.summary["config"]["balls"]
    check_against_law("5", result, lambda x: max_load_cdf(n, k, x))


# ---------------------------------------------------------------------------
# 6. Sparse planar max degree via the non-complex sampler
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noncomplex_campaign():
    cfg = ExperimentConfig(
        experiment="noncomplex_maxdegree",
        n=10**5,
        m=5 * 10**4,
        trials=200,
        seed=20260811,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


def test_criterion_06_noncomplex_acceptance_rate_and_runtime(noncomplex_campaign):
    """Rejection acceptance rate at least 1%, full campaign within 10 min."""
    result, elapsed = noncomplex_campaign
    attempts = sum(r.auxiliary.get("attempts", 0) for r in result.records)
    accepted = sum(1 for r in result.records if r.observed is not None)
    rate = accepted / attempts
    ok = accepted == 200 and rate >= 0.01 and elapsed < 600.0
    announce(
        "6 (acceptance rate, runtime)",
        ok,
        f"200/{attempts} accepted ({rate:.1%}) in {elapsed:.1f}s",
    )
    assert accepted == 200
    assert rate >= 0.01
    assert elapsed < 600.0


def test_criterion_06_noncomplex_two_point_hit_rate(noncomplex_campaign):
    """Max degree of the sampled graphs against the two-point prediction
    {delta*, delta* + 1} = {8, 9}, gated on the max-load law of 2m = 1e5
    balls in n = 1e5 bins.

    That law is an approximation here: the sampler conditions the paired
    multigraph on being simple and on having no complex component, which
    the unconditioned balls-into-bins law ignores.  A 2000-trial campaign
    at the same n and m (seed 99) gave a hit rate of 0.6265 against the
    law's 0.630, with chi-square p-value 0.36, so the conditioning moves
    the law by much less than the gate resolves at 200 trials.
    """
    result, _ = noncomplex_campaign
    cfg = result.summary["config"]
    n, balls = cfg["n"], 2 * cfg["m"]
    check_against_law(
        "6 (two-point hit rate)", result, lambda x: max_load_cdf(n, balls, x)
    )


# ---------------------------------------------------------------------------
# 7. Complex part over a triangle core
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def complexpart_campaign():
    cfg = ExperimentConfig(
        experiment="complexpart_maxdegree",
        q=10**5,
        core=TRIANGLE_EDGES,
        trials=200,
        eps=0.25,
        seed=20260812,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


def test_criterion_07_core_recovered_exactly(complexpart_campaign):
    """Degree-one peeling of every sample returns exactly the triangle.

    The campaign's ``core_recovered`` field checks the forest's leaf order
    instead of peeling, so the test rebuilds the same 200 graphs from the
    campaign's trial seeds and peels each one itself.
    """
    result, elapsed = complexpart_campaign
    cfg = result.summary["config"]
    q, seed = cfg["q"], cfg["seed"]
    core = SimpleGraph.from_edges(3, TRIANGLE_EDGES)
    peeled = 0
    for record in result.records:
        us, vs = complex_part_arrays(core, q, derive_rng(seed, record.trial_index))
        assert int(np.bincount(np.concatenate((us, vs))).max()) == record.observed
        alive = _peel(q, us, vs)[0]
        kept = np.flatnonzero(alive[us] & alive[vs])
        recovered = np.array_equal(
            np.flatnonzero(alive), np.arange(1, 4)
        ) and np.array_equal(kept, np.arange(3))
        assert record.auxiliary["core_recovered"] == recovered
        peeled += recovered
    announce(
        "7 (core recovery)",
        peeled == 200,
        f"{peeled}/200 samples peel back to the triangle ({elapsed:.0f}s)",
    )
    assert peeled == 200


def test_criterion_07_complexpart_hit_rate(complexpart_campaign):
    """Max degree of the complex part against the shifted floor window
    [9, 10], gated on its exact law over 200 trials.

    By criterion 3's identity the forest degrees are codeword loads plus
    the root and non-root shifts, so the maximum degree is exactly
    max(1 + non-root load, 2 + root count) for q - 4 codeword balls in q
    bins (the triangle's vertices have core degree 2, and the last codeword
    entry adds one to a uniform root).  The window's exact probability at
    q = 1e5 is about 0.63.
    """
    result, _ = complexpart_campaign
    q = result.summary["config"]["q"]
    check_against_law(
        "7 (window hit rate)",
        result,
        lambda y: complex_part_max_degree_cdf(q, 3, 2, y),
    )


# ---------------------------------------------------------------------------
# 8. Root gap growth
# ---------------------------------------------------------------------------


def test_criterion_08_root_gap_median_growth():
    """Median of (max degree - max root degree) at t = ceil(n^0.7) is
    strictly larger at n = 1e6 than at n = 1e4 (100 trials each)."""
    cfg = ExperimentConfig(
        experiment="root_gap", n=(10**4, 10**6), trials=100, seed=42
    )
    result = run_experiment(cfg)
    med_small = result.summary["by_n"]["10000"]["median_observed"]
    med_large = result.summary["by_n"]["1000000"]["median_observed"]
    ok = med_large > med_small
    announce("8", ok, f"median gap {med_small} at 1e4 vs {med_large} at 1e6")
    assert ok


# ---------------------------------------------------------------------------
# 9. Dense ratio sweep
# ---------------------------------------------------------------------------


def test_criterion_09_dense_ratio_sweep():
    """Exhaustive sweep on [7] with the planar filter: the ratio bound holds
    for every nonempty source class, within ten minutes."""
    start = time.perf_counter()
    checks = sweep_ratio_bounds(7, planar_only=True)
    violations = [c for c in checks if not c.holds]
    nonempty = [c for c in checks if not c.vacuous]

    # Independent confirmation that the hypotheses admit no nonempty source
    # class on seven vertices (an isolated vertex, two isolated edges, and a
    # vertex of degree >= 3 need nine vertices), so the bound is vacuous.
    table = classify_all_graphs(7)
    assert not any(
        k >= 1 and l >= 2 and d >= 3 and counts[1] > 0
        for (m, k, l, d), counts in table.items()
    )
    elapsed = time.perf_counter() - start
    announce(
        "9",
        not violations,
        f"{len(checks)} checks, {len(nonempty)} nonempty sources "
        f"(hypotheses force >= 9 vertices, so the bound holds vacuously) "
        f"in {elapsed:.1f}s",
    )
    assert not violations
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 10. Concentration-point properties
# ---------------------------------------------------------------------------


def _nu_checked(n_bins: int, n_balls: int) -> float:
    """Concentration point plus the residual gate |f(value)| <= 1e-8."""
    value = concentration_point(n_bins, n_balls)
    residual = load_exponent(value, n_bins, n_balls)
    assert abs(residual) <= 1e-8, (n_bins, n_balls, residual)
    return value


def test_criterion_10a_positive_below_one():
    rng = np.random.default_rng(1001)
    for _ in range(500):
        n = int(rng.integers(1, 10**9))
        k = int(rng.integers(1, 10**9))
        x = float(rng.uniform(1e-12, 1.0))
        assert load_exponent(x, n, k) > 0.0
    announce("10a", True, "exponent positive on (0, 1] over a random grid")


def test_criterion_10b_zero_is_bracketed_and_residual_small():
    rng = np.random.default_rng(1002)
    tol = 1e-9
    for _ in range(200):
        n = int(rng.integers(2, 10**8))
        k = int(rng.integers(1, 10**8))
        value = concentration_point(n, k)
        assert load_exponent(value - tol, n, k) > 0.0 > load_exponent(value + tol, n, k)
        assert abs(load_exponent(value, n, k)) <= 10 * tol
    announce("10b", True, "sign change within tol and |residual| <= 10*tol")


def test_criterion_10c_increasing_in_ball_count():
    for n in (10**4, 10**6, 10**8):
        for k in (1, 5, 100, n // 3, n, 2 * n):
            assert concentration_point(n, k) < concentration_point(n, k + 1)
    announce("10c", True, "strictly increasing in the ball count")


def test_criterion_10d_balanced_strictly_increasing():
    grid = (2, 3, 7, 8, 100, 101, 10**4, 10**4 + 1, 10**6, 10**6 + 1)
    values = [balanced_concentration(n) for n in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    announce("10d", True, "balanced point strictly increasing")


def test_criterion_10e_above_one_and_small_ball_cap():
    for n in (10**6, 10**7, 10**8):
        for k in (1, 7, int(n**(1.0 / 6.0)), int(n ** (1.0 / 3.0))):
            value = _nu_checked(n, max(k, 1))
            assert value > 1.0
            assert value <= 5.0 / 3.0 + 0.05
    announce("10e", True, "value in (1, 5/3 + 0.05] for k <= n^(1/3), n >= 1e6")


def test_criterion_10f_log_ratio_deviation_decreases():
    deviations = [
        abs(_nu_checked(n, n) * math.log(math.log(n)) / math.log(n) - 1.0)
        for n in (10**4, 10**6, 10**8)
    ]
    assert deviations[0] > deviations[1] > deviations[2]
    announce(
        "10f",
        True,
        "deviation of value*loglog/log from 1 decreases: "
        + ", ".join(f"{d:.4f}" for d in deviations),
    )


def test_criterion_10g_insensitive_to_sqrt_n_ball_shift():
    for n in (10**6, 10**7, 10**8):
        d = math.ceil(math.sqrt(n))
        shift = abs(_nu_checked(n, n + d) - _nu_checked(n, n))
        assert shift <= 0.05
    announce("10g", True, "shift by ceil(sqrt(n)) balls moves the value <= 0.05")


def test_criterion_10h_joint_scaling_drift_shrinks():
    for c in (0.5, 2.0):
        drifts = [
            abs(
                _nu_checked(math.ceil(c * n), math.ceil(c * n))
                - _nu_checked(n, n)
            )
            for n in (10**4, 10**6, 10**8)
        ]
        assert drifts[0] > drifts[1] > drifts[2]
    announce("10h", True, "drift under joint scaling decreases along the grid")


def test_criterion_10i_unbalanced_shift_matches_log_c():
    """The scaled shift (value(n, cn) - value(n, n)) * (loglog n)^2 / log n
    tends to log c for c in {1/2, 2}; checked through its factor that
    converges at feasible n.

    With x = value(n, n) and D the shift, the scaled shift is A * B * log c:

    - A(n, c) = D * log x / (x * log c), the response of the concentration
      point to the ball count, tends to 1;
    - B(n) = x * (loglog n)^2 / (log n * log x), a fact about the growth of
      x alone, also tends to 1 but is 2.03 at n = 1e4, peaks at 2.24 near
      1e16 and is still 1.73 at 10^16384.  No n that the API accepts shows
      its limit; the growth of x is criterion 10f's subject.

    |A - 1| and B along n = 10^(4 * 2^j), with cn formed as n // 2 and 2 * n:

        n          |A - 1|, c = 1/2   |A - 1|, c = 2   B
        10^4       0.234              0.280            2.03
        10^8       0.201              0.253            2.20
        10^16      0.175              0.225            2.24
        10^32      0.154              0.199            2.21
        10^64      0.137              0.176            2.16
        10^128     0.124              0.157            2.10
        10^256     0.112              0.140            2.03
        10^512     0.103              0.127            1.97
        10^1024    0.095              0.115            1.92
        10^2048    0.088              0.105            1.86
        10^4096    0.082              0.096            1.82

    The grid stops at 10^4096 because beyond it the residual of the
    concentration point exceeds the 1e-8 gate of ``_nu_checked``.

    The test asserts that the shift has the sign of log c at every grid
    point and that |A - 1| decreases strictly along the grid.
    """
    grid = [10 ** (4 * 2**j) for j in range(11)]
    details = []
    for c, scale in ((0.5, lambda n: n // 2), (2.0, lambda n: 2 * n)):
        deviations = []
        for n in grid:
            x = _nu_checked(n, n)
            shift = _nu_checked(n, scale(n)) - x
            assert math.copysign(1.0, shift) == math.copysign(1.0, math.log(c)), (
                c,
                n,
                shift,
            )
            deviations.append(abs(shift * math.log(x) / (x * math.log(c)) - 1.0))
        assert all(a > b for a, b in zip(deviations, deviations[1:])), (c, deviations)
        details.append(
            f"c={c}: |A-1| {deviations[0]:.3f} at 1e4 -> {deviations[-1]:.3f} "
            f"at 10^4096"
        )
    announce("10i", True, "shift has the sign of log c; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 11. Asymptotic ratio report
# ---------------------------------------------------------------------------


def test_criterion_11_asymptotic_ratio_report():
    """Report-only: median max degree of non-complex samples at m = n/2,
    scaled by loglog n / log n, over n in {1e4, 1e5, 1e6}."""
    cfg = ExperimentConfig(
        experiment="noncomplex_maxdegree",
        n=(10**4, 10**5, 10**6),
        trials=25,
        seed=20260813,
    )
    result = run_experiment(cfg)
    ratios = []
    for n in (10**4, 10**5, 10**6):
        entry = result.summary["by_n"][str(n)]
        assert entry["median_observed"] is not None
        ratios.append(entry["median_log_ratio"])
    drift = [abs(r - 1.0) for r in ratios]
    monotone = drift[0] >= drift[1] >= drift[2]
    announce(
        "11",
        True,
        "scaled medians "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; moving toward 1 monotonically: {monotone} (report only)",
    )
