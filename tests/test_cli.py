"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degreelab import cli
from degreelab.cli import main
from degreelab.concentration import (
    balanced_concentration,
    concentration_point,
    predicted_interval_sparse,
)
from degreelab.graphs import SimpleGraph, parse_edge_list
from degreelab.harness import ExperimentConfig, emit, run_experiment
from degreelab.pruefer import validate_forest
from degreelab.samplers import RejectionLimitError

from oracles import degree_tally, dict_decompose

TRIANGLE_CORE = "3 3\n1 2\n1 3\n2 3\n"

# K4s on 1..4 and 5..8 with the path 8-9-10: equal cores, so the tie goes
# to the core with the smallest vertex although 5..10 has more vertices.
TIED_CORES = (
    10,
    [(u, v) for block in (1, 5) for u in range(block, block + 4)
     for v in range(u + 1, block + 4)] + [(8, 9), (9, 10)],
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNuCommand:
    def test_point_value(self, capsys):
        code, out, _ = run_cli(capsys, "nu", "--n", "1000000", "--k", "1000000")
        assert code == 0
        assert float(out) == pytest.approx(concentration_point(10**6, 10**6))

    def test_balanced_flag(self, capsys):
        code, out, _ = run_cli(capsys, "nu", "--hat", "--n", "100000")
        assert code == 0
        assert float(out) == pytest.approx(balanced_concentration(10**5))

    def test_interval_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "nu", "--interval", "--n", "100000", "--m", "50000", "--eps", "0.3333",
        )
        assert code == 0
        payload = json.loads(out)
        interval = predicted_interval_sparse(10**5, 5 * 10**4, 0.3333)
        assert payload == {
            "lo": interval.lo,
            "hi": interval.hi,
            "delta_star": interval.delta_star,
        }

    def test_needs_k_without_mode_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["nu", "--n", "10"])


class TestSampleCommands:
    def test_bins_loads(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "bins", "--n", "6", "--k", "9", "--seed", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["loads"]) == 6
        assert sum(payload["loads"]) == 9

    def test_bins_max(self, capsys):
        _, out_loads, _ = run_cli(
            capsys, "sample", "bins", "--n", "6", "--k", "9", "--seed", "4"
        )
        _, out_max, _ = run_cli(
            capsys,
            "sample", "bins", "--n", "6", "--k", "9", "--seed", "4", "--emit", "max",
        )
        assert json.loads(out_max)["max_load"] == max(json.loads(out_loads)["loads"])

    def test_forest_edge_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "forest", "--n", "12", "--t", "2", "--seed", "5"
        )
        assert code == 0
        graph = SimpleGraph.from_arrays(*parse_edge_list(out))
        assert graph.size == 10
        assert out.splitlines()[0] == "12 10"

    def test_forest_pruefer_and_degrees_agree(self, capsys):
        _, out_seq, _ = run_cli(
            capsys,
            "sample", "forest", "--n", "8", "--t", "2", "--seed", "6",
            "--emit", "pruefer",
        )
        _, out_deg, _ = run_cli(
            capsys,
            "sample", "forest", "--n", "8", "--t", "2", "--seed", "6",
            "--emit", "degrees",
        )
        sequence = json.loads(out_seq)["sequence"]
        degrees = json.loads(out_deg)["degrees"]
        for v in range(1, 9):
            expected = sequence.count(v) + (1 if v > 2 else 0)
            assert degrees[v - 1] == expected

    def test_gnm_with_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "gnm", "--n", "30", "--m", "15", "--seed", "7", "--report",
        )
        assert code == 0
        lines = out.splitlines()
        n_header, m_header = map(int, lines[0].split())
        assert (n_header, m_header) == (30, 15)
        report = json.loads(lines[1 + m_header])
        assert report["accepted"] is True
        assert report["attempts"] >= 1

    def test_noncomplex_sampling(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "noncomplex", "--n", "40", "--m", "20", "--seed", "8"
        )
        assert code == 0
        graph = SimpleGraph.from_arrays(*parse_edge_list(out))
        assert graph.size == 20

    def test_complex_part(self, capsys, tmp_path):
        core_path = tmp_path / "core.txt"
        core_path.write_text(TRIANGLE_CORE)
        code, out, _ = run_cli(
            capsys,
            "sample", "complex-part", "--core", str(core_path),
            "--q", "12", "--seed", "9",
        )
        assert code == 0
        graph = SimpleGraph.from_arrays(*parse_edge_list(out))
        assert graph.size == 12  # 3 core edges + 9 forest edges
        assert {(1, 2), (1, 3), (2, 3)} <= set(graph.edges)

    @pytest.mark.parametrize(
        "argv,digest",
        [
            pytest.param(
                ["gnm", "--n", "2000", "--m", "1000", "--seed", "1"],
                "6b22f2fc300ca668581e0443528c9b98d66858e2f66ad9eab75919cdd70847b2",
                id="gnm",
            ),
            pytest.param(
                ["noncomplex", "--n", "2000", "--m", "1000", "--seed", "2"],
                "6d534ab9bb0d700f57c1adadc7b2e45f8a4bf65b635fe8239b3a68b0a6f339e0",
                id="noncomplex",
            ),
            pytest.param(
                ["forest", "--n", "2000", "--t", "3", "--seed", "1"],
                "e88e5ed1077647bdad000252eca105575c760ac76bc50538517f75247d611f84",
                id="forest-vector-decoder",
            ),
            pytest.param(
                ["forest", "--n", "12", "--t", "2", "--seed", "5"],
                "4c88e926b29b945a6903a2f4cb5617cfec85011e98405f5721fe268a15409f57",
                id="forest-pointer-decoder",
            ),
            pytest.param(
                ["complex-part", "--q", "2000", "--seed", "1"],
                "b33ae7eece08e689553d99eaa09b1a85698edba8dac27dad2ab5266afeb0fabb",
                id="complex-part",
            ),
            pytest.param(
                ["gnm", "--n", "7", "--m", "0", "--seed", "3"],
                "13316410c3243a6b30a5a799aabf36a1e1a8f2aec49fd3af6869c33441dabea7",
                id="gnm-empty",
            ),
        ],
    )
    def test_graph_output_is_pinned(self, capsys, tmp_path, argv, digest):
        # The commands write the sampled endpoint arrays without building a
        # SimpleGraph, so the simple-graph and forest checks run here, on
        # the parsed output.
        if argv[0] == "complex-part":
            core_path = tmp_path / "core.txt"
            core_path.write_text(TRIANGLE_CORE)
            argv = [*argv, "--core", str(core_path)]
        code, out, _ = run_cli(capsys, "sample", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        graph = SimpleGraph.from_arrays(*parse_edge_list(out))
        if argv[0] == "forest":
            validate_forest(graph, int(argv[argv.index("--t") + 1]))


def _edge_list_text(n, edges):
    return "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


@st.composite
def _component(draw):
    """(k, edges) of a connected graph on 0..k-1: a random tree plus up to
    three chords, so trees, unicyclic and complex components all occur."""
    k = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    chords = [(u, v) for u in range(k) for v in range(u + 1, k) if (u, v) not in edges]
    if chords:
        edges |= draw(st.sets(st.sampled_from(chords), max_size=3))
    return k, edges


@st.composite
def component_unions(draw):
    """(n, edges) of a disjoint union of up to five components, n <= 40, on
    shuffled labels."""
    parts = draw(st.lists(_component(), max_size=5))
    n = sum(k for k, _ in parts)
    labels = draw(st.permutations(range(1, n + 1)))
    edges, base = [], 0
    for k, part in parts:
        for u, v in part:
            a, b = labels[base + u], labels[base + v]
            edges.append((min(a, b), max(a, b)))
        base += k
    return n, sorted(edges)


class TestDecomposeCommand:
    def test_json_keys_and_values(self, capsys, tmp_path):
        # Bowtie with a pendant plus a disjoint edge and an isolated vertex.
        path = tmp_path / "graph.txt"
        path.write_text(
            "9 8\n1 2\n1 3\n2 3\n1 4\n1 5\n4 5\n2 6\n7 8\n"
        )
        code, out, _ = run_cli(capsys, "decompose", "--in", str(path))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "core_vertices",
            "qL_vertices",
            "qS_vertices",
            "u_vertices",
            "max_degree",
            "isolated_vertices",
            "isolated_edges",
        }
        assert payload["core_vertices"] == [1, 2, 3, 4, 5]
        assert payload["qL_vertices"] == [1, 2, 3, 4, 5, 6]
        assert payload["qS_vertices"] == []
        assert payload["u_vertices"] == [7, 8, 9]
        assert payload["max_degree"] == 4
        assert payload["isolated_vertices"] == 1
        assert payload["isolated_edges"] == 1

    @pytest.mark.parametrize(
        "source,digest",
        [
            pytest.param(
                ["gnm", "--n", "2000", "--m", "1000", "--seed", "1"],
                "b0152871c928772433a5b532012559634a2b53ab281f9673ac708dc009cdc398",
                id="ci-gnm-empty-core",
            ),
            pytest.param(
                ["gnm", "--n", "2000", "--m", "1200", "--seed", "1"],
                "95f0d49b54048043e7376c6ca7bb98b7e4871dbb702309bf8cdfb3a17f25f8a1",
                id="gnm-with-core",
            ),
            pytest.param(
                _edge_list_text(*TIED_CORES),
                "db7dace00b6c6196ad4689a22f2085a1ec57c88a30939ad8f5310aa36bba5c49",
                id="tied-cores",
            ),
            pytest.param(
                "0 0\n",
                "dc5a66ff8f6e6b36dcfd3a65503e3287be96a38ee942f77e0793546307d8ab88",
                id="no-vertices",
            ),
            pytest.param(
                "5 0\n",
                "8bf65417391d4b02fb56cee755ef0d089fe30a6309c1bcc3c4343e717ecfd41b",
                id="no-edges",
            ),
        ],
    )
    def test_output_is_pinned(self, capsys, tmp_path, source, digest):
        # The digests were taken from the output of the SimpleGraph-based
        # command that the mask-based one replaced; a list is a sample argv.
        if isinstance(source, list):
            code, source, _ = run_cli(capsys, "sample", *source)
            assert code == 0
        path = tmp_path / "graph.txt"
        path.write_text(source)
        code, out, _ = run_cli(capsys, "decompose", "--in", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(graph=component_unions())
    @example(graph=(0, []))
    @example(graph=(5, []))
    @example(graph=(6, [(1, 2), (3, 4), (5, 6)]))
    @example(graph=(5, [(1, 2), (2, 3), (3, 4), (1, 4)]))  # a bare cycle
    @example(graph=TIED_CORES)
    # A diamond on 1..4 goes to qS: the core on 5..9 is larger.
    @example(graph=(12, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (5, 6), (5, 7),
                         (5, 8), (6, 7), (6, 8), (7, 8), (7, 9), (8, 9), (10, 11)]))
    def test_payload_matches_the_dict_reference(self, tmp_path_factory, graph):
        n, edges = graph
        path = tmp_path_factory.mktemp("decompose") / "graph.txt"
        path.write_text(_edge_list_text(n, edges))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decompose", "--in", str(path)]) == 0
        payload = json.loads(out.getvalue())
        core, big, small, rest = dict_decompose(range(1, n + 1), edges)
        assert payload["core_vertices"] == sorted(core)
        assert payload["qL_vertices"] == sorted(big)
        assert payload["qS_vertices"] == sorted(small)
        assert payload["u_vertices"] == sorted(rest)
        assert (
            payload["max_degree"],
            payload["isolated_vertices"],
            payload["isolated_edges"],
        ) == degree_tally(range(1, n + 1), edges)

    def test_tied_cores_go_to_the_smallest_vertex(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(_edge_list_text(*TIED_CORES))
        code, out, _ = run_cli(capsys, "decompose", "--in", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["qL_vertices"] == [1, 2, 3, 4]
        assert payload["qS_vertices"] == [5, 6, 7, 8, 9, 10]


class TestEdgeListFiles:
    """A bad edge-list file is a usage error that names the file."""

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["decompose", "--in"], id="decompose"),
            pytest.param(
                ["sample", "complex-part", "--q", "10", "--seed", "1", "--core"],
                id="complex-part",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 2\n1 2\n", "expected 2 edges after the header"),
            ("3 1\n2 2\n", "loop at vertex 2 is not a simple-graph edge"),
            ("3 1\n1 4\n", "edge \\(1, 4\\) has an endpoint outside the vertex set"),
            ("3 1\n0 1\n", "edge \\(0, 1\\) has an endpoint outside the vertex set"),
            ("3 3\n1 2\n2 1\n2 3\n", "edge \\(1, 2\\) appears more than once"),
            ("3 2\n1 2\n1 2\n", "edge \\(1, 2\\) appears more than once"),
            ("3 2\n2 1\n1 2\n", "edge \\(1, 2\\) appears more than once"),
            ("3 1\n1 two\n", "edge list token 'two' is not an integer"),
            ("3 1\n1 2.0\n", "edge list token '2.0' is not an integer"),
            ("3 1\nTrue 2\n", "edge list token 'True' is not an integer"),
            ("3 1\n1 0x10\n", "edge list token '0x10' is not an integer"),
            ("1e3 0\n", "edge list token '1e3' is not an integer"),
            ("3\n", "edge list must start with an 'N M' header"),
            ("", "edge list must start with an 'N M' header"),
            ("3 -1\n", "header N and M must be non-negative, got 3 -1"),
            (
                "99999999999999999999 0\n",
                "edge list token '99999999999999999999' lies beyond int64",
            ),
            (
                "3 1\n1 99999999999999999999\n",
                "edge list token '99999999999999999999' lies beyond int64",
            ),
            (None, "No such file or directory"),
        ],
    )
    def test_bad_file_is_a_usage_error(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "graph.txt"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main([*command, str(path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = re.escape(f"argument {command[-1]}: {path}: ")
        assert re.search(prefix + ".*" + message, captured.err)


class TestRefusedValues:
    """A value that ``nu`` or ``sample`` passes on and the library refuses is
    a usage error that keeps the library's message and prints the
    subcommand's usage line."""

    @pytest.mark.parametrize(
        "argv,core,message",
        [
            (
                ["sample", "gnm", "--n", "5", "--m", "100"],
                None,
                "m must lie in [0, n(n-1)/2], got 100",
            ),
            (
                ["sample", "forest", "--n", "5", "--t", "5"],
                None,
                "the forest codec needs n >= t + 1",
            ),
            (
                ["sample", "complex-part", "--q", "10"],
                "3 2\n1 2\n2 3\n",
                "every core vertex must have degree at least two",
            ),
            (
                ["sample", "complex-part", "--q", "3"],
                "3 3\n1 2\n2 3\n1 3\n",
                "q must be at least v(core) + 1 = 4, got 3",
            ),
            (
                ["sample", "bins", "--n", "0", "--k", "3"],
                None,
                "n_bins must be a positive integer, got 0",
            ),
            (
                ["sample", "gnm", "--n", "10", "--m", "5", "--max-attempts", "0"],
                None,
                "max_attempts must be a positive integer, got 0",
            ),
            (
                ["nu", "--n", "0", "--k", "3"],
                None,
                "n_bins must be a positive integer, got 0",
            ),
            (
                ["nu", "--n", "0", "--interval", "--m", "1", "--eps", "0.25"],
                None,
                "n must be a positive integer, got 0",
            ),
            (
                ["nu", "--n", "10", "--interval", "--m", "0", "--eps", "0.3"],
                None,
                "m must be a positive integer, got 0",
            ),
            (
                ["nu", "--n", "10", "--interval", "--m", "100", "--eps", "0.25"],
                None,
                "m must be at most n(n-1)/2 = 45, got 100",
            ),
            (
                ["nu", "--n", "10", "--interval", "--m", "5", "--eps", "inf"],
                None,
                "eps must be finite, got inf",
            ),
            (
                ["nu", "--n", "10", "--interval", "--m", "5", "--eps", "nan"],
                None,
                "eps must be finite, got nan",
            ),
            (["nu", "--n", "10"], None, "nu needs --k (or --hat / --interval)"),
            (
                ["nu", "--n", "10", "--interval", "--m", "5"],
                None,
                "nu --interval needs --m and --eps",
            ),
            (
                ["nu", "--n", "100", "--k", "5", "--hat"],
                None,
                "nu takes only one of --k, --hat and --interval",
            ),
            (
                ["nu", "--n", "100", "--hat", "--interval"]
                + ["--m", "10", "--eps", "0.3"],
                None,
                "nu takes only one of --k, --hat and --interval",
            ),
            (
                ["nu", "--n", "100", "--k", "5", "--m", "3", "--eps", "0.2"],
                None,
                "nu takes --m and --eps only with --interval",
            ),
            (
                ["nu", "--n", "100", "--k", "5", "--interval"]
                + ["--m", "3", "--eps", "0.2"],
                None,
                "nu takes only one of --k, --hat and --interval",
            ),
            (
                ["nu", "--n", "100", "--hat", "--eps", "0.2"],
                None,
                "nu takes --m and --eps only with --interval",
            ),
            (
                ["nu", "--n", "100", "--m", "3"],
                None,
                "nu takes --m and --eps only with --interval",
            ),
        ],
    )
    def test_is_a_usage_error(self, capsys, tmp_path, argv, core, message):
        command = " ".join(argv[:2] if argv[0] == "sample" else argv[:1])
        if argv[0] == "sample":
            argv = [*argv, "--seed", "1"]
        if core is not None:
            path = tmp_path / "core.txt"
            path.write_text(core)
            argv = [*argv, "--core", str(path)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: degreelab {command} ")
        assert f"error: {message}" in captured.err

    def test_exhausted_attempts_are_not_a_usage_error(self):
        # A sampling outcome, not bad input: it propagates and exits 1.
        argv = ["sample", "gnm", "--n", "10", "--m", "40", "--seed", "1"]
        with pytest.raises(RejectionLimitError):
            main([*argv, "--max-attempts", "1"])


class TestEnumerateCommand:
    def test_vacuous_sweep_reports_header_and_note(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "dense-ratio", "--n", "7", "--planar")
        assert code == 0
        assert out.splitlines()[0] == "m,k,l,d,count_src,count_dst,bound,holds"
        assert "vacuously" in err

    @pytest.mark.parametrize(
        "value,message",
        [
            ("8", "exhaustive classification is limited to 1 <= n <= 7, got 8"),
            ("0", "exhaustive classification is limited to 1 <= n <= 7, got 0"),
            ("seven", "argument --n: invalid int value: 'seven'"),
        ],
    )
    def test_out_of_range_n_is_a_usage_error(self, capsys, value, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "dense-ratio", "--n", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: degreelab enumerate dense-ratio ")
        assert f"error: {message}" in captured.err


class TestExperimentCommand:
    def test_run_writes_output_and_is_deterministic(self, capsys, tmp_path):
        config = {
            "experiment": "bins_concentration",
            "n": 50,
            "trials": 5,
            "seed": 99,
            "eps": 1.0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code_a, stdout_a, _ = run_cli(
            capsys,
            "experiment", "run", "--config", str(cfg_path),
            "--out", str(out_a), "--format", "csv",
        )
        code_b, stdout_b, _ = run_cli(
            capsys,
            "experiment", "run", "--config", str(cfg_path),
            "--out", str(out_b), "--format", "csv", "--jobs", "2",
        )
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert stdout_a == stdout_b
        summary = json.loads(stdout_a)
        assert summary["trials"] == 5

    def test_exit_code_reflects_thresholds(self, capsys, tmp_path):
        base = {
            "experiment": "bins_concentration",
            "n": 60,
            "trials": 6,
            "seed": 3,
            "eps": 0.8,
        }
        rate = run_experiment(ExperimentConfig.from_dict(base)).summary["hit_rate"]

        passing = dict(base, min_hit_rate=max(rate - 0.01, 0.0))
        failing = dict(base, min_hit_rate=min(rate + 0.01, 1.0))
        if rate == 1.0:
            failing = dict(base, eps=0.01, min_hit_rate=1.0)
            strict_rate = run_experiment(
                ExperimentConfig.from_dict(dict(base, eps=0.01))
            ).summary["hit_rate"]
            assert strict_rate < 1.0

        for payload, expected in ((passing, 0), (failing, 1)):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(payload))
            code, _, _ = run_cli(capsys, "experiment", "run", "--config", str(cfg_path))
            assert code == expected

    @pytest.mark.parametrize(
        "out,message",
        [
            ("missing/x.csv", "{tmp}/missing is not an existing directory"),
            ("a/b/x.csv", "{tmp}/a/b is not an existing directory"),
            ("", "is a directory"),
            ("cfg.json/x.csv", "{tmp}/cfg.json is not an existing directory"),
        ],
        ids=["missing-parent", "missing-grandparent", "directory", "file-as-parent"],
    )
    def test_bad_out_is_a_usage_error_before_the_campaign(
        self, capsys, tmp_path, monkeypatch, out, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "bins_concentration", "n": 10, "trials": 1}')
        cfg_bytes = cfg_path.read_bytes()
        ran = []
        monkeypatch.setattr(
            "degreelab.harness.run_experiment", lambda *a, **k: ran.append(a)
        )
        path = str(tmp_path / out) if out else str(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", "--config", str(cfg_path), "--out", path])
        assert exit_info.value.code == 2
        assert not ran
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: degreelab experiment run ")
        assert f"error: argument --out: {path}: " in captured.err
        assert message.format(tmp=tmp_path) in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        assert cfg_path.read_bytes() == cfg_bytes

    def test_empty_out_is_a_usage_error_before_the_campaign(
        self, capsys, tmp_path, monkeypatch
    ):
        # An empty path would otherwise pass as "no --out" and write nothing.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "bins_concentration", "n": 10, "trials": 1}')
        ran = []
        monkeypatch.setattr(
            "degreelab.harness.run_experiment", lambda *a, **k: ran.append(a)
        )
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", "--config", str(cfg_path), "--out", ""])
        assert exit_info.value.code == 2
        assert not ran
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: degreelab experiment run ")
        assert "error: argument --out: the path is empty" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_in_the_working_directory(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "bins_concentration", "n": 10, "trials": 2}')
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "experiment", "run", "--config", str(cfg_path), "--out", "r.csv"
        )
        assert code == 0
        assert (tmp_path / "r.csv").read_text().startswith("trial,observed,")

    @pytest.mark.parametrize(
        "flag,env,message",
        [
            (["--jobs", "0"], None, "jobs must be a positive integer, got 0"),
            (["--jobs", "-1"], None, "jobs must be a positive integer, got -1"),
            ([], "abc", "DEGREELAB_JOBS must be a positive integer, got 'abc'"),
            ([], "0", "DEGREELAB_JOBS must be a positive integer, got 0"),
        ],
    )
    def test_bad_jobs_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, flag, env, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "bins_concentration", "n": 10, "trials": 1}')
        if env is not None:
            monkeypatch.setenv("DEGREELAB_JOBS", env)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", "--config", str(cfg_path), *flag])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: degreelab experiment run ")
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                '{"experiment": "bins_concentration", "n": 1e3}',
                "n must be an integer, got 1000.0",
            ),
            (
                '{"experiment": "bins_concentration", "n": 10, "nope": 1}',
                "unknown config fields: \\['nope'\\]",
            ),
            ('{"experiment": "bins_concentration", "n": ', "Expecting value"),
            ('[{"experiment": "bins_concentration"}]', "a config must be an object"),
            ('{"n": 10}', "a config needs an 'experiment' field"),
            (
                '{"experiment": "complexpart_maxdegree", "q": 50, "core": 5}',
                "core must be a list of \\[u, v\\] edges, got 5",
            ),
            (
                '{"experiment": "complexpart_maxdegree", "q": 50, "core": [[1, 2, 3]]}',
                "core edges must be \\[u, v\\] integer pairs, got \\[1, 2, 3\\]",
            ),
            (
                '{"experiment": "complexpart_maxdegree", "q": 50,'
                ' "core": [[1, 1], [1, 2]]}',
                "core \\[\\[1, 1\\], \\[1, 2\\]\\] is not a valid core: "
                "loop at vertex 1",
            ),
            (
                '{"experiment": "complexpart_maxdegree", "q": 3,'
                ' "core": [[1, 2], [2, 3], [1, 3]]}',
                "q must be at least v\\(core\\) \\+ 1 = 4, got 3",
            ),
            (
                '{"experiment": "dense_ratio", "n": 8}',
                "n must lie in \\[1, 7\\] for dense_ratio, got 8",
            ),
            (
                '{"experiment": "dense_ratio", "n": [5, 6]}',
                "n must be a single integer for dense_ratio, got \\[5, 6\\]",
            ),
            (
                '{"experiment": "gnm_maxdegree", "n": 10, "m": 46}',
                "m must lie in \\[1, 45\\] for gnm_maxdegree with n = 10, got 46",
            ),
            (
                '{"experiment": "gnm_maxdegree", "n": 1}',
                "m must lie in \\[1, 0\\] for gnm_maxdegree with n = 1, "
                "got 0 \\(its default\\)",
            ),
            (
                '{"experiment": "noncomplex_maxdegree", "n": 10, "m": 10}',
                "m must lie in \\[1, 9\\] for noncomplex_maxdegree with n = 10, "
                "got 10",
            ),
            (
                '{"experiment": "noncomplex_maxdegree", "n": 1}',
                "m must lie in \\[1, 0\\] for noncomplex_maxdegree with n = 1, "
                "got 0 \\(its default\\)",
            ),
            (
                '{"experiment": "forest_maxdegree", "n": 10, "t": 10}',
                "t must lie in \\[1, 9\\] for forest_maxdegree with n = 10, got 10",
            ),
            (
                '{"experiment": "root_gap", "n": 2}',
                "t must lie in \\[1, 1\\] for root_gap with n = 2, "
                "got 2 \\(its default\\)",
            ),
            (
                '{"experiment": "root_gap", "n": 3}',
                "t must lie in \\[1, 2\\] for root_gap with n = 3, "
                "got 3 \\(its default\\)",
            ),
            (
                '{"experiment": "bins_concentration", "n": 10, "balls": 0}',
                "balls must be positive for bins_concentration, got 0",
            ),
            (
                '{"experiment": "bins_concentration"}',
                "n must be given for bins_concentration, got None",
            ),
            (
                '{"experiment": "complexpart_maxdegree", "q": 50}',
                "core must be given for complexpart_maxdegree, got None",
            ),
            (
                '{"experiment": "complexpart_maxdegree",'
                ' "core": [[1, 2], [2, 3], [1, 3]]}',
                "q must be given for complexpart_maxdegree, got None",
            ),
            (
                '{"experiment": "complexpart_maxdegree", "n": 10, "q": 50,'
                ' "core": [[1, 2], [2, 3], [1, 3]]}',
                "n must be left out for complexpart_maxdegree, which reads q, core, "
                "eps, got 10",
            ),
            (
                '{"experiment": "root_gap", "n": 50, "m": 10, "balls": null}',
                "m must be left out for root_gap, which reads n, t, got 10",
            ),
            (
                '{"experiment": "bins_concentration", "n": [50, 50], "trials": 3}',
                "n must not repeat a grid size, got \\[50, 50\\]",
            ),
            (
                '{"experiment": "decomposition_stats", "n": [10, 20, 10], "m": 5}',
                "n must not repeat a grid size, got \\[10, 20, 10\\]",
            ),
        ],
    )
    def test_bad_config_is_a_usage_error(self, capsys, tmp_path, text, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", "--config", str(cfg_path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = re.escape(f"argument --config: {cfg_path}: ")
        assert re.search(prefix + message, captured.err)


class TestParserReuse:
    """``main`` builds its parser once per process and keeps no state between calls."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_do_not_carry_over(self, capsys):
        argv = ["sample", "gnm", "--n", "30", "--m", "10", "--seed", "1"]
        _, reported, _ = run_cli(capsys, *argv, "--report")
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        *edges, report = reported.splitlines()
        assert json.loads(report)["accepted"] is True
        assert plain.splitlines() == edges

        forest = ["sample", "forest", "--n", "8", "--t", "2", "--seed", "6"]
        _, codeword, _ = run_cli(capsys, *forest, "--emit", "pruefer")
        code, out, _ = run_cli(capsys, *forest)
        assert code == 0
        assert len(json.loads(codeword)["sequence"]) == 6
        assert out.splitlines()[0] == "8 6"
        assert SimpleGraph.from_arrays(*parse_edge_list(out)).size == 6

    def test_usage_error_leaves_no_state(self, capsys, tmp_path):
        config = {"experiment": "bins_concentration", "n": 50, "trials": 5, "seed": 99}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        run = ["experiment", "run", "--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exit_info:
            main([*run, "--jobs", "0"])
        assert exit_info.value.code == 2
        capsys.readouterr()

        out = tmp_path / "out.csv"
        code, stdout, _ = run_cli(capsys, *run, "--out", str(out))
        assert code == 0
        result = run_experiment(ExperimentConfig.from_dict(config))
        expected = tmp_path / "expected.csv"
        emit(result.records, "csv", str(expected), summary=result.summary)
        assert out.read_bytes() == expected.read_bytes()
        assert stdout == json.dumps(result.summary, sort_keys=True) + "\n"

    def test_sampler_is_looked_up_when_the_command_runs(self, capsys, monkeypatch):
        argv = ["--n", "40", "--m", "20", "--seed", "8"]
        _, before, _ = run_cli(capsys, "sample", "noncomplex", *argv)
        calls, sampler = [], cli.sample_gnm_arrays

        def spy(n, m, rng, max_attempts, require_noncomplex=False):
            calls.append((n, m, require_noncomplex))
            return sampler(n, m, rng, max_attempts, require_noncomplex)

        monkeypatch.setattr(cli, "sample_gnm_arrays", spy)
        _, after, _ = run_cli(capsys, "sample", "noncomplex", *argv)
        run_cli(capsys, "sample", "gnm", *argv)
        assert calls == [(40, 20, True), (40, 20, False)]
        assert after == before
