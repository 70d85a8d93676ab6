"""Import guards: what importing degreelab and running its trials loads.

Each check runs in a fresh interpreter, because pytest and the other test
modules have already imported SciPy and much of NumPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from degreelab.harness import EXPERIMENTS

SRC = Path(__file__).resolve().parents[1] / "src"

#: One tiny campaign per experiment kind.
TINY_CONFIGS = {
    "bins_concentration": {"n": 20},
    "gnm_maxdegree": {"n": 20},
    "noncomplex_maxdegree": {"n": 20},
    "forest_maxdegree": {"n": 20},
    "complexpart_maxdegree": {"q": 10, "core": [[1, 2], [2, 3], [1, 3]]},
    "root_gap": {"n": 20},
    "decomposition_stats": {"n": 20},
    "dense_ratio": {"n": 4},
}


def run_fresh(code: str):
    """Run ``code`` in a new interpreter and parse the JSON it prints."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_no_scipy():
    loaded = run_fresh(
        "import json, sys\n"
        "import degreelab.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert loaded == []


def test_trials_import_nothing_after_the_cli():
    # Forked campaign workers inherit the parent's modules; a trial that imports
    # lazily makes every worker import again.
    assert set(TINY_CONFIGS) == set(EXPERIMENTS)
    added = run_fresh(
        "import json, sys\n"
        "import degreelab.cli\n"
        "from degreelab.harness import ExperimentConfig, run_experiment\n"
        f"configs = json.loads({json.dumps(json.dumps(TINY_CONFIGS))})\n"
        "added = {}\n"
        "for kind, fields in configs.items():\n"
        "    before = set(sys.modules)\n"
        "    run_experiment(ExperimentConfig(experiment=kind, **fields), jobs=1)\n"
        "    added[kind] = sorted(set(sys.modules) - before)\n"
        "print(json.dumps(added))\n"
    )
    assert added == {kind: [] for kind in EXPERIMENTS}
