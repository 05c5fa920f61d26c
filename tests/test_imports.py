"""The package, and the runs that need no scipy, leave scipy unloaded.

Importing scipy's special functions takes about 0.2 s on a 2-CPU Xeon,
about half of a run's start-up. So ``import mccsma`` and
``import mccsma.cli`` load no scipy module, and neither do a capacity
sweep, a simulation of the bow-tie under the shared queue, a time-scale
study of ap-line3 and an equilibrium of the bow-tie: the LP, the
simulators and the normalization of an equilibrium run on numpy alone, as
does uniformization at every λt. A run that reads scipy (the
log-factorials of an equilibrium's plain classes) imports it then. Each
check runs in a fresh interpreter, since the tests around it load scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints, as its last line, the scipy modules loaded after the imports and
# after each run of main() that argv lists.
CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import mccsma
import mccsma.cli
loaded = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    assert mccsma.cli.main(argv) == 0, argv
    loaded[argv[1]] = scipy_modules()
print(json.dumps(loaded))
"""


# Runs a uniformization whose e^-λt underflows (λt = 2,500) and prints the
# scipy modules loaded then.
LONG_UNIFORMIZATION = """
import json, sys
import numpy as np
from mccsma.oracles import _csr_generator, transient_distribution

q = _csr_generator(2, [(0, 1, 300.0), (1, 0, 500.0)])
assert np.exp(-500.0 * 5.0) == 0.0
p = transient_distribution(q, np.array([1.0, 0.0]), 5.0)
assert abs(p[1] - 300.0 / 800.0) < 1e-9, p
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _last_line_of_fresh_run(code: str, *args: str):
    """The JSON last line that ``python -c code *args`` prints, run in a
    fresh interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_modules_by_stage(runs: list[list[str]]) -> dict[str, list[str]]:
    return _last_line_of_fresh_run(CHILD, json.dumps(runs))


def test_imports_and_numpy_runs_load_no_scipy(tmp_path):
    scenario = (SRC / "mccsma" / "scenarios" / "ap-line3.yaml").read_text()
    study = tmp_path / "ap-line3-timescale.yaml"
    study.write_text(scenario[:scenario.index("experiment:")]
                     + "experiment: {kind: timescale, t_probe: 0.5, replications: 20}\n")
    runs = [
        ["run", "capacity-sweep", "--scenario", "bowtie", "--grid", "3"],
        ["run", "simulate", "--scenario", "bowtie", "--policy", "standard_infra",
         "--horizon", "50", "--replications", "5"],
        ["run", "timescale", "--scenario", str(study)],
        # every class of the bow-tie is a downlink class, so none is plain
        ["run", "equilibrium", "--scenario", "bowtie", "--policy", "standard_infra",
         "--state", "1,0,2,0,1"],
    ]
    runs = [[*argv, "--output", str(tmp_path / argv[1])] for argv in runs]
    loaded = _scipy_modules_by_stage(runs)
    assert loaded == {"import": [], "capacity-sweep": [], "simulate": [], "timescale": [],
                      "equilibrium": []}


def test_a_uniformization_past_the_underflow_loads_no_scipy():
    assert _last_line_of_fresh_run(LONG_UNIFORMIZATION) == []


def test_an_equilibrium_run_loads_scipy_special(tmp_path):
    """two-ap's uplink classes are plain: their log-factorials come from
    scipy's ``gammaln``."""
    loaded = _scipy_modules_by_stage(
        [["run", "equilibrium", "--scenario", "two-ap", "--output", str(tmp_path / "eq")]])
    assert loaded["import"] == []
    assert "scipy.special" in loaded["equilibrium"]
