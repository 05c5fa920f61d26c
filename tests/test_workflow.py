"""The CI workflow runs the tier-1 command of ROADMAP.md in each of its
jobs, and its ``floors`` job installs exactly the lowest versions that
``pyproject.toml`` declares, on the lowest Python it allows. So the tests
of bit-for-bit results and of imports also run on those versions."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def _jobs() -> dict:
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())["jobs"]


def _declared_floors() -> dict[str, str]:
    """Package -> lowest version, read from pyproject.toml with a regex:
    Python 3.10 has no ``tomllib``."""
    text = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    entries = re.findall(r'"([^"]+)"', deps)
    floors = dict(re.fullmatch(r"([A-Za-z0-9_.-]+)>=([0-9.]+)", e).groups() for e in entries)
    return {name.lower(): version for name, version in floors.items()}


def test_floors_job_pins_the_declared_lower_bounds():
    floors = _declared_floors()
    assert floors == {"numpy": "1.24", "scipy": "1.12", "pyyaml": "6.0"}
    job = _jobs()["floors"]
    install = " ".join(step.get("run", "") for step in job["steps"] if "pip install" in
                       step.get("run", ""))
    pinned = {name.lower(): version
              for name, version in re.findall(r'"([A-Za-z0-9_.-]+)==([0-9.]+)\.\*"', install)}
    assert pinned == floors
    python = re.search(r'^requires-python = ">=([0-9.]+)"',
                       (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    setup = next(step for step in job["steps"]
                 if step.get("uses", "").startswith("actions/setup-python"))
    assert str(setup["with"]["python-version"]) == python


def test_every_job_runs_the_tier1_command():
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                        (ROOT / "ROADMAP.md").read_text()).group(1)
    jobs = _jobs()
    assert set(jobs) == {"tests", "floors"}
    for name, job in jobs.items():
        runs = [step.get("run", "").strip() for step in job["steps"]]
        assert any(run == command or run.startswith(command + " ") for run in runs), name
