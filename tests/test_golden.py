"""Golden outputs: the CLI's result files must stay byte for byte the same
from one commit to the next.

Each case runs ``main()`` at seed 0 and compares the SHA-256 digest of every
result file with the recorded one. ``manifest.json`` is left out because it
records wall time. A deliberate change of results (say, a change in how
random numbers are consumed) re-records the digests in the same commit.
"""

import hashlib

import pytest

from mccsma.cli import main

GOLDEN = {
    "equilibrium-two-ap": (
        ["run", "equilibrium", "--scenario", "two-ap"],
        {
            "distribution.csv":
                "7ff6e502ec3c25151e3b578ac50316b3387b3c34a0bdbeb1a8d75568c82fe014",
            "throughput.csv":
                "2c0a938413a5d81eba5dd8dd1af68b6e49abdd0d2fda34754bf89275fbabbb17",
        },
    ),
    "capacity-sweep-bowtie": (
        ["run", "capacity-sweep", "--scenario", "bowtie", "--grid", "10"],
        {
            "sweep.csv":
                "1e45902101e29b960fe69bf1a05eb630a4d509a98302d2e00ba2a0e7bfaaebad",
        },
    ),
    "capacity-sweep-two-ap": (
        ["run", "capacity-sweep", "--scenario", "two-ap", "--grid", "10"],
        {
            "sweep.csv":
                "993ce2221091bfb7998b2d254b52bfe5b10f0099b1621e328f6c10b3adbfa223",
        },
    ),
    "capacity-sweep-adhoc4": (
        ["run", "capacity-sweep", "--scenario", "adhoc4", "--grid", "10"],
        {
            "sweep.csv":
                "2b9649f0286d0fcb83f1a048634e0f879f78759c43c6c025fb95ab45234b7509",
        },
    ),
    "simulate-bowtie-standard-infra": (
        ["run", "simulate", "--scenario", "bowtie", "--policy", "standard_infra",
         "--horizon", "50", "--replications", "5"],
        {
            "summary.csv":
                "22afa43ca93d9a05246fe4b3427d14577ba0657eae4a8a244358d3c6bf70cda0",
            "trajectory_0.csv":
                "ff14ef4553a7064974c989e94a62b705cd53f285d1843f9014cbc7941163723f",
            "trajectory_1.csv":
                "f218cc500594408d90a1751506c5faf5c66ff388be81341cd423c3f6057af9ca",
            "trajectory_2.csv":
                "96f373832d4b614e16e1a612d44bc7541408c0e6ae08c913563a2b5fe9ea0e68",
            "trajectory_3.csv":
                "fe0a29fc5bb51580689fcfb66e5d284d5f18ea9ff244b0bfcec102e5f3bf807d",
            "trajectory_4.csv":
                "9cc97c05f53a8daa717f79b6b4ccf1b6ee7a2d1fe9da404e4d2d5912758e3130",
            "verdict.json":
                "14134e6394f4d9de17756a8e3aee36ea36ec0d6f2d0a4aa4c1acf5d923ad26c8",
        },
    ),
    "simulate-ap-line3-joint": (
        ["run", "simulate", "--scenario", "ap-line3", "--horizon", "20",
         "--replications", "5", "--scaling-n", "4"],
        {
            "summary.csv":
                "39a89f0dae6faec312e69575e44e4cef5a757804129d2a77e16f330248e0fb47",
            "trajectory_0.csv":
                "629b54ecfcf075913c266a024e8667532db66268df1b18fda511390969b8cc22",
            "trajectory_1.csv":
                "ca044104bbc7bc96f8950bab644ffa2bba0520332e14fe8f4a0900351043ab01",
            "trajectory_2.csv":
                "03c7a27981aace6e606eed53d3d8c5134702f1206f2c9f426f53e724b8c43f0d",
            "trajectory_3.csv":
                "0d42e4169ca78d67c8e0aacab2d78a547a9b0979cc1862d34d998bde6383e150",
            "trajectory_4.csv":
                "f72229707495680ba93e8e22836bb4b478bad8d562ae70206683a98d90bfd7fe",
            "verdict.json":
                "c71123a8a476fe9fd2ec93afdab242cbf19947ae0922592922d1990ab03be2e5",
        },
    ),
    "stability-sweep-adhoc4": (
        ["run", "stability-sweep", "--scenario", "adhoc4", "--grid", "2",
         "--replications", "5", "--horizon", "100"],
        {
            "stability.csv":
                "eef4b9492effe2cf0fb0bd493fbe9046093ae190d7d740de7af81913222b305a",
        },
    ),
    "timescale-ap-line3": (
        ["run", "timescale", "--scenario", "ap-line3", "--replications", "20"],
        {
            "distances.csv":
                "1ee57e2c3060172df00357a3fe0d2e2a0086f5b2a3685348272f0c33f3f91b94",
        },
    ),
}


def result_digests(outdir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_result_files_match_golden_digests(case, tmp_path):
    argv, expected = GOLDEN[case]
    out = tmp_path / case
    assert main([*argv, "--seed", "0", "--output", str(out)]) == 0
    assert result_digests(out) == expected


EXPORT_PLOT_GOLDEN = {
    "boundary_instability.csv":
        "8e4eb52d3747837ec12d5d2f66aa8719aa5f0cb0793b3de226a31cd26f9abea8",
    "boundary_optimal.csv":
        "906b6819039a8956ee53943603227a589ba398e8d0452a741653817ca00d3723",
    "region_plot.csv":
        "d81b3176efbd0d5dba3f8535d269e75f7d829f8cc8b9d03da67c7c45f0b688a4",
    "simulation_points.csv":
        "6cee28806196c2c5fad4a2e282f131b61e7aff91279b1286010585825792013b",
}


def test_export_plot_of_stability_sweep_matches_golden_digests(tmp_path):
    argv, _ = GOLDEN["stability-sweep-adhoc4"]
    sweep = tmp_path / "sweep"
    assert main([*argv, "--seed", "0", "--output", str(sweep)]) == 0
    plot = tmp_path / "plot"
    assert main(["export-plot", "--sweep", str(sweep / "stability.csv"),
                 "--output", str(plot)]) == 0
    assert result_digests(plot) == EXPORT_PLOT_GOLDEN
