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
                "96634774abb990274c330006f4b223050939b58ad248208aa6eda842b4634cbd",
            "trajectory_0.csv":
                "ba3af286eca0cb83731e8488a2f6fb19ad5a44d1f0c043ec07d7073b9368d80b",
            "trajectory_1.csv":
                "2f786488422d355b605afea52b6f7f67677ddf5e4897b5f02704dca5a235558d",
            "trajectory_2.csv":
                "9f5cf117917ba9910d8687e39f093a82c20769700b3d4f69a3c2e2722a06a65e",
            "trajectory_3.csv":
                "9b4ee190f91928be16c9fb87201dca17db1d74bbae4c6295f71c3ec2214ed1a1",
            "trajectory_4.csv":
                "d214d5ca9ec11f6edf37d8ce0f54f590f1de2ffbce4bb86c2d34492a9ce8c4da",
            "verdict.json":
                "8e5c88ef7ebfe96687d78fd7dc43025bdaf7260c3eeb6744368fc81012da671a",
        },
    ),
    "simulate-ap-line3-joint": (
        ["run", "simulate", "--scenario", "ap-line3", "--horizon", "20",
         "--replications", "5", "--scaling-n", "4"],
        {
            "summary.csv":
                "cec9241a8cf78b25233f2009b7d3a2a2e83c46cb4dbfd3d32f79b278fa7d7795",
            "trajectory_0.csv":
                "113e2de3035230a7abeda93c71e1929d309b34617878fe78d5ce75de9b763375",
            "trajectory_1.csv":
                "b60a948871843ff1afe9e2ece3160d0c83b44be9183e8bc7980fc03f2e4a9e16",
            "trajectory_2.csv":
                "bf6a7ebd2e568939c77ddc43ead68ab0070acb70da0bad2bc2195c8ea3e576aa",
            "trajectory_3.csv":
                "f54eb02866ed0c0edefee190696dbd6a608d26d18f59b06cd83e462e8f88d3cb",
            "trajectory_4.csv":
                "467864528a7c15382e15367e8157cb959e95bc32134679808d76f9e832fe166a",
            "verdict.json":
                "989ab2cddda70d3f489189f2d9a9e913a047e5bd18191de7d3055a7b39a89600",
        },
    ),
    "stability-sweep-adhoc4": (
        ["run", "stability-sweep", "--scenario", "adhoc4", "--grid", "2",
         "--replications", "5", "--horizon", "100"],
        {
            "stability.csv":
                "922276d41adfbeeda3307f4664305c5cbd5917937cf19345eaf042d062b39a59",
        },
    ),
    "timescale-ap-line3": (
        ["run", "timescale", "--scenario", "ap-line3", "--replications", "20"],
        {
            "distances.csv":
                "53fa7e9d6012fc456821aa076c82cfc001e63d4377c0dfc1eef5553799c3c2b8",
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


# export-plot of the adhoc4 stability sweep: adhoc4's capacity boundary and
# the sweep's verdicts
EXPORT_PLOT_GOLDEN = {
    "boundary_optimal.csv":
        "0a4d2539fcb5cfac314994572227e2d88d23f8ad4c545f18a4953d3d5f673306",
    "region_plot.csv":
        "26fea7ff5e3c1b317ce0ccdc0e1fddb91d7cae1f04834af0c3c1d35ea9dc0b95",
    "simulation_points.csv":
        "6cee28806196c2c5fad4a2e282f131b61e7aff91279b1286010585825792013b",
}
# the same on the bow-tie capacity sweep, whose boundary has a closed form
# and whose points region_plot.csv tags capacity:<status>
EXPORT_PLOT_BOWTIE_GOLDEN = {
    "boundary_optimal.csv":
        "ca8ed6936703155252eb4092cbe0dc88e7e828fa017db2055d7ba7bae6614f7a",
    "region_plot.csv":
        "751ea643ebd5447a14969e69f898e7b070e3599b70dc00959302ab13f3db6be5",
    "simulation_points.csv":
        "b5614d77356bed51480e2f7960492a714906726e80d9b617a32327b556ea1c30",
}


def _export_plot_digests(case: str, result: str, tmp_path) -> dict[str, str]:
    """The digests of export-plot's files for the golden run ``case``, whose
    result file ``result`` it reads."""
    argv, _ = GOLDEN[case]
    sweep = tmp_path / "sweep"
    assert main([*argv, "--seed", "0", "--output", str(sweep)]) == 0
    plot = tmp_path / "plot"
    assert main(["export-plot", "--sweep", str(sweep / result),
                 "--output", str(plot)]) == 0
    return result_digests(plot)


def test_export_plot_of_stability_sweep_matches_golden_digests(tmp_path):
    assert (_export_plot_digests("stability-sweep-adhoc4", "stability.csv", tmp_path)
            == EXPORT_PLOT_GOLDEN)


def test_export_plot_of_bowtie_capacity_sweep_matches_golden_digests(tmp_path):
    assert (_export_plot_digests("capacity-sweep-bowtie", "sweep.csv", tmp_path)
            == EXPORT_PLOT_BOWTIE_GOLDEN)
