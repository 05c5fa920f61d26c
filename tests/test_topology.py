import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BOWTIE_EDGES, adhoc_path4, bipartite33, bowtie_spec,
                      random_instance, star5, tripartite221)
from mccsma.topology import (AccessPoint, ChannelGraph, CsmaParams, NetworkSpec,
                             TrafficSpec, canonical_edges, replicate_graph,
                             validate_params, validate_spec, validate_traffic)
from theory import detect_l_partite, traffic_load


def test_bowtie_spec_is_valid(bowtie):
    assert validate_spec(bowtie) == []


def test_degenerate_single_class_network_is_valid():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    assert validate_spec(spec) == []


def test_missing_intra_ap_conflict_is_reported():
    # two downlink classes of one access point share channel 0 without an edge
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], []),
                       (AccessPoint.of([], [0, 1]),))
    problems = validate_spec(spec)
    assert len(problems) == 1
    assert "access point 0" in problems[0] and "no conflict edge" in problems[0]


def test_self_loop_and_range_violations():
    spec = NetworkSpec(2, 1, (ChannelGraph.of([0, 1, 5], [(0, 0), (0, 3)]),))
    problems = validate_spec(spec)
    assert any("joins a class with itself" in p for p in problems)
    assert any("out of range" in p for p in problems)
    assert any("not an eligible class" in p for p in problems)


def test_duplicate_ap_assignment_reported():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]),
                       (AccessPoint.of([], [0]), AccessPoint.of([0], [1])))
    assert any("assigned to access points" in p for p in validate_spec(spec))


def test_validate_spec_is_pure(bowtie):
    first = validate_spec(bowtie)
    second = validate_spec(bowtie)
    assert first == second == []


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))))
def test_canonical_edges_deduplicate_and_order(pairs):
    edges = canonical_edges(pairs)
    assert all(a <= b for a, b in edges)
    assert canonical_edges([(b, a) for a, b in pairs]) == edges


def test_params_validation_catches_probe_errors():
    spec = NetworkSpec(2, 2, (ChannelGraph.of([0, 1]), ChannelGraph.of([0])))
    good = CsmaParams((1.0, 1.0), (1.0, 1.0), ((0.5, 0.5), (1.0, 0.0)))
    assert validate_params(spec, good) == []
    bad_sum = CsmaParams((1.0, 1.0), (1.0, 1.0), ((0.4, 0.5), (1.0, 0.0)))
    assert any("sum to" in p for p in validate_params(spec, bad_sum))
    on_wrong_channel = CsmaParams((1.0, 1.0), (1.0, 1.0), ((0.5, 0.5), (0.5, 0.5)))
    assert any("must be zero" in p for p in validate_params(spec, on_wrong_channel))
    missing = CsmaParams((1.0, 1.0), (1.0, 1.0), ((0.0, 1.0), (1.0, 0.0)))
    assert any("must be finite and positive" in p for p in validate_params(spec, missing))
    # NaN fails every comparison, so each check asks for a finite value
    nan, inf = float("nan"), float("inf")
    for params, field in (
            (CsmaParams((nan, 1.0), (1.0, 1.0), ((0.5, 0.5), (1.0, 0.0))), "phys_rate"),
            (CsmaParams((inf, 1.0), (1.0, 1.0), ((0.5, 0.5), (1.0, 0.0))), "phys_rate"),
            (CsmaParams((1.0, 1.0), (1.0, nan), ((0.5, 0.5), (1.0, 0.0))), "attempt_rate"),
            (CsmaParams((1.0, 1.0), (inf, 1.0), ((0.5, 0.5), (1.0, 0.0))), "attempt_rate"),
            (CsmaParams((1.0, 1.0), (1.0, 1.0), ((nan, 1.0), (1.0, 0.0))), "probe_prob[0]"),
            (CsmaParams((1.0, 1.0), (1.0, 1.0), ((0.5, 0.5), (inf, 0.0))), "probe_prob[0]")):
        assert any(f"{field} must be finite and positive" in p
                   for p in validate_params(spec, params)), (params, field)


def test_traffic_validation():
    assert validate_traffic(TrafficSpec((0.0, 0.5), (1.0, 2.0))) == []
    assert any("nonnegative" in p
               for p in validate_traffic(TrafficSpec((-1.0,), (1.0,))))
    assert any("positive" in p
               for p in validate_traffic(TrafficSpec((1.0,), (0.0,))))
    nan, inf = float("nan"), float("inf")
    for traffic, message in (
            (TrafficSpec((0.3, nan), (1.0, 1.0)), "arrival_rate must be finite and nonnegative"),
            (TrafficSpec((0.3, inf), (1.0, 1.0)), "arrival_rate must be finite and nonnegative"),
            (TrafficSpec((0.3, 0.3), (nan, 1.0)), "mean_flow_size must be finite and positive"),
            (TrafficSpec((0.3, 0.3), (1.0, inf)), "mean_flow_size must be finite and positive")):
        assert any(message in p for p in validate_traffic(traffic)), traffic


def test_alpha_and_rho_derivations():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], []))
    params = CsmaParams((2.0, 4.0), (1.0, 1.0), ((1.0,), (1.0,)))
    assert np.allclose(params.alpha, [0.5, 0.25])
    traffic = TrafficSpec((2.0, 3.0), (0.5, 2.0))
    assert np.allclose(traffic_load(traffic), [1.0, 6.0])


# --- complete multipartite detection ---

def test_star_partition_recovered():
    partition = detect_l_partite(star5())
    assert partition == ((0, 1, 3, 4), (2,))


def test_edgeless_graph_is_single_block():
    spec = NetworkSpec(4, 2, replicate_graph(2, range(4), []))
    assert detect_l_partite(spec) == ((0, 1, 2, 3),)


def test_bowtie_graph_is_not_multipartite():
    spec = NetworkSpec(5, 2, replicate_graph(2, range(5), BOWTIE_EDGES))
    assert detect_l_partite(spec) is None


def test_known_partitions():
    assert detect_l_partite(bipartite33()) == ((0, 1, 2), (3, 4, 5))
    assert detect_l_partite(tripartite221()) == ((0, 1), (2, 3), (4,))
    assert detect_l_partite(adhoc_path4()) is None


def test_differing_graphs_rejected():
    spec = NetworkSpec(2, 2, (ChannelGraph.of([0, 1], [(0, 1)]),
                              ChannelGraph.of([0, 1], [])))
    with pytest.raises(ValueError, match="differ"):
        detect_l_partite(spec)


def test_partial_eligibility_rejected():
    spec = NetworkSpec(2, 1, (ChannelGraph.of([0], []),))
    with pytest.raises(ValueError, match="eligible"):
        detect_l_partite(spec)


def _brute_force_multipartite(num_classes: int, edges: frozenset) -> bool:
    # non-adjacency must be transitive for a complete multipartite graph
    def adjacent(a, b):
        return (min(a, b), max(a, b)) in edges

    for a in range(num_classes):
        for b in range(num_classes):
            for c in range(num_classes):
                if len({a, b, c}) == 3 and not adjacent(a, b) and not adjacent(b, c):
                    if adjacent(a, c):
                        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.data())
def test_multipartite_detection_matches_brute_force(num_classes, data):
    pairs = [(a, b) for a in range(num_classes) for b in range(a + 1, num_classes)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    spec = NetworkSpec(num_classes, 1, replicate_graph(1, range(num_classes), chosen))
    partition = detect_l_partite(spec)
    expected = _brute_force_multipartite(num_classes, spec.channel_graphs[0].edges)
    assert (partition is not None) == expected
    if partition is not None:
        edges = spec.channel_graphs[0].edges
        for block in partition:
            for i, a in enumerate(block):
                for b in block[i + 1:]:
                    assert (a, b) not in edges
        flat = [k for block in partition for k in block]
        assert sorted(flat) == list(range(num_classes))
        for bi, block_a in enumerate(partition):
            for block_b in partition[bi + 1:]:
                for a in block_a:
                    for b in block_b:
                        assert (min(a, b), max(a, b)) in edges


def test_random_infrastructure_instances_are_valid():
    rng = np.random.default_rng(1)
    for _ in range(50):
        spec, params, _ = random_instance(rng, infrastructure=True)
        assert validate_spec(spec) == []
        assert validate_params(spec, params) == []
