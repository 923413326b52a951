import itertools
import math

import numpy as np
import pytest

from qchan import (
    ConfusabilityGraph,
    confusability_graph,
    from_bloch,
    graph_from_json,
    graph_to_json,
    make_channel,
    max_independent_set,
    non_adjacent,
    pauli_eigenstates,
    pentagon_graph,
    strong_product,
    zero_error_lower_bound,
)
from qchan import zero_error
from qchan.errors import InvalidParameter, TooLarge


def empty_graph(m):
    return ConfusabilityGraph([f"u{k}" for k in range(m)], np.zeros((m, m), dtype=bool))


def complete_graph(m):
    adj = ~np.eye(m, dtype=bool)
    return ConfusabilityGraph([f"u{k}" for k in range(m)], adj)


def graph_of_edges(m, edges):
    adj = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return ConfusabilityGraph([f"v{k}" for k in range(m)], adj)


def cycle_graph(m):
    return graph_of_edges(m, [(i, (i + 1) % m) for i in range(m)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_of_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def circulant_graph(m, steps):
    return graph_of_edges(m, [(i, (i + s) % m) for i in range(m) for s in steps])


def rook_graph():
    """K3 x K3 (Cartesian): cells of a 3 x 3 board, joined when they share a row or a column."""
    cells = list(itertools.product(range(3), repeat=2))
    pairs = itertools.combinations(range(9), 2)
    return graph_of_edges(9, [(i, j) for i, j in pairs if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])])


def pauli_graph(kind):
    return confusability_graph(make_channel(kind, p=0.3) if kind != "identity" else make_channel(kind))


def assert_independent_in(g, labels):
    idx = {lab: k for k, lab in enumerate(g.labels)}
    members = [idx[lab] for lab in labels]
    assert len(set(members)) == len(members)
    assert not g.adjacency[np.ix_(members, members)].any()


class TestGraphType:
    def test_rejects_asymmetric_adjacency(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(InvalidParameter):
            ConfusabilityGraph(["a", "b"], adj)

    def test_rejects_self_loops(self):
        with pytest.raises(InvalidParameter):
            ConfusabilityGraph(["a"], [[True]])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(InvalidParameter):
            ConfusabilityGraph(["a", "b", "c"], np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("adjacency", [
        [[False], [False, False]],
        5,
        None,
        [5, 5],
        ["ab", "ab"],
        [[[False], [False]], [[False], [False]]],
        np.zeros((2, 2, 1), dtype=bool),
        np.zeros(4, dtype=bool),
    ], ids=["ragged", "scalar", "none", "row of scalars", "strings", "nested 3-d", "array 3-d", "array 1-d"])
    def test_rejects_malformed_adjacency(self, adjacency):
        with pytest.raises(InvalidParameter, match="not a 2 x 2 matrix"):
            ConfusabilityGraph(["a", "b"], adjacency)

    def test_rejects_repeated_labels(self):
        with pytest.raises(InvalidParameter, match="label 'a' is repeated"):
            ConfusabilityGraph(["a", "b", "a"], np.zeros((3, 3), dtype=bool))

    def test_power_labels_stay_distinct(self):
        g2 = strong_product(pentagon_graph(), 2)
        assert len(set(g2.labels)) == g2.vertex_count == 25

    def test_lists_and_arrays_build_equal_graphs(self):
        rows = [[(i - j) % 6 in (1, 2, 4, 5) for j in range(6)] for i in range(6)]
        labels = [f"u{k}" for k in range(6)]
        from_lists = ConfusabilityGraph(labels, rows)
        from_array = ConfusabilityGraph(labels, np.array(rows))
        assert from_lists.masks == from_array.masks
        assert from_lists.edges() == from_array.edges()
        assert np.array_equal(from_lists.adjacency, rows)

    def test_adjacency_is_read_only(self):
        adj = pentagon_graph().adjacency
        assert adj.dtype == bool and adj.shape == (5, 5)
        with pytest.raises(ValueError):
            adj[0, 2] = True

    def test_pentagon_shape(self):
        g = pentagon_graph()
        assert g.vertex_count == 5
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))
        assert g.is_edge(0, 1) and g.is_edge(4, 0) and not g.is_edge(0, 2)


class TestNonAdjacent:
    def test_bit_flip_keeps_x_basis_apart(self):
        ch = make_channel("bit_flip", p=0.3)
        assert non_adjacent(ch, from_bloch([1, 0, 0]), from_bloch([-1, 0, 0]))

    def test_bit_flip_confuses_z_basis(self):
        ch = make_channel("bit_flip", p=0.3)
        assert not non_adjacent(ch, from_bloch([0, 0, 1]), from_bloch([0, 0, -1]))

    def test_identity_separates_any_orthogonal_pair(self):
        ch = make_channel("identity")
        assert non_adjacent(ch, from_bloch([0, 1, 0]), from_bloch([0, -1, 0]))


class TestConfusabilityGraph:
    def test_default_alphabet_is_pauli_eigenstates(self):
        g = confusability_graph(make_channel("identity"))
        assert g.labels == ("+z", "-z", "+x", "-x", "+y", "-y")

    def test_identity_connects_only_non_orthogonal_pairs(self):
        g = confusability_graph(make_channel("identity"))
        assert g.edge_count == 12
        assert all(g.degree(v) == 4 for v in range(6))
        assert not g.is_edge(0, 1)

    def test_full_depolarizing_confuses_everything(self):
        g = confusability_graph(make_channel("depolarizing", p=1.0))
        assert g.edge_count == 15

    def test_dephasing_spares_the_z_pair_only(self):
        g = confusability_graph(make_channel("dephasing", p=0.3))
        assert not g.is_edge(0, 1)
        assert g.edge_count == 14

    def test_custom_states_get_default_labels(self):
        states = [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])]
        g = confusability_graph(make_channel("identity"), states=states)
        assert g.labels == ("s0", "s1")
        assert g.edge_count == 0

    def test_six_pauli_eigenstates_come_back(self):
        named = pauli_eigenstates()
        assert len(named) == 6
        assert all(np.isclose(np.trace(rho.matrix).real, 1.0) for _, rho in named)


class TestStrongProduct:
    def test_square_of_pentagon(self):
        g2 = strong_product(pentagon_graph(), 2)
        assert g2.vertex_count == 25
        assert g2.edge_count == 100
        assert "(v0,v1)" in g2.labels

    def test_tuples_adjacent_iff_confusable_everywhere(self):
        g = pentagon_graph()
        g2 = strong_product(g, 2)
        idx = {lab: k for k, lab in enumerate(g2.labels)}
        # differs in one coordinate by an edge, other coordinate equal
        assert g2.is_edge(idx["(v0,v0)"], idx["(v0,v1)"])
        # both coordinates move along edges
        assert g2.is_edge(idx["(v0,v0)"], idx["(v1,v1)"])
        # second coordinate jumps a non-edge, so the pair is distinguishable
        assert not g2.is_edge(idx["(v0,v0)"], idx["(v0,v2)"])

    def test_rejects_non_positive_power(self):
        with pytest.raises(InvalidParameter):
            strong_product(pentagon_graph(), 0)

    @pytest.mark.parametrize("n", [7, 8])
    def test_vertex_budget_enforced(self, n):
        with pytest.raises(TooLarge, match=f"{5**n} vertices exceeds the strong-product limit 20000"):
            strong_product(pentagon_graph(), n)

    @pytest.mark.parametrize("base,n", [
        ("pentagon", 2), ("pentagon", 3), ("bit_flip", 2), ("dephasing", 3),
    ])
    def test_edges_match_the_definition_in_order(self, base, n):
        # vertex order is itertools.product's, edges are (i, j) pairs with i < j in row order
        g = pentagon_graph() if base == "pentagon" else pauli_graph(base)
        tuples = list(itertools.product(range(g.vertex_count), repeat=n))
        expected = [
            [i, j] for i, j in itertools.combinations(range(len(tuples)), 2)
            if all(a == b or g.is_edge(a, b) for a, b in zip(tuples[i], tuples[j]))
        ]
        out = graph_to_json(strong_product(g, n))
        assert out["edges"] == expected
        assert out["labels"] == ["(" + ",".join(g.labels[k] for k in t) + ")" for t in tuples]

    def test_many_uses_refused_without_forming_the_power(self):
        with pytest.raises(TooLarge, match=r"5\^10000 vertices exceeds the strong-product limit"):
            strong_product(pentagon_graph(), 10_000)
        with pytest.raises(TooLarge, match=r"5\^10000 vertices exceeds the exact-search limit 130"):
            zero_error_lower_bound(pentagon_graph(), 10_000)


class TestMaxIndependentSet:
    def test_empty_graph_takes_all_vertices(self):
        size, witness = max_independent_set(empty_graph(4))
        assert size == 4
        assert sorted(witness) == [0, 1, 2, 3]

    def test_complete_graph_takes_one(self):
        size, _ = max_independent_set(complete_graph(5))
        assert size == 1

    def test_pentagon_packs_two(self):
        size, witness = max_independent_set(pentagon_graph())
        assert size == 2
        i, j = witness
        assert not pentagon_graph().is_edge(i, j)

    def test_pentagon_square_packs_five(self):
        g2 = strong_product(pentagon_graph(), 2)
        size, witness = max_independent_set(g2)
        assert size == 5
        for a in witness:
            for b in witness:
                if a != b:
                    assert not g2.is_edge(a, b)

    def test_vertex_limit_enforced(self):
        with pytest.raises(TooLarge):
            max_independent_set(empty_graph(131))

    def test_at_least_product_of_factors(self, rng):
        # packing never loses by blocking codewords coordinatewise
        for _ in range(5):
            adj = rng.random((6, 6)) < 0.4
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            g = ConfusabilityGraph([f"u{k}" for k in range(6)], adj)
            a1, _ = max_independent_set(g)
            a2, _ = max_independent_set(strong_product(g, 2))
            assert a2 >= a1 * a1


class TestLowerBound:
    def test_pentagon_single_use(self):
        rep = zero_error_lower_bound(pentagon_graph(), 1)
        assert (rep.n, rep.K) == (1, 2)
        assert np.isclose(rep.rate, 1.0)
        assert len(rep.witness) == 2

    def test_pentagon_two_uses_beats_single_use(self):
        rep = zero_error_lower_bound(pentagon_graph(), 2)
        assert rep.K == 5
        assert np.isclose(rep.rate, 1.160964047443681, atol=1e-12)

    def test_pentagon_three_uses(self):
        rep = zero_error_lower_bound(pentagon_graph(), 3)
        assert rep.K == 10
        assert np.isclose(rep.rate, math.log2(10) / 3, atol=1e-12)

    def test_edgeless_alphabet_rate_is_log_size(self):
        rep = zero_error_lower_bound(empty_graph(3), 2)
        assert rep.K == 9
        assert np.isclose(rep.rate, math.log2(3), atol=1e-12)

    def test_bit_flip_keeps_one_noiseless_bit(self):
        g = confusability_graph(make_channel("bit_flip", p=0.3))
        rep = zero_error_lower_bound(g, 1)
        assert rep.K == 2
        assert set(rep.witness) == {"+x", "-x"}

    def test_complete_confusability_sends_nothing(self):
        g = confusability_graph(make_channel("depolarizing", p=1.0))
        rep = zero_error_lower_bound(g, 1)
        assert rep.K == 1
        assert rep.rate == 0.0

    def test_capacity_ordering_recorded(self):
        held = zero_error_lower_bound(pentagon_graph(), 2, hsw_upper=1.2)
        assert any("holds" in note for note in held.notes)
        broken = zero_error_lower_bound(pentagon_graph(), 2, hsw_upper=1.0)
        assert any("violated" in note for note in broken.notes)

    def test_rejects_non_positive_uses(self):
        with pytest.raises(InvalidParameter):
            zero_error_lower_bound(pentagon_graph(), 0)

    @pytest.mark.parametrize("hsw_upper", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_capacity(self, hsw_upper):
        # nan once recorded "ordering violated" and inf "ordering holds"
        with pytest.raises(InvalidParameter, match="hsw_upper must be finite"):
            zero_error_lower_bound(pentagon_graph(), 2, hsw_upper=hsw_upper)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_a_graph_without_vertices(self, n):
        # the constructor accepts one: the symmetric search builds it on complete bases
        with pytest.raises(InvalidParameter, match="no vertices"):
            zero_error_lower_bound(empty_graph(0), n)

    def test_refuses_before_building_the_power(self, monkeypatch):
        # 6^5 = 7776 vertices: the dense power alone would take about 230 MB
        g = confusability_graph(make_channel("dephasing", p=0.3))

        def unexpected(*args):
            raise AssertionError("strong_product called for a refused request")

        monkeypatch.setattr(zero_error, "strong_product", unexpected)
        with pytest.raises(TooLarge, match="7776 vertices exceeds the exact-search limit 130"):
            zero_error_lower_bound(g, 5)


class TestGraphJson:
    def test_round_trip(self):
        g = pentagon_graph()
        back = graph_from_json(graph_to_json(g))
        assert back.labels == g.labels
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_rejects_missing_labels(self):
        with pytest.raises(InvalidParameter):
            graph_from_json({"edges": []})

    def test_rejects_repeated_labels(self):
        # accepted, a 2-use report read K = 4 with the witness ('(a,a)',) * 4
        with pytest.raises(InvalidParameter, match="label 'a' is repeated"):
            graph_from_json({"labels": ["a", "a", "b"], "edges": [[0, 2]]})

    def test_labels_repeated_once_stringified_are_refused(self):
        with pytest.raises(InvalidParameter, match="label '1' is repeated"):
            graph_from_json({"labels": [1, "1"], "edges": []})

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidParameter):
            graph_from_json({"labels": ["a", "b"], "edges": [[0, 2]]})

    def test_rejects_self_loop_edge(self):
        with pytest.raises(InvalidParameter):
            graph_from_json({"labels": ["a", "b"], "edges": [[1, 1]]})

    @pytest.mark.parametrize("data", [
        {"labels": ["a", "b"], "edges": [["x", 1]]},
        {"labels": ["a", "b"], "edges": [[0]]},
        {"labels": ["a", "b"], "edges": [[0, 1, 1]]},
        {"labels": ["a", "b"], "edges": [[0, 1.7]]},
        {"labels": ["a", "b"], "edges": [[0, 1.0]]},
        {"labels": ["a", "b"], "edges": [[0, True]]},
        {"labels": ["a", "b"], "edges": [[0, None]]},
        {"labels": ["a", "b"], "edges": [7]},
        {"labels": ["a", "b"], "edges": 7},
        {"labels": ["a", "b"], "edges": {"0": 1}},
        {"labels": 5},
        {"labels": "ab"},
        {"labels": []},
        ["a", "b"],
        "graph",
        None,
    ])
    def test_rejects_malformed_input(self, data):
        with pytest.raises(InvalidParameter):
            graph_from_json(data)


class TestVertexTransitive:
    @pytest.mark.parametrize("g", [
        cycle_graph(5), cycle_graph(11), petersen_graph(), complete_graph(6), empty_graph(4),
        pauli_graph("depolarizing"), pauli_graph("identity"),
    ], ids=["C5", "C11", "petersen", "K6", "edgeless", "depolarizing", "identity"])
    def test_transitive_graphs(self, g):
        assert zero_error._vertex_transitive(g)

    def test_path_is_not_transitive(self):
        assert not zero_error._vertex_transitive(graph_of_edges(3, [(0, 1), (1, 2)]))

    def test_bit_flip_graph_is_not_transitive(self):
        assert not zero_error._vertex_transitive(pauli_graph("bit_flip"))

    def test_regular_graph_that_is_not_transitive(self):
        # cubic, so a degree filter passes every vertex, but vertex 1 lies on
        # two triangles, (0,1,2) and (1,2,3), and vertex 0 on one only
        chords = [(0, 2), (1, 3), (4, 6), (5, 7)]
        g = graph_of_edges(8, [(i, (i + 1) % 8) for i in range(8)] + chords)
        assert all(g.degree(v) == 3 for v in range(8))
        assert not zero_error._vertex_transitive(g)


def stabilizer_orbits_off_zero(g, n):
    """G^n and the orbits the search uses, as sorted vertex lists over vertex 0's non-neighbours."""
    g_n = strong_product(g, n)
    orbits = zero_error._stabilizer_orbits(g, n)
    within = [v for v in range(1, g_n.vertex_count) if not g_n.is_edge(0, v)]
    return g_n, sorted({tuple(zero_error._bits(orbits[v])) for v in within})


class TestStabilizerOrbits:
    def test_automorphism_keeps_pins_and_edges(self):
        g = petersen_graph()
        images = zero_error._automorphism(g.masks, {0: 0, 1: 4})
        assert images[0] == 0 and images[1] == 4
        perm = [images[v] for v in range(10)]
        assert sorted(perm) == list(range(10))
        adj = g.adjacency
        assert np.array_equal(adj[np.ix_(perm, perm)], adj)

    def test_automorphism_refuses_impossible_pins(self):
        path = graph_of_edges(3, [(0, 1), (1, 2)])
        assert zero_error._automorphism(path.masks, {0: 1}) is None
        assert zero_error._automorphism(path.masks, {0: 2}) == {0: 2, 1: 1, 2: 0}

    def test_pentagon_square_orbit_sizes(self):
        # (v0,v0)'s 16 non-neighbours: a coordinate 2 or 3 away next to 0, 1 away, or 2 away
        _, orbits = stabilizer_orbits_off_zero(pentagon_graph(), 2)
        assert sorted(len(o) for o in orbits) == [4, 4, 8]

    def test_pentagon_cube_has_six_orbits(self):
        g3, orbits = stabilizer_orbits_off_zero(pentagon_graph(), 3)
        assert len(orbits) == 6
        assert sum(len(o) for o in orbits) == 98 == 124 - g3.degree(0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_mates_are_joined_by_automorphisms_fixing_zero(self, n):
        # joining every member to its orbit's first one joins every pair, by composition
        g_n, orbits = stabilizer_orbits_off_zero(pentagon_graph(), n)
        adj = g_n.adjacency
        for orbit in orbits:
            for w in orbit:
                images = zero_error._automorphism(g_n.masks, {0: 0, orbit[0]: w})
                perm = [images[v] for v in range(g_n.vertex_count)]
                assert perm[0] == 0 and perm[orbit[0]] == w
                assert np.array_equal(adj[np.ix_(perm, perm)], adj)

    def test_each_vertex_alone_on_a_rigid_fix(self):
        # the path's only automorphism fixing vertex 0 is the identity
        path = graph_of_edges(3, [(0, 1), (1, 2)])
        assert zero_error._stabilizer_orbits(path, 1) == [1, 2, 4]


class TestSymmetricSearch:
    @pytest.mark.parametrize("g", [
        cycle_graph(5), cycle_graph(7), cycle_graph(9), complete_graph(3), empty_graph(3),
        complete_graph(4), pauli_graph("depolarizing"), pauli_graph("identity"),
    ], ids=["C5", "C7", "C9", "K3", "edgeless", "complete", "depolarizing", "identity"])
    def test_same_alpha_as_the_full_search(self, g):
        rep = zero_error_lower_bound(g, 2)
        g2 = strong_product(g, 2)
        assert rep.K == max_independent_set(g2)[0]
        assert len(rep.witness) == rep.K
        assert rep.witness[0] == g2.labels[0]
        assert_independent_in(g2, rep.witness)
        assert f"vertex-transitive base: {g2.labels[0]} fixed" in rep.notes

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_odd_cycle_squares(self, m):
        k = m // 2
        assert zero_error_lower_bound(cycle_graph(m), 2).K == k * m // 2

    def test_petersen_square(self):
        rep = zero_error_lower_bound(petersen_graph(), 2)
        assert rep.K == 16
        assert_independent_in(strong_product(petersen_graph(), 2), rep.witness)

    def test_pentagon_cube_node_budget(self):
        # the full search expands 717,637 nodes; fixing vertex 0 about 60,000
        rep = zero_error_lower_bound(pentagon_graph(), 3)
        assert rep.K == 10
        assert 0 < rep.nodes <= 100_000

    def test_pentagon_cube_orbit_pruned_budget(self):
        # one root branch per orbit of (v0,v0,v0)'s stabilizer: 5,882 nodes against 60,326
        rep = zero_error_lower_bound(pentagon_graph(), 3)
        assert rep.K == 10
        assert 0 < rep.nodes <= 10_000

    @pytest.mark.parametrize("g, n", [
        (circulant_graph(7, (1, 2)), 2), (circulant_graph(8, (1, 4)), 2),
        (circulant_graph(9, (1, 3)), 2), (circulant_graph(10, (1, 4)), 2), (rook_graph(), 2),
        (circulant_graph(4, (1,)), 3), (circulant_graph(4, (2,)), 3),
    ], ids=["C7(1,2)", "C8(1,4)", "C9(1,3)", "C10(1,4)", "K3xK3", "C4^3", "2K2^3"])
    def test_orbit_pruning_matches_the_whole_power(self, g, n):
        rep = zero_error_lower_bound(g, n)
        g_n = strong_product(g, n)
        assert any("vertex-transitive" in note for note in rep.notes)
        assert rep.K == max_independent_set(g_n)[0]
        assert rep.witness[0] == g_n.labels[0] and len(rep.witness) == rep.K
        assert_independent_in(g_n, rep.witness)

    @pytest.mark.parametrize("g, n", [(petersen_graph(), 2), (pentagon_graph(), 3)], ids=["petersen^2", "C5^3"])
    def test_orbit_pruning_matches_the_unpruned_search(self, g, n):
        # the whole-power searches take 2 s and 4 s; vertex 0 fixed without
        # pruning finds the same alpha, as the transitive bases above show
        rep = zero_error_lower_bound(g, n)
        g_n = strong_product(g, n)
        alpha, _, nodes = zero_error._search(g_n, ~g_n.masks[0] & ~1)
        assert rep.K == alpha + 1
        assert rep.nodes < nodes
        assert rep.witness[0] == g_n.labels[0]
        assert_independent_in(g_n, rep.witness)

    @pytest.mark.parametrize("g, n", [(petersen_graph(), 2), (pentagon_graph(), 3)], ids=["petersen^2", "C5^3"])
    def test_reruns_give_identical_reports(self, g, n):
        assert repr(zero_error_lower_bound(g, n)) == repr(zero_error_lower_bound(g, n))

    def test_single_use_searches_the_whole_graph(self):
        rep = zero_error_lower_bound(pentagon_graph(), 1)
        assert rep.nodes > 0
        assert not any("vertex-transitive" in note for note in rep.notes)

    def test_bit_flip_takes_the_plain_path(self):
        g = pauli_graph("bit_flip")
        rep = zero_error_lower_bound(g, 2)
        assert rep.K == max_independent_set(strong_product(g, 2))[0] == 4
        assert not any("vertex-transitive" in note for note in rep.notes)

    def test_random_bases_take_the_plain_path(self, rng):
        # the draws of test_at_least_product_of_factors, none of them transitive
        for _ in range(5):
            adj = rng.random((6, 6)) < 0.4
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            g = ConfusabilityGraph([f"u{k}" for k in range(6)], adj)
            g2 = strong_product(g, 2)
            rep = zero_error_lower_bound(g, 2)
            assert rep.K == max_independent_set(g2)[0]
            assert_independent_in(g2, rep.witness)
            assert not any("vertex-transitive" in note for note in rep.notes)
