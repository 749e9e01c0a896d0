import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigaug as sg
from sigaug.balance import DISCARD, KEEP

from augment_reference import edge_utility, reference_pair_utility
from conftest import random_signed_graph


def counts_equal(a, b):
    return all(
        (a.cb[k] != b.cb[k]).nnz == 0
        and (a.cu[k] != b.cu[k]).nnz == 0
        and (a.c[k] != b.c[k]).nnz == 0
        for k in range(3, a.eta + 1)
    )


UNBALANCED_TRI = [(0, 1, 1), (1, 2, 1), (0, 2, -1)]
BALANCED_TRI = [(0, 1, 1), (1, 2, -1), (0, 2, -1)]


def hub_graph():
    """Node 0 joined by both signs to the 24 nodes 1..24, each of degree 3: pairs
    of them close triangles through 0, and each also meets one of the nodes
    25..29, which closes 4-cycles through 0. Every negative edge of 0 has the
    lower-degree endpoint as its v."""
    edges = [(0, v, -1 if v % 3 == 0 else 1) for v in range(1, 25)]
    edges += [(v, v + 1, -1 if v % 4 == 1 else 1) for v in range(1, 25, 2)]
    edges += [(v, 25 + v % 5, -1 if v % 7 == 0 else 1) for v in range(1, 25)]
    return sg.SignedGraph(30, edges)


class TestCountCycles:
    def test_unbalanced_triangle_negative_edge(self):
        counts = sg.count_cycles(*sg.split_adjacency(sg.SignedGraph(3, UNBALANCED_TRI)), 3)
        assert counts.cb[3][0, 2] == 0 and counts.cu[3][0, 2] == 1

    def test_balanced_triangle_negative_edge(self):
        counts = sg.count_cycles(*sg.split_adjacency(sg.SignedGraph(3, BALANCED_TRI)), 3)
        assert counts.cb[3][1, 2] == 1 and counts.cu[3][1, 2] == 0

    def test_edgeless(self):
        counts = sg.count_cycles(*sg.split_adjacency(sg.SignedGraph(5)), 4)
        for k in (3, 4):
            assert counts.c[k].nnz == 0

    def test_dimension_mismatch(self):
        apos, _ = sg.split_adjacency(sg.SignedGraph(3, UNBALANCED_TRI))
        _, aneg = sg.split_adjacency(sg.SignedGraph(4))
        with pytest.raises(ValueError, match="shape"):
            sg.count_cycles(apos, aneg, 3)

    def test_eta_guardrail(self):
        apos, aneg = sg.split_adjacency(sg.SignedGraph(3, UNBALANCED_TRI))
        for eta in (2, 7, 3.5):
            with pytest.raises(ValueError, match="eta"):
                sg.count_cycles(apos, aneg, eta)

    def test_asymmetric_rejected(self):
        bad = np.zeros((3, 3), dtype=np.int64)
        bad[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            sg.count_cycles(bad, np.zeros((3, 3), dtype=np.int64), 3)

    def test_overlapping_supports_rejected(self):
        m = np.zeros((3, 3), dtype=np.int64)
        m[0, 1] = m[1, 0] = 1
        with pytest.raises(ValueError, match="overlap"):
            sg.count_cycles(m, m, 3)

    def test_all_positive_base_case(self):
        # with no negative edges the odd-walk matrix vanishes and the even one
        # is exactly the squared adjacency
        rng = np.random.default_rng(7)
        g = random_signed_graph(rng, 10, 0.4, 0.0)
        apos, aneg = sg.split_adjacency(g)
        counts = sg.count_cycles(apos, aneg, 3)
        assert counts.cb[3].nnz == 0
        dense = apos.toarray()
        assert np.array_equal(counts.cu[3].toarray(), dense @ dense)

    def test_sum_identity_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_signed_graph(rng, 10, 0.4, 0.4)
            counts = sg.count_cycles(*sg.split_adjacency(g), 4)
            for k in (3, 4):
                assert ((counts.cb[k] + counts.cu[k]) != counts.c[k]).nnz == 0
                assert (counts.cb[k] != counts.cb[k].T).nnz == 0
                assert (counts.cu[k] != counts.cu[k].T).nnz == 0

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(3, 13))
            g = random_signed_graph(rng, n, float(rng.choice([0.1, 0.3, 0.5])),
                                    float(rng.choice([0.1, 0.3, 0.5])))
            eta = int(rng.choice([3, 4]))
            assert counts_equal(sg.count_cycles(*sg.split_adjacency(g), eta),
                                sg.oracle_count_cycles(g, eta))


class TestOracle:
    def test_refuses_large_graphs(self):
        with pytest.raises(ValueError, match="refuses"):
            sg.oracle_count_cycles(sg.SignedGraph(15), 3)

    def test_four_cycle_values(self):
        # 4-cycle 0-1-2-3-0 with signs (+,+,+,-) on consecutive edges
        c4 = sg.SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)])
        counts = sg.oracle_count_cycles(c4, 4)
        assert counts.cb[4][0, 3] == 3 and counts.cu[4][0, 3] == 1
        assert counts.cb[3][0, 3] == 0 and counts.cu[3][0, 3] == 0
        assert counts_equal(counts, sg.count_cycles(*sg.split_adjacency(c4), 4))

    def test_empty_graph(self):
        counts = sg.oracle_count_cycles(sg.SignedGraph(4), 4)
        assert all(counts.c[k].nnz == 0 for k in (3, 4))


class TestEdgeUtility:
    def test_balanced_only_edge(self):
        counts = sg.count_cycles(*sg.split_adjacency(sg.SignedGraph(3, BALANCED_TRI)), 4)
        assert edge_utility(counts, 1, 2) == 1.0

    def test_unbalanced_only_edge(self):
        counts = sg.count_cycles(*sg.split_adjacency(sg.SignedGraph(3, UNBALANCED_TRI)), 3)
        assert edge_utility(counts, 0, 2) == 0.0

    def test_isolated_edge_undefined_at_eta3(self):
        g = sg.SignedGraph(4, [(0, 1, -1), (2, 3, 1)])
        counts = sg.count_cycles(*sg.split_adjacency(g), 3)
        assert edge_utility(counts, 0, 1) is None

    def test_isolated_edge_degenerate_walk_at_eta4(self):
        # walk semantics: at length 4 the edge closes over its own
        # back-and-forth walk (odd sign for a negative edge)
        g = sg.SignedGraph(4, [(0, 1, -1), (2, 3, 1)])
        counts = sg.count_cycles(*sg.split_adjacency(g), 4)
        assert edge_utility(counts, 0, 1) == 1.0
        assert counts_equal(counts, sg.oracle_count_cycles(g, 4))

    def test_range(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_signed_graph(rng, 9, 0.5, 0.4)
            counts = sg.count_cycles(*sg.split_adjacency(g), 4)
            for u, v, _s in g.edges():
                util = edge_utility(counts, u, v)
                assert util is None or 0.0 <= util <= 1.0


class TestFilterEdge:
    def test_threshold_rule(self):
        assert sg.filter_edge(0.8, 0.7) == KEEP
        assert sg.filter_edge(0.3, 0.7) == DISCARD
        assert sg.filter_edge(0.7, 0.7) == KEEP

    def test_undefined_kept(self):
        assert sg.filter_edge(None, 0.7) == KEEP

    def test_mu_range(self):
        for mu in (-0.1, 0.91, 1.5):
            with pytest.raises(ValueError):
                sg.filter_edge(0.5, mu)

    def test_monotone_in_mu(self):
        # raising mu never converts a discard into a keep
        rng = np.random.default_rng(19)
        for _ in range(200):
            util = None if rng.random() < 0.2 else float(rng.random())
            lo, hi = sorted(rng.uniform(0, 0.9, size=2))
            if sg.filter_edge(util, lo) == DISCARD:
                assert sg.filter_edge(util, hi) == DISCARD


class TestPairUtility:
    def test_matches_matrix_entry(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = random_signed_graph(rng, 10, 0.4, 0.4)
            counts = sg.count_cycles(*sg.split_adjacency(g), 4)
            pos_adj = [set(g.pos_neighbors(u)) for u in range(g.n)]
            neg_adj = [set(g.neg_neighbors(u)) for u in range(g.n)]
            for _ in range(10):
                u, v = rng.choice(g.n, size=2, replace=False)
                assert sg.pair_utility(pos_adj, neg_adj, int(u), int(v), 4) == \
                    edge_utility(counts, int(u), int(v))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), density=st.floats(0.0, 0.5),
           neg=st.floats(0.0, 1.0), isolate=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_frontier_walk_and_count_matrices(self, seed, n, density, neg, isolate):
        # every ordered pair: edges and non-edges; node 0 isolated on request, and
        # density 0 leaves every frontier empty
        g = random_signed_graph(np.random.default_rng(seed), n, density, neg)
        if isolate:
            g = sg.SignedGraph(n, [(u, v, s) for u, v, s in g.edges() if u != 0])
        pos_adj = [set(g.pos_neighbors(u)) for u in range(n)]
        neg_adj = [set(g.neg_neighbors(u)) for u in range(n)]
        for eta in range(3, 7):
            counts = sg.count_cycles(*sg.split_adjacency(g), eta)
            oracle = sg.oracle_count_cycles(g, eta)
            for u in range(n):
                for v in range(n):
                    if u != v:
                        # chained == also requires None in the same places
                        assert sg.pair_utility(pos_adj, neg_adj, u, v, eta) == \
                            reference_pair_utility(pos_adj, neg_adj, u, v, eta) == \
                            edge_utility(counts, u, v) == edge_utility(oracle, u, v), \
                            (eta, u, v)

    def test_hub_pairs_in_both_orientations(self):
        # pairs of the hub and a low-degree node, with their edge present and absent
        g = hub_graph()
        graphs = [(g, range(1, 30))] + [
            (sg.SignedGraph(30, [e for e in g.edges() if e[:2] != (0, v)]), [v])
            for v in range(1, 25)]
        for h, others in graphs:
            pos_adj = [set(h.pos_neighbors(u)) for u in range(h.n)]
            neg_adj = [set(h.neg_neighbors(u)) for u in range(h.n)]
            for eta in range(3, 7):
                counts = sg.count_cycles(*sg.split_adjacency(h), eta)
                for v in others:
                    assert sg.pair_utility(pos_adj, neg_adj, 0, v, eta) == \
                        sg.pair_utility(pos_adj, neg_adj, v, 0, eta) == \
                        edge_utility(counts, 0, v), (eta, v, h.num_edges)

    def test_eta_guardrail(self):
        with pytest.raises(ValueError):
            sg.pair_utility([set()], [set()], 0, 0, 2)


class TestComputeUtilities:
    def test_scores_negative_edges(self):
        g = sg.SignedGraph(3, BALANCED_TRI)
        scores = sg.compute_utilities(g, eta=4, mu=0.7)
        assert set(scores.scores) == {(1, 2), (0, 2)}
        assert scores.kept == 2 and scores.discarded == 0

    def test_flags_zero_cycle_edges(self):
        g = sg.SignedGraph(4, [(0, 1, -1), (2, 3, 1)])
        scores = sg.compute_utilities(g, eta=3, mu=0.7)
        assert scores.undefined == 1 and scores.scores[(0, 1)] is None
        assert sg.filter_edge(scores.scores[(0, 1)], scores.mu) == KEEP

    @staticmethod
    def assert_matches_count_matrices(g, eta):
        counts = sg.count_cycles(*sg.split_adjacency(g), eta)
        expected = [((u, v), edge_utility(counts, u, v)) for u, v, s in g.edges() if s < 0]
        # list equality checks the edge order and the None places too
        assert list(sg.compute_utilities(g, eta).scores.items()) == expected

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14), density=st.floats(0.0, 0.6),
           neg=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_count_matrices(self, seed, n, density, neg):
        g = random_signed_graph(np.random.default_rng(seed), n, density, neg)
        for eta in range(3, 7):
            self.assert_matches_count_matrices(g, eta)

    @pytest.mark.parametrize("eta", range(3, 7))
    def test_matches_count_matrices_on_congress(self, congress_graph, eta):
        self.assert_matches_count_matrices(congress_graph, eta)

    @pytest.mark.parametrize("eta", range(3, 7))
    def test_matches_count_matrices_on_hub_graph(self, eta):
        # u's walk counts are reused along the hub's run of edges, whose v is
        # the endpoint of lower degree
        self.assert_matches_count_matrices(hub_graph(), eta)

    def test_eta_checked_without_negative_edges(self):
        with pytest.raises(ValueError, match="eta"):
            sg.compute_utilities(sg.SignedGraph(3, [(0, 1, 1)]), eta=7)


class TestExpectedEntropy:
    def test_delta_zero_returns_entropy(self):
        p = np.full(4, 0.25)
        assert sg.expected_entropy_after_perturbation(p, 0.0) == pytest.approx(math.log(4))

    def test_uniform_four_half(self):
        # -0.5 log 0.5 + 0.5 * sum(-0.25 log(0.5 * 0.25)) = log 4 exactly
        p = np.full(4, 0.25)
        value = sg.expected_entropy_after_perturbation(p, 0.5)
        assert value == pytest.approx(math.log(4), abs=1e-12)

    def test_inequality_for_uniform(self):
        for m in (2, 3, 4):
            p = np.full(m, 1.0 / m)
            h = -float(np.sum(p * np.log(p)))
            for delta in (0.1, 0.2, 0.3, 0.4, 0.5):
                assert sg.expected_entropy_after_perturbation(p, delta) >= h - 1e-12

    def test_delta_range(self):
        p = np.full(2, 0.5)
        for delta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                sg.expected_entropy_after_perturbation(p, delta)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            sg.expected_entropy_after_perturbation([0.5, 0.2], 0.1)

    @given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.01, max_value=0.4))
    @settings(max_examples=30, deadline=None)
    def test_zero_mass_entries_ignored(self, m, delta):
        p = np.zeros(m + 1)
        p[:m] = 1.0 / m
        with_zero = sg.expected_entropy_after_perturbation(p, delta)
        without = sg.expected_entropy_after_perturbation(p[:m], delta)
        assert with_zero == pytest.approx(without, abs=1e-12)
