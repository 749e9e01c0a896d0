import importlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sigaug as sg
from sigaug.augment import (_FIRST_CHUNK, _ROW_BLOCK, _SLOTS, ADD, NOT_GATED,
                            AugmentationState, LogEntry, PerturbationLog,
                            ProbabilityMatrices, _block_best, _blocks, _propensity_rows,
                            _ranked_pairs, edge_probabilities, fuse)
from sigaug.balance import DISCARD, KEEP
from sigaug.graph import neighbor_sets

from augment_reference import (observed_augment, reference_augment, reference_block_best,
                               reference_pair_utility, working_set_union)
from conftest import random_signed_graph
from graph_reference import reference_of, split_adjacency

# a value below every score, for the hand-built matrices' unread entries
DIAG_SENTINEL = -1e30


def matrix_rows(probs):
    """Hand-built matrices as a propensity block source: rows(sign, r0, r1)."""
    return lambda sign, r0, r1: (probs.mpos if sign > 0 else probs.mneg)[r0:r1]


def trained_pair(g, seed=0, epochs=30):
    cfg = sg.TrainConfig(epochs=epochs, embed_dim=8, feature_dim=6, seed=seed)
    return sg.train(g, cfg).embeddings


def signed_graph_with_both(seed, n=20, density=0.25, neg=0.3):
    rng = np.random.default_rng(seed)
    g = random_signed_graph(rng, n, density, neg)
    while g.num_pos < 2 or g.num_neg < 2:
        g = random_signed_graph(rng, n, density, neg)
    return g


class TestEdgeProbabilities:
    def test_identical_negative_rows(self):
        zneg = np.tile(np.array([1.0, 2.0]), (3, 1))
        pair = sg.EmbeddingPair(np.eye(3, 2), zneg)
        probs = edge_probabilities(pair)
        assert probs.mneg[0, 1] == pytest.approx(1.0)

    def test_orthogonal_positive_rows(self):
        zpos = np.array([[1.0, 0.0], [0.0, 1.0]])
        pair = sg.EmbeddingPair(zpos, np.ones((2, 2)))
        probs = edge_probabilities(pair)
        assert probs.mpos[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_negative_rows(self):
        zneg = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pair = sg.EmbeddingPair(np.ones((2, 2)), zneg)
        probs = edge_probabilities(pair)
        # the reciprocal keeps the sign: ranked below small positive values,
        # which is the documented anomaly of the formula
        assert probs.mneg[0, 1] == pytest.approx(-1.0)

    def test_symmetric_and_finite(self):
        rng = np.random.default_rng(1)
        pair = sg.EmbeddingPair(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
        probs = edge_probabilities(pair)
        assert np.array_equal(probs.mpos, probs.mpos.T)
        assert np.array_equal(probs.mneg, probs.mneg.T)
        assert np.all(np.isfinite(probs.mpos)) and np.all(np.isfinite(probs.mneg))

    def test_zero_norm_row_guarded(self, caplog):
        zneg = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pair = sg.EmbeddingPair(np.ones((3, 2)), zneg)
        with caplog.at_level("WARNING"):
            probs = edge_probabilities(pair)
        assert "zero-norm" in caplog.text
        assert np.all(np.isfinite(probs.mneg))
        # guarded reciprocal of a zero similarity
        assert probs.mneg[0, 1] == pytest.approx(1e8)

    def test_tiny_similarities_clamped_with_their_sign(self):
        zneg = np.array([[1.0, 0.0], [0.0, -1.0], [-1e-9, 1.0], [1e-9, 1.0]])
        probs = edge_probabilities(sg.EmbeddingPair(np.ones((4, 2)), zneg))
        assert probs.mneg[0, 1] == 1e8
        assert probs.mneg[0, 2] == -1e8
        assert probs.mneg[0, 3] == 1e8

    def test_huge_finite_row_scores_like_its_direction(self):
        # the squared norm of (1e200, 1e200) overflows; the row must not turn into zeros
        rng = np.random.default_rng(5)
        rest = rng.normal(size=(4, 2))
        huge = edge_probabilities(sg.EmbeddingPair(np.vstack(([1e200, 1e200], rest)),
                                                   np.vstack(([1e200, 1e200], rest))))
        unit = edge_probabilities(sg.EmbeddingPair(np.vstack(([1.0, 1.0], rest)),
                                                   np.vstack(([1.0, 1.0], rest))))
        for got, want in ((huge.mpos, unit.mpos), (huge.mneg, unit.mneg)):
            assert np.allclose(got, want, rtol=1e-15, atol=1e-15)
            assert np.array_equal(got[1:, 1:], want[1:, 1:])  # other rows keep their bits


class TestPropensityRows:
    """The lazy row blocks against the dense matrices, bit for bit."""

    @staticmethod
    def special_pair(n, d=4):
        z = np.random.default_rng(n).normal(size=(2, n, d))
        for zb in z:
            zb[0] = 0.0  # zero-norm row
            if n > 2:
                zb[1] = [1.0, 0.0, 0.0, 0.0]
                zb[2] = [-1e-9, 1.0, 0.0, 0.0]  # its similarity with row 1 is clamped
            if n > 3:
                zb[n - 1] = 1e200  # the squared norm overflows
        return sg.EmbeddingPair(z[0], z[1])

    @pytest.mark.parametrize("n", [1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                   2 * _ROW_BLOCK + 37])
    def test_every_upper_pair_equals_edge_probabilities(self, n):
        pair = self.special_pair(n)
        probs = edge_probabilities(pair)
        rows = _propensity_rows(pair)
        for sign, m in ((1, probs.mpos), (-1, probs.mneg)):
            for r0 in range(0, n, _ROW_BLOCK):
                r1 = min(r0 + _ROW_BLOCK, n)
                block = rows(sign, r0, r1)
                assert block.shape == (r1 - r0, n)
                upper = np.arange(n) > np.arange(r0, r1)[:, None]
                assert np.array_equal(block[upper], m[r0:r1][upper])
                assert np.array_equal(block[upper], m.T[r0:r1][upper])
        if n > 2:
            assert probs.mneg[1, 2] == -1e8 and probs.mneg[0, 1] == 1e8


class TestEdgeProbabilitiesMemory:
    def test_peak_near_the_two_results(self):
        # computing the reciprocal guard on copies of Zn Zn^T while mpos is alive
        # peaks at 2.1x the two n x n results (34 MB here); in place, at 1.1x
        rng = np.random.default_rng(0)
        n = 1000
        pair = sg.EmbeddingPair(*rng.normal(size=(2, n, 64)))
        tracemalloc.start()
        try:
            probs = edge_probabilities(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * (probs.mpos.nbytes + probs.mneg.nbytes)


class TestFuse:
    @pytest.mark.parametrize("ap,an,rel,expected", [
        (0, 0, "gt", 0), (0, 0, "lt", 0), (0, 0, "eq", 0),
        (1, 0, "gt", 1), (1, 0, "lt", 1), (1, 0, "eq", 1),
        (0, -1, "gt", -1), (0, -1, "lt", -1), (0, -1, "eq", -1),
        (1, -1, "gt", 1), (1, -1, "lt", -1), (1, -1, "eq", -1),
    ])
    def test_case_table(self, ap, an, rel, expected):
        apos = np.zeros((2, 2), dtype=np.int64)
        aneg = np.zeros((2, 2), dtype=np.int64)
        apos[0, 1] = apos[1, 0] = ap
        aneg[0, 1] = aneg[1, 0] = an
        mp = {"gt": 0.9, "lt": 0.2, "eq": 0.5}[rel]
        probs = ProbabilityMatrices(np.full((2, 2), mp), np.full((2, 2), 0.5))
        fused = fuse(apos, aneg, probs)
        assert reference_of(fused).sign(0, 1) == expected

    def test_asymmetric_rejected(self):
        apos = np.zeros((2, 2), dtype=np.int64)
        apos[0, 1] = 1
        probs = ProbabilityMatrices(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            fuse(apos, np.zeros((2, 2), dtype=np.int64), probs)

    def test_idempotent_on_disjoint_fused_output(self):
        g = signed_graph_with_both(3)
        pair = trained_pair(g, epochs=5)
        probs = edge_probabilities(pair)
        apos, aneg = split_adjacency(g)
        fused = fuse(apos, -aneg, probs)
        fp, fn = split_adjacency(fused)
        assert fuse(fp, -fn, probs) == fused


class TestEprCheck:
    @staticmethod
    def fake_log(pos_kept, neg_kept):
        log = PerturbationLog()
        for i in range(pos_kept):
            log.append(LogEntry(ADD, 1, 0, i + 1, 0.5, NOT_GATED))
        for i in range(neg_kept):
            log.append(LogEntry(ADD, -1, 1, i + 2, 0.5, KEEP))
        return log

    def test_stop_example(self):
        cfg = sg.EPRConfig(theta_target=1 / 9, delta_target=0.6, mu=0.7)
        assert sg.epr_check(self.fake_log(6, 54), cfg, 100) is True

    def test_empty_log_continues(self):
        cfg = sg.EPRConfig(theta_target=1 / 9, delta_target=0.6, mu=0.7)
        assert sg.epr_check(PerturbationLog(), cfg, 100) is False

    def test_delta_zero_stops_immediately(self):
        cfg = sg.EPRConfig(theta_target=1 / 9, delta_target=0.0, mu=0.7)
        assert sg.epr_check(PerturbationLog(), cfg, 100) is True

    def test_ratio_must_be_within_one_edge(self):
        cfg = sg.EPRConfig(theta_target=1 / 9, delta_target=0.1, mu=0.7)
        # share satisfied but ratio far off: 20 positive, 0 negative
        assert sg.epr_check(self.fake_log(20, 0), cfg, 100) is False

    def test_bad_edge_count(self):
        cfg = sg.EPRConfig(theta_target=1.0, delta_target=0.5, mu=0.7)
        with pytest.raises(ValueError):
            sg.epr_check(PerturbationLog(), cfg, 0)


class TestEPRConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sg.EPRConfig(theta_target=0.0, delta_target=0.5, mu=0.7)
        with pytest.raises(ValueError):
            sg.EPRConfig(theta_target=1.0, delta_target=1.5, mu=0.7)
        with pytest.raises(ValueError):
            sg.EPRConfig(theta_target=1.0, delta_target=0.5, mu=0.95)
        for theta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="theta must be positive and finite"):
                sg.EPRConfig(theta_target=theta, delta_target=0.5, mu=0.7)


class TestPerturbStep:
    def test_positive_add_takes_global_max(self):
        g = sg.SignedGraph(6, [(0, 1, 1), (2, 3, -1)])
        mpos = np.full((6, 6), 0.1)
        mneg = np.full((6, 6), DIAG_SENTINEL)
        mpos[2, 5] = mpos[5, 2] = 0.95  # non-edge pair with the global max
        np.fill_diagonal(mpos, DIAG_SENTINEL)
        probs = ProbabilityMatrices(mpos, mneg)
        state = AugmentationState(g, matrix_rows(probs), sg.EPRConfig(theta_target=9.0,
                                                                      delta_target=1.0, mu=0.7))
        sg.perturb_step(state)
        first = state.log.entries[0]
        assert (first.action, first.sign, first.u, first.v) == (ADD, 1, 2, 5)
        assert first.euf_verdict == NOT_GATED

    def test_unbalanced_closure_discarded(self):
        # adding a negative edge (0, 1) would close only the unbalanced
        # triangle over the positive wedge 0-2-1; node 3 gives the positive
        # add its own pair so it does not consume (0, 1) first
        g = sg.SignedGraph(4, [(0, 2, 1), (1, 2, 1)])
        mpos = np.full((4, 4), 0.1)
        mpos[2, 3] = mpos[3, 2] = 0.9
        mneg = np.full((4, 4), 0.1)
        mneg[0, 1] = mneg[1, 0] = 5.0
        np.fill_diagonal(mpos, DIAG_SENTINEL)
        np.fill_diagonal(mneg, DIAG_SENTINEL)
        probs = ProbabilityMatrices(mpos, mneg)
        state = AugmentationState(g, matrix_rows(probs), sg.EPRConfig(theta_target=1 / 9,
                                                                      delta_target=1.0, mu=0.7))
        sg.perturb_step(state)
        entry = next(e for e in state.log.entries if e.sign < 0 and e.action == ADD)
        assert (entry.u, entry.v, entry.euf_verdict) == (0, 1, DISCARD)
        assert not state.neg_adj[0] and state.log.neg_kept == 0

    def test_returns_actions_logged_then_zero(self):
        def rounds(g, theta):
            n = g.n
            mpos = np.arange(n * n, dtype=float).reshape(n, n)
            mpos = mpos + mpos.T
            mneg = mpos[::-1] + mpos[::-1].T
            np.fill_diagonal(mpos, DIAG_SENTINEL)
            np.fill_diagonal(mneg, DIAG_SENTINEL)
            state = AugmentationState(g, matrix_rows(ProbabilityMatrices(mpos, mneg)),
                                      sg.EPRConfig(theta_target=theta, delta_target=1.0,
                                                   mu=0.7))
            counts = []
            for _ in range(3):
                before = len(state.log)
                counts.append(sg.perturb_step(state))
                assert counts[-1] == len(state.log) - before
            return counts, state

        # every pool empty: the one negative edge is logged (a cycle-free keep)
        counts, _ = rounds(sg.SignedGraph(2, [(0, 1, -1)]), theta=1.0)
        assert counts == [1, 0, 0]
        # pools left, all steered away: positive removals remain, but one more
        # would push the ratio past 1/9 and no negative candidate is left
        k4 = sg.SignedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1),
                                (1, 2, -1), (1, 3, 1), (2, 3, 1)])
        counts, state = rounds(k4, theta=1 / 9)
        assert counts == [2, 0, 0]
        assert sum(map(len, state.pos_adj)) == 2 * 4

    def test_spent_pairs_never_reselected(self):
        g = signed_graph_with_both(5)
        pair = trained_pair(g, epochs=5)
        out = sg.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=0.8, mu=0.7))
        pairs = [(e.u, e.v) for e in out.log.entries]
        assert len(pairs) == len(set(pairs))


class TestAugment:
    def test_delta_zero_is_identity(self):
        g = signed_graph_with_both(7)
        pair = trained_pair(g, epochs=5)
        out = sg.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=0.0, mu=0.7))
        assert out.graph == g and len(out.log) == 0 and not out.thresholds_unmet

    def test_deterministic_logs(self):
        g = signed_graph_with_both(9, n=25)
        pair = trained_pair(g, epochs=10)
        cfg = sg.EPRConfig(theta_target=1 / 9, delta_target=0.5, mu=0.7)
        a = sg.augment(g, pair, cfg)
        b = sg.augment(g, pair, cfg)
        assert a.log.to_lines() == b.log.to_lines()
        assert a.graph == b.graph

    def test_realized_share_bounds(self):
        g = signed_graph_with_both(11, n=30, density=0.15)
        pair = trained_pair(g, epochs=10)
        delta = 0.6
        out = sg.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=delta, mu=0.7))
        assert not out.thresholds_unmet
        m = g.num_edges
        share = out.log.total_kept / m
        assert delta - 1.0 / m <= share <= delta + 4.0 / m

    def test_ratio_within_one_edge_at_termination(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = signed_graph_with_both(int(rng.integers(1 << 30)), n=24, density=0.2)
            pair = trained_pair(g, seed=int(rng.integers(1 << 30)), epochs=5)
            theta = float(rng.choice([1 / 9, 0.25, 0.5, 1.0]))
            delta = float(rng.uniform(0.2, 0.7))
            out = sg.augment(g, pair, sg.EPRConfig(theta_target=theta, delta_target=delta, mu=0.7))
            if out.thresholds_unmet:
                continue
            p, mneg = out.log.pos_kept, out.log.neg_kept
            assert min(abs(p - theta * mneg), abs(mneg - p / theta)) <= 1.0 + 1e-9

    def test_log_replay_matches_filter(self):
        # every gated decision must reproduce when the utility is recomputed
        # against the working adjacency at its insertion point
        g = signed_graph_with_both(17, n=25, density=0.2)
        pair = trained_pair(g, epochs=10)
        out = sg.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=0.6, mu=0.7))
        pos_adj, neg_adj = neighbor_sets(g)
        gated = 0
        for e in out.log.entries:
            if e.sign < 0:
                util = sg.pair_utility(pos_adj, neg_adj, e.u, e.v, 4)
                assert sg.filter_edge(util, 0.7) == e.euf_verdict
                gated += 1
            if e.performed:
                adj = pos_adj if e.sign > 0 else neg_adj
                if e.action == ADD:
                    adj[e.u].add(e.v)
                    adj[e.v].add(e.u)
                else:
                    adj[e.u].discard(e.v)
                    adj[e.v].discard(e.u)
        assert gated > 0

    def test_cycle_free_additions_still_occur(self):
        # sparse graph: some kept negative additions close no cycle at all
        g = signed_graph_with_both(19, n=30, density=0.08)
        pair = trained_pair(g, epochs=5)
        out = sg.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=0.6, mu=0.7))
        pos_adj, neg_adj = neighbor_sets(g)
        free = 0
        for e in out.log.entries:
            if e.sign < 0 and e.action == ADD and e.performed:
                if sg.pair_utility(pos_adj, neg_adj, e.u, e.v, 4) is None:
                    free += 1
            if e.performed:
                adj = pos_adj if e.sign > 0 else neg_adj
                if e.action == ADD:
                    adj[e.u].add(e.v)
                    adj[e.v].add(e.u)
                else:
                    adj[e.u].discard(e.v)
                    adj[e.v].discard(e.u)
        assert free > 0

    def test_thresholds_unmet_on_pool_exhaustion(self):
        # complete signed graph with one negative edge: nothing can be added,
        # and at theta = 1/9 the single negative removal cannot keep pace with
        # the positive ones, so the steering starves and the flag is raised
        g = sg.SignedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1),
                               (1, 2, -1), (1, 3, 1), (2, 3, 1)])
        pair = trained_pair(g, epochs=3)
        out = sg.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=1.0, mu=0.7))
        assert out.thresholds_unmet
        assert out.log.total_kept < g.num_edges

    def test_rejects_empty_graph(self):
        pair = sg.EmbeddingPair(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            sg.augment(sg.SignedGraph(0), pair, sg.EPRConfig(1.0, 0.5, 0.7))


class TestMatchesReference:
    """`augment` against the four-block reference loop and its `fuse` result."""

    @staticmethod
    def assert_same(g, pair, cfg):
        out = sg.augment(g, pair, cfg)
        ref_graph, ref_log, ref_unmet = reference_augment(g, pair, cfg)
        assert out.log.to_lines() == ref_log.to_lines()
        assert out.graph == ref_graph
        assert out.thresholds_unmet == ref_unmet

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 14),
           density=st.floats(0.1, 0.6), neg=st.floats(0.1, 0.6),
           decimals=st.sampled_from([None, 0, 1]), eta=st.integers(3, 6),
           theta=st.sampled_from([1 / 9, 0.5, 1.0, 4.0]), delta=st.floats(0.05, 1.0),
           mu=st.floats(0.0, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, seed, n, density, neg, decimals, eta, theta, delta, mu):
        rng = np.random.default_rng(seed)
        g = random_signed_graph(rng, n, density, neg)
        assume(g.num_edges > 0)
        zpos, zneg = rng.normal(size=(2, n, 4))
        if decimals is not None:  # rounded embeddings give tied scores
            zpos, zneg = np.round(zpos, decimals), np.round(zneg, decimals)
        cfg = sg.EPRConfig(theta_target=theta, delta_target=delta, mu=mu, eta=eta)
        self.assert_same(g, sg.EmbeddingPair(zpos, zneg), cfg)

    def test_congress_trained_embeddings(self, congress_graph):
        pair = trained_pair(congress_graph, epochs=5)
        self.assert_same(congress_graph, pair,
                         sg.EPRConfig(theta_target=1 / 9, delta_target=0.6, mu=0.7))


def stable_ranking(values):
    """Upper-triangle keys by a stable sort on descending value: the add-pool order."""
    n = values.shape[0]
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    return upper[np.argsort(-values.take(upper), kind="stable")]


def ranked_pairs(block, n):
    """_ranked_pairs from each row block's first chunk, as AugmentationState
    ranks them from its one product per block."""
    firsts = [_block_best(block(r0, r1), n, r0, None, _FIRST_CHUNK) for r0, r1 in _blocks(n)]
    return _ranked_pairs(block, n, firsts)


class TestRankedPairs:
    """The lazy add-pool ranking, walked to exhaustion, against one full stable sort."""

    @staticmethod
    def ranked(values):
        return list(ranked_pairs(lambda r0, r1: values[r0:r1], values.shape[0]))

    def assert_ranked(self, values):
        got = self.ranked(values)
        keys = np.array([key for key, _value in got], dtype=np.intp)
        assert np.array_equal(keys, stable_ranking(values))
        assert [value for _key, value in got] == values.take(keys).tolist()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2 * _ROW_BLOCK + 40),
           decimals=st.sampled_from([0, 1, 3]))
    @settings(max_examples=30, deadline=None)
    def test_rounded_random_matrices(self, seed, n, decimals):
        # few distinct values: long tie runs cross chunk and row-block boundaries
        self.assert_ranked(np.round(np.random.default_rng(seed).normal(size=(n, n)), decimals))

    def test_all_equal(self):
        self.assert_ranked(np.full((_ROW_BLOCK + 5, _ROW_BLOCK + 5), 0.25))

    @pytest.mark.parametrize("n", [80, 2 * _ROW_BLOCK + 37])
    def test_tie_run_straddles_first_chunk(self, n):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(n, n))
        # distinct values by a random rank, then one tie run across the first
        # refill of the last row block (at n=80 the only one)
        upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
        values.flat[upper] = -rng.permutation(upper.size).astype(np.float64)
        last = upper[upper >= (n - 1) // _ROW_BLOCK * _ROW_BLOCK * n]
        assert last.size > _FIRST_CHUNK + 50
        run = last[np.argsort(-values.take(last))][_FIRST_CHUNK - 50:_FIRST_CHUNK + 50]
        values.flat[run] = values.flat[run[0]]
        self.assert_ranked(values)

    def test_rows_not_a_multiple_of_the_block(self):
        n = 2 * _ROW_BLOCK + 37
        self.assert_ranked(np.random.default_rng(4).normal(size=(n, n)))

    def test_one_and_two_nodes(self):
        assert self.ranked(np.zeros((1, 1))) == []
        assert self.ranked(np.zeros((2, 2))) == [(1, 0.0)]


class TestBlockBestMatchesReference:
    """One row block's ranking, which reads only the columns from r0 on, against
    the whole-block oracle: the same keys and values, and the block untouched."""

    @staticmethod
    def check(block, n, r0, after, k):
        before = block.copy()
        keys, vals = _block_best(block, n, r0, after, k)
        want = reference_block_best(block, n, r0, (math.inf, -1) if after is None else after, k)
        assert np.array_equal(block, before)
        assert keys.tolist() == want[0].tolist()
        assert vals.tolist() == want[1].tolist()
        return keys, vals

    def walk(self, values, k=_FIRST_CHUNK):
        """Every row block from its pool's start, then refills of doubling size
        after the last pair taken, as `_block_pairs` takes them, to the end."""
        n = values.shape[0]
        for r0, r1 in _blocks(n):
            after, chunk, taken = None, k, 0
            while True:
                keys, vals = self.check(values[r0:r1], n, r0, after, chunk)
                if not keys.size:
                    break
                taken += keys.size
                after, chunk = (vals[-1], keys[-1]), 2 * chunk
            assert taken == (r1 - r0) * (2 * n - r0 - r1 - 1) // 2  # every pair u < v once

    @pytest.mark.parametrize("decimals", [0, 1])
    def test_ties_at_the_kth_value(self, decimals):
        # a few distinct values, so long tie runs hold the k-th value of most calls
        n = 2 * _ROW_BLOCK + 37
        values = np.round(np.random.default_rng(decimals).normal(size=(n, n)), decimals)
        self.walk(values)
        self.walk(values, k=7)

    def test_all_equal(self):
        self.walk(np.full((_ROW_BLOCK + 5, _ROW_BLOCK + 5), 0.25))

    def test_ties_straddle_after(self):
        n = 2 * _ROW_BLOCK + 37
        rng = np.random.default_rng(5)
        values = rng.normal(size=(n, n))
        r0, r1 = _ROW_BLOCK, 2 * _ROW_BLOCK
        block = values[r0:r1]
        run = rng.choice(block.size, size=500, replace=False)
        block.flat[run] = 0.5
        tied = np.sort(run[run % n > r0 + run // n]) + r0 * n  # keys of the run's pool pairs
        for key in (tied[0], tied[tied.size // 2], tied[-1], tied[0] - 1, tied[-1] + 1):
            for k in (1, 100, tied.size, 10 * tied.size):
                self.check(block, n, r0, (0.5, key), k)

    def test_last_block_fewer_than_k(self):
        n = _ROW_BLOCK + 3  # the last block holds 3 rows and 3 pairs
        values = np.random.default_rng(6).normal(size=(n, n))
        keys, _vals = self.check(values[_ROW_BLOCK:], n, _ROW_BLOCK, None, _FIRST_CHUNK)
        assert sorted(keys.tolist()) == [_ROW_BLOCK * n + _ROW_BLOCK + 1,
                                         _ROW_BLOCK * n + _ROW_BLOCK + 2,
                                         (_ROW_BLOCK + 1) * n + _ROW_BLOCK + 2]
        self.walk(values)

    @pytest.mark.parametrize("n", [1, 2, 3, 60, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                   2 * _ROW_BLOCK + 37])
    def test_sizes(self, n):
        self.walk(np.random.default_rng(n).normal(size=(n, n)))

    @pytest.mark.parametrize("n", [3, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 37])
    def test_propensity_values_of_both_signs(self, n):
        # cosines (self-scores of 1 on the diagonal, the largest cosine) and
        # guarded reciprocals, with a zero-norm row's ties and a clamped pair
        rows = _propensity_rows(TestPropensityRows.special_pair(n))
        for sign in (1, -1):
            matrix = np.vstack([rows(sign, r0, r1) for r0, r1 in _blocks(n)])
            self.walk(matrix)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2 * _ROW_BLOCK + 40),
           decimals=st.sampled_from([0, 1, 3]), k=st.integers(1, 600), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_refills_from_arbitrary_after(self, seed, n, decimals, k, data):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(n, n)), decimals)
        r0, r1 = data.draw(st.sampled_from(list(_blocks(n))))
        block = values[r0:r1]
        value = data.draw(st.one_of(st.sampled_from(block.ravel().tolist()),
                                    st.floats(-4, 4), st.just(math.inf)))
        key = data.draw(st.integers(-1, n * n))
        self.check(block, n, r0, (value, key), k)
        self.check(block, n, r0, None, k)


def benchmark_shaped_inputs():
    """A graph shaped like the n=1000, m=4000 benchmark graph, random embeddings
    and the benchmark's targets."""
    rng = np.random.default_rng(0)
    n = 1000
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(4000, 2)).tolist()
             if p[0] != p[1]}
    g = sg.SignedGraph(n, [(u, v, -1 if rng.random() < 0.2 else 1) for u, v in sorted(pairs)])
    pair = sg.EmbeddingPair(*rng.normal(size=(2, n, 64)))
    return g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=0.12, mu=0.7)


class TestPoolMemory:
    def test_no_all_pairs_array(self):
        # one int64 array over all n^2/2 upper pairs is 4 MB, and ranking both add
        # pools in full peaks at about 29 MB where the lazy pools need about 5.6 MB
        g, pair, cfg = benchmark_shaped_inputs()
        tracemalloc.start()
        try:
            state = AugmentationState(g, _propensity_rows(pair), cfg)
            assert all(state._pick(sign, action) is not None for sign, action in _SLOTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_pool_walked_to_exhaustion(self):
        # gathering all n^2/2 pairs in one refill peaks at about 11 MB here
        n = 600
        rows = _propensity_rows(sg.EmbeddingPair(*np.random.default_rng(0).normal(size=(2, n, 16))))
        tracemalloc.start()
        try:
            count = sum(1 for _pair in ranked_pairs(partial(rows, 1), n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n * (n - 1) // 2
        assert peak < 5e6


class TestAugmentMemory:
    def test_no_n_by_n_matrix(self):
        # the two n x n propensity matrices alone take 16 MB here; a whole run
        # on row blocks peaks at about 5.6 MB
        g, pair, cfg = benchmark_shaped_inputs()
        tracemalloc.start()
        try:
            sg.augment(g, pair, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestGateOnAugmentCalls:
    @pytest.mark.parametrize("eta", [4, 5])
    def test_every_call_matches_frontier_walk(self, monkeypatch, eta):
        # the gate as augment calls it, on the live working sets of a benchmark-shaped
        # run: η=4 counts by set intersections alone, η=5 also joins the hop dicts
        g, pair, cfg = benchmark_shaped_inputs()
        cfg = sg.EPRConfig(cfg.theta_target, cfg.delta_target, cfg.mu, eta=eta)
        module = importlib.import_module("sigaug.augment")
        pair_utility = module.pair_utility
        got, expected = [], []

        def checked(pos_adj, neg_adj, u, v, eta):
            util = pair_utility(pos_adj, neg_adj, u, v, eta)
            got.append(util)
            expected.append(reference_pair_utility(pos_adj, neg_adj, u, v, eta))
            return util

        monkeypatch.setattr(module, "pair_utility", checked)
        sg.augment(g, pair, cfg)
        assert len(got) > 100
        # list equality requires None in the same places too
        assert got == expected


class TestAugmentGraphFromLog:
    """augment's graph is the original edges less the removals performed, plus
    the additions performed, read off the log; the union of its working sets
    at the end of the run is the oracle."""

    @staticmethod
    def refills(g, pair, cfg):
        """Run augment, check its graph against its working sets and its input
        graph against a copy taken before, and return its number of add-pool
        refills."""
        before = (g.edge_array().copy(), g.pair_keys().copy(), sg.compute_utilities(g, cfg.eta))
        out, state, refills = observed_augment(g, pair, cfg)
        assert out.graph == working_set_union(state)
        assert out.graph.num_edges == g.num_edges + sum(
            (1 if e.action == ADD else -1) for e in out.log.entries if e.performed)
        # the run owns its working sets: the input graph and its scores stay
        assert np.array_equal(g.edge_array(), before[0])
        assert np.array_equal(g.pair_keys(), before[1])
        assert sg.compute_utilities(g, cfg.eta) == before[2]
        return refills

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
           density=st.floats(0.05, 0.5), neg=st.floats(0.1, 0.6), eta=st.integers(3, 5),
           theta=st.sampled_from([1 / 9, 1.0, 4.0]), delta=st.floats(0.8, 1.0),
           mu=st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_refill_heavy_runs(self, seed, n, density, neg, eta, theta, delta, mu):
        rng = np.random.default_rng(seed)
        g = random_signed_graph(rng, n, density, neg)
        assume(g.num_edges > 0)
        pair = sg.EmbeddingPair(*np.round(rng.normal(size=(2, n, 4)), 1))
        self.refills(g, pair, sg.EPRConfig(theta, delta, mu, eta))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
           density=st.floats(0.05, 0.5), neg=st.floats(0.1, 0.6), delta=st.floats(0.0, 1.0),
           mu=st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_mostly_ungated_runs(self, seed, n, density, neg, delta, mu):
        # theta = 4 steers toward positive actions, which pass no gate
        rng = np.random.default_rng(seed)
        g = random_signed_graph(rng, n, density, neg)
        assume(g.num_edges > 0)
        pair = sg.EmbeddingPair(*rng.normal(size=(2, n, 4)))
        self.refills(g, pair, sg.EPRConfig(4.0, delta, mu))

    @pytest.mark.parametrize("theta,delta", [(1 / 9, 0.8), (1 / 9, 1.0), (4.0, 1.0)])
    def test_congress_runs_that_refill(self, congress_graph, theta, delta):
        pair = sg.EmbeddingPair(*np.random.default_rng(5).normal(size=(2, congress_graph.n, 8)))
        assert self.refills(congress_graph, pair, sg.EPRConfig(theta, delta, 0.7)) > 0
