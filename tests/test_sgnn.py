import logging
import math
import tracemalloc

import numpy as np
import pytest

import sigaug as sg
import trainer_reference as ref
from sigaug.sgnn import (CLASSES, _draw_nulls, _edge_rows, _GraphTensors, _class_weights,
                         _grad_step, _hinge_pairs, _loss_grads, _null_pool, init_params)

from conftest import random_signed_graph

UNBALANCED_TRI = [(0, 1, -1), (0, 2, 1), (1, 2, 1)]


def small_graph(seed=7, n=12, density=0.35, neg=0.3):
    rng = np.random.default_rng(seed)
    g = random_signed_graph(rng, n, density, neg)
    while g.num_pos == 0 or g.num_neg == 0:
        g = random_signed_graph(rng, n, density, neg)
    return g


class TestSynthFeatures:
    def test_deterministic(self):
        assert np.array_equal(sg.synth_features(5, 8, 3), sg.synth_features(5, 8, 3))

    def test_one_dimensional_bound(self):
        x = sg.synth_features(200, 1, 0)
        assert np.all(np.abs(x) <= math.sqrt(3.0))

    def test_mean_row_norm_near_one(self):
        x = sg.synth_features(500, 64, 1)
        assert 0.8 <= float(np.linalg.norm(x, axis=1).mean()) <= 1.2

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            sg.synth_features(3, 0, 0)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "lam", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            sg.TrainConfig(**{field: value})


class TestForward:
    def test_isolated_node_convention(self):
        g = sg.SignedGraph(3, [(0, 1, 1)])
        rng = np.random.default_rng(0)
        params = init_params(4, 4, 1, rng)
        x = sg.synth_features(3, 4, 0)
        pair = sg.forward(g, params, x)
        # node 2 is isolated: both aggregates are zero vectors
        cat = np.concatenate([x[2], np.zeros(4)])
        assert np.allclose(pair.zpos[2], np.tanh(params.wpos[0] @ cat))
        assert np.allclose(pair.zneg[2], np.tanh(params.wneg[0] @ cat))

    def test_deterministic(self):
        g = small_graph()
        rng = np.random.default_rng(1)
        params = init_params(6, 8, 2, rng)
        x = sg.synth_features(g.n, 6, 1)
        a = sg.forward(g, params, x)
        b = sg.forward(g, params, x)
        assert np.array_equal(a.zpos, b.zpos) and np.array_equal(a.zneg, b.zneg)

    def test_outputs_finite(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_signed_graph(rng, 10, 0.5, 0.5)
            params = init_params(5, 6, 2, rng)
            x = rng.normal(scale=50.0, size=(g.n, 5))
            pair = sg.forward(g, params, x)
            assert np.all(np.isfinite(pair.zpos)) and np.all(np.isfinite(pair.zneg))

    def test_shape_mismatch(self):
        g = small_graph()
        params = init_params(6, 8, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            sg.forward(g, params, np.zeros((g.n, 5)))


class TestConcat:
    def test_column_order(self):
        pair = sg.EmbeddingPair(np.ones((3, 2)), np.zeros((3, 2)))
        z = sg.concat(pair)
        assert z.shape == (3, 4)
        assert np.array_equal(z[:, :2], np.ones((3, 2)))
        assert np.array_equal(z[:, 2:], np.zeros((3, 2)))

    def test_zero(self):
        assert not sg.concat(sg.EmbeddingPair(np.zeros((2, 1)), np.zeros((2, 1)))).any()


class TestModelParams:
    def test_shape_chain_validated(self):
        with pytest.raises(ValueError, match="fan-in"):
            sg.ModelParams([np.zeros((4, 10)), np.zeros((4, 6))],
                           [np.zeros((4, 10)), np.zeros((4, 6))],
                           np.zeros((3, 16)))

    def test_non_finite_rejected(self):
        w = np.zeros((2, 4))
        bad = w.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sg.ModelParams([bad], [w.copy()], np.zeros((3, 8)))

    def test_from_arrays_inverts_arrays(self):
        params = init_params(5, 6, 3, np.random.default_rng(0))
        back = sg.ModelParams.from_arrays(params.arrays())
        assert back.layers == 3
        assert all(a is b for a, b in zip(back.arrays(), params.arrays()))
        with pytest.raises(ValueError, match=r"2 \* layers \+ 1"):
            sg.ModelParams.from_arrays(params.arrays()[1:])


class TestLoss:
    def test_zero_embeddings_uniform_classifier(self):
        # softmax over three equal logits gives log(3) per sample
        g = sg.SignedGraph(4, UNBALANCED_TRI)
        params = init_params(4, 4, 1, np.random.default_rng(0))
        Z = np.zeros((4, 4))
        samples = [(0, 1, "-"), (0, 2, "+"), (1, 3, "?")]
        cfg = sg.TrainConfig(lam=0.0, weight_decay=0.0, embed_dim=4, feature_dim=4, layers=1)
        weights = _class_weights(np.array([(0, 1, 1), (0, 2, 0), (1, 3, 2)]))
        expected = sum(weights[CLASSES.index(c)] * math.log(3)
                       for _, _, c in samples) / len(samples)
        assert ref.loss(Z, samples, params, cfg) == pytest.approx(expected, abs=1e-12)

    def test_lambda_zero_drops_hinges(self):
        g = small_graph()
        rng = np.random.default_rng(3)
        params = init_params(5, 6, 2, rng)
        Z = rng.normal(size=(g.n, 6))
        samples = [(u, v, "+" if s > 0 else "-") for u, v, s in g.edges()]
        samples += [(0, 5, "?"), (1, 7, "?")]
        cfg0 = sg.TrainConfig(lam=0.0, weight_decay=0.0, embed_dim=6, feature_dim=5)
        cfg5 = sg.TrainConfig(lam=5.0, weight_decay=0.0, embed_dim=6, feature_dim=5)
        assert ref.loss(Z, samples, params, cfg0) <= ref.loss(Z, samples, params, cfg5)

    def test_two_sample_value_matches_scalar_recomputation(self):
        # independent re-derivation with plain Python floats
        Z = np.array([[0.3, -0.2], [0.1, 0.5], [-0.4, 0.25]])
        theta = np.array([[0.2, -0.1, 0.4, 0.3],
                          [-0.3, 0.2, 0.1, -0.2],
                          [0.05, 0.15, -0.25, 0.35]])
        params = sg.ModelParams([np.zeros((1, 2))], [np.zeros((1, 2))], theta)
        samples = [(0, 1, "+"), (0, 2, "?")]
        cfg = sg.TrainConfig(lam=2.0, weight_decay=0.01, embed_dim=2, feature_dim=1)
        weights = _class_weights(np.array([(0, 1, 0), (0, 2, 2)]))

        def ce_one(i, j, cls):
            f = list(Z[i]) + list(Z[j])
            logits = [sum(a * b for a, b in zip(row, f)) for row in theta]
            mx = max(logits)
            den = sum(math.exp(l - mx) for l in logits)
            p = math.exp(logits[CLASSES.index(cls)] - mx) / den
            return -weights[CLASSES.index(cls)] * math.log(p)

        ce = (ce_one(0, 1, "+") + ce_one(0, 2, "?")) / 2.0
        # hinge: one (+,?) triple anchored at node 0 -> (0, 1, 2)
        dj = sum((Z[0][k] - Z[1][k]) ** 2 for k in range(2))
        dk = sum((Z[0][k] - Z[2][k]) ** 2 for k in range(2))
        hinge = 2.0 * max(0.0, dj - dk)
        reg = 0.01 * float(sum((theta ** 2).sum() for theta in [theta]))
        expected = ce + hinge + reg
        assert ref.loss(Z, samples, params, cfg) == pytest.approx(expected, rel=1e-12)

    def test_missing_hinge_class_warns_and_contributes_zero(self, caplog):
        Z = np.array([[0.5, 0.1], [0.2, -0.3]])
        params = sg.ModelParams([np.zeros((1, 2))], [np.zeros((1, 2))], np.zeros((3, 4)))
        cfg = sg.TrainConfig(lam=5.0, weight_decay=0.0, embed_dim=2, feature_dim=1)
        with caplog.at_level(logging.WARNING):
            value = ref.loss(Z, [(0, 1, "+")], params, cfg)
        assert "hinge" in caplog.text
        assert value == pytest.approx(math.log(3))

    def test_permutation_equivariance(self):
        g = small_graph(seed=9)
        rng = np.random.default_rng(4)
        params = init_params(5, 6, 2, rng)
        x = sg.synth_features(g.n, 5, 2)
        samples = [(u, v, "+" if s > 0 else "-") for u, v, s in g.edges()]
        samples += [(0, 4, "?"), (2, 9, "?")]
        cfg = sg.TrainConfig(embed_dim=6, feature_dim=5)
        Z = sg.concat(sg.forward(g, params, x))
        base = ref.loss(Z, samples, params, cfg)

        perm = rng.permutation(g.n)
        g2 = sg.SignedGraph(g.n, [(int(perm[u]), int(perm[v]), s) for u, v, s in g.edges()])
        x2 = np.empty_like(x)
        x2[perm] = x
        samples2 = [(int(perm[u]), int(perm[v]), c) for u, v, c in samples]
        Z2 = sg.concat(sg.forward(g2, params, x2))
        assert ref.loss(Z2, samples2, params, cfg) == pytest.approx(base, abs=1e-10)


class TestTrain:
    def test_bitwise_deterministic(self):
        g = small_graph()
        cfg = sg.TrainConfig(epochs=5, embed_dim=6, feature_dim=5, seed=11)
        a = sg.train(g, cfg)
        b = sg.train(g, cfg)
        assert a.loss_trace == b.loss_trace
        assert np.array_equal(a.params.theta, b.params.theta)

    def test_refuses_missing_sign_class(self):
        only_pos = sg.SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError, match="negative"):
            sg.train(only_pos, sg.TrainConfig(epochs=1))
        only_neg = sg.SignedGraph(3, [(0, 1, -1)])
        with pytest.raises(ValueError, match="positive"):
            sg.train(only_neg, sg.TrainConfig(epochs=1))

    def test_loss_decreases(self):
        g = small_graph(seed=21, n=14, density=0.4)
        res = sg.train(g, sg.TrainConfig(epochs=60, embed_dim=8, feature_dim=6, seed=0))
        assert res.loss_trace[-1] < res.loss_trace[0]

    def test_single_step_moves_against_gradient(self):
        g = small_graph(seed=23)
        cfg = sg.TrainConfig(epochs=1, lam=0.0, embed_dim=6, feature_dim=5, seed=5)
        res = sg.train(g, cfg)
        # recompute the first-step gradient independently: the realized step
        # must point along the negative gradient
        rng = np.random.default_rng(cfg.seed)
        params0 = init_params(5, cfg.embed_dim, cfg.layers, rng)
        x = sg.synth_features(g.n, cfg.feature_dim, cfg.seed)
        tensors = _GraphTensors(g)
        edges = np.array([(u, v, 0 if s > 0 else 1) for u, v, s in g.edges()])
        counts = [g.num_pos, g.num_neg, g.num_edges]  # "+", "-", "?"
        weights = np.array([sum(counts) / (3 * k) for k in counts])
        nulls = _draw_nulls(edges, g.n, _null_pool(edges, g.n), g.num_edges, rng)
        _, grads = _grad_step(tensors, params0, x, np.concatenate((edges, nulls)), weights, cfg)
        step = np.concatenate([(a - b).ravel() for a, b in
                               zip(res.params.arrays(), params0.arrays())])
        grad = np.concatenate([a.ravel() for a in grads])
        assert float(step @ grad) < 0.0

    def test_supervision_graph_must_match_nodes(self):
        g = small_graph()
        with pytest.raises(ValueError, match="nodes"):
            sg.train(g, sg.TrainConfig(epochs=1), samples_from=sg.SignedGraph(2, [(0, 1, 1)]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_diverged_objective_refused_at_its_epoch(self, congress_graph):
        # the first step from lam = 1e300 moves the weights to about 7e296, whose
        # squares overflow the second epoch's regularization term
        with pytest.raises(ValueError, match=r"diverged: the objective is inf at epoch 2 of 3"):
            sg.train(congress_graph, sg.TrainConfig(epochs=3, lam=1e300))


def _tuples(rows):
    return [(u, v, CLASSES[c]) for u, v, c in rows.tolist()]


def _triples(rows, pairs):
    """Each (edge row, null row) pair as its (anchor, edge partner, null partner) triple."""
    out = []
    for e, k in pairs.tolist():
        (u, v, _), null = rows[e].tolist(), rows[k, :2].tolist()
        a, j = (u, v) if u in null else (v, u)
        out.append((a, j, null[1] if null[0] == a else null[0]))
    return out


def _sparse_graph(seed, n=700, m=2100):
    """n(n-1)/2 > 200k pairs, so null draws take the rejection path."""
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(m, 2)).tolist() if p[0] != p[1]}
    return sg.SignedGraph(n, [(u, v, -1 if rng.random() < 0.3 else 1) for u, v in sorted(pairs)])


class TestSamplePipelineMatchesReference:
    """The int row pipeline against the tuple pipeline in trainer_reference."""

    def check(self, g, seed):
        edges = _edge_rows(g)
        assert _tuples(edges) == [(u, v, "+" if s > 0 else "-") for u, v, s in g.edges()]
        pool, ref_pool = _null_pool(edges, g.n), ref._null_pool(g)
        assert (pool is None) == (ref_pool is None)
        if pool is not None:
            assert [tuple(p) for p in pool.tolist()] == ref_pool
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw checks that both streams stayed in step
            nulls = _draw_nulls(edges, g.n, pool, g.num_edges, rng)
            ref_nulls = ref._draw_nulls(g, ref_pool, g.num_edges, ref_rng)
            assert _tuples(nulls) == ref_nulls
        rows = np.concatenate((edges, nulls))
        samples = _tuples(edges) + ref_nulls
        for pairs, ref_triples in zip(_hinge_pairs(rows), ref._hinge_triples(samples)):
            assert _triples(rows, pairs) == ref_triples
        Z = rng.normal(size=(g.n, 6))
        theta = rng.uniform(-0.5, 0.5, size=(3, 12))
        weights = _class_weights(rows)
        ref_weights = ref._class_weights(samples, None)
        assert {c: weights[CLASSES.index(c)] for c in ref_weights} == ref_weights
        got = _loss_grads(Z, rows, theta, 5.0, weights)
        want = ref._loss_grads(Z, samples, theta, 5.0, ref_weights)
        assert got[1] == want[1]
        # the library projects each node once and scatters onto nodes, so CE, dZ
        # and dTheta sum in another order than the oracle's per-row features: CE
        # is equal within 1e-12 relative, each gradient within 1e-12 of its
        # largest entry, rather than bit for bit
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
        for g_got, g_want in ((got[2], want[2]), (got[3], want[3])):
            assert np.max(np.abs(g_got - g_want)) <= 1e-12 * np.max(np.abs(g_want))

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_path_small_graphs(self, seed):
        g = small_graph(seed=100 + seed, n=6 + 4 * seed, density=0.3)
        assert _null_pool(_edge_rows(g), g.n) is not None
        self.check(g, seed)

    def test_pool_path_congress(self, congress_graph):
        self.check(congress_graph, 3)

    @pytest.mark.parametrize("seed", range(2))
    def test_rejection_path(self, seed):
        g = _sparse_graph(seed)
        assert _null_pool(_edge_rows(g), g.n) is None
        self.check(g, seed)

    def test_complete_graph_has_no_nulls(self):
        g = sg.SignedGraph(4, [(u, v, 1 if (u + v) % 2 else -1)
                               for u in range(4) for v in range(u + 1, 4)])
        pool = _null_pool(_edge_rows(g), g.n)
        assert pool.shape == (0, 2) and ref._null_pool(g) == []
        assert _draw_nulls(_edge_rows(g), g.n, pool, 6, np.random.default_rng(0)).shape == (0, 3)


class TestTrainMatchesReference:
    """train with the library loss against train with the oracle loss of
    trainer_reference, on the same rows and weights every epoch."""

    @staticmethod
    def _reference_loss_grads(Z, rows, theta, lam, weights, warn_missing=True):
        return ref._loss_grads(Z, _tuples(rows), theta, lam,
                               {c: weights[i] for i, c in enumerate(CLASSES)}, warn_missing)

    def check(self, monkeypatch, g, cfg):
        got = sg.train(g, cfg)
        with monkeypatch.context() as m:
            m.setattr("sigaug.sgnn._loss_grads", self._reference_loss_grads)
            want = sg.train(g, cfg)
        assert len(got.loss_trace) == len(want.loss_trace) == cfg.epochs
        for a, b in zip(got.loss_trace, want.loss_trace):
            assert a == pytest.approx(b, rel=1e-12, abs=0)
        Z, Z_want = sg.concat(got.embeddings), sg.concat(want.embeddings)
        assert np.max(np.abs(Z - Z_want)) <= 1e-12 * np.max(np.abs(Z_want))

    def test_congress(self, monkeypatch, congress_graph):
        self.check(monkeypatch, congress_graph, sg.TrainConfig(epochs=25))

    def test_benchmark_shaped_split(self, monkeypatch):
        # shaped like the n=1000 benchmark graph's train split; nulls are rejection draws
        self.check(monkeypatch, _sparse_graph(0, n=1000, m=3200), sg.TrainConfig(epochs=5))


class TestLossMatchesPlainReference:
    """The loss against trainer_reference's plain version, which scatters the logit
    gradients through csr incidence matrices and forms one (S x d) difference of
    the rows' endpoints: equal bits, in the loss and in whole training runs."""

    @pytest.fixture(params=["congress", "sparse_n1000"])
    def graph(self, request):
        if request.param == "congress":
            return request.getfixturevalue("congress_graph")
        return _sparse_graph(0, n=1000, m=3200)

    def test_loss_grads(self, graph):
        rng = np.random.default_rng(1)
        edges = _edge_rows(graph)
        nulls = _draw_nulls(edges, graph.n, _null_pool(edges, graph.n), len(edges), rng)
        rows = np.concatenate((edges, nulls))
        Z, theta = rng.normal(size=(graph.n, 64)), rng.uniform(-0.5, 0.5, size=(3, 128))
        weights = _class_weights(rows)
        got = _loss_grads(Z, rows, theta, 5.0, weights)
        want = ref.plain_loss_grads(Z, rows, theta, 5.0, weights)
        assert got[:2] == want[:2]
        assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])

    def test_train(self, monkeypatch, graph):
        cfg = sg.TrainConfig(epochs=25 if graph.n < 1000 else 5)
        got = sg.train(graph, cfg)
        with monkeypatch.context() as m:
            m.setattr("sigaug.sgnn._loss_grads", ref.plain_loss_grads)
            want = sg.train(graph, cfg)
        assert got.loss_trace == want.loss_trace
        assert np.array_equal(sg.concat(got.embeddings), sg.concat(want.embeddings))
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.params.arrays(), want.params.arrays(), strict=True))


def test_rejection_sampling_refuses_a_nearly_complete_graph():
    # n=640 has 204,480 pairs, too many to list; with all but 11 of them edges a
    # rejection pass keeps about 22 of its 409k draws, so 204,469 nulls would take
    # some 9,300 passes
    n = 640
    u, v = np.triu_indices(n, k=1)
    free = np.random.default_rng(0).choice(len(u), size=11, replace=False)
    edges = np.delete(np.column_stack((u, v)), free, axis=0).astype(np.int64)
    assert _null_pool(edges, n) is None
    with pytest.raises(ValueError, match=r"n=640, 204469 edges, free-pair share 5\.38e-05"):
        _draw_nulls(edges, n, None, len(edges), np.random.default_rng(0))


class TestLossMemory:
    def test_no_hinge_term_by_dim_temporary(self):
        # a sample set shaped like the n=1000 benchmark graph's train split: about
        # 3.2k edge rows plus as many nulls, d = 64; the call needs about 3 MB, one
        # (S, d) difference of the rows' endpoints with its two gathers adds about
        # 5 MB, one float64 array with a row per hinge term and d columns over
        # 20 MB, and per-row (S, 2d) pair features, their gradients and a (3S, d)
        # stack of row gradients would peak at about 31 MB
        g = _sparse_graph(0, n=1000, m=3200)
        edges = _edge_rows(g)
        rng = np.random.default_rng(0)
        rows = np.concatenate((edges, _draw_nulls(edges, g.n, None, len(edges), rng)))
        Z, theta = rng.normal(size=(g.n, 64)), rng.uniform(-0.5, 0.5, size=(3, 128))
        weights = _class_weights(rows)
        assert sum(len(p) for p in _hinge_pairs(rows)) * 64 * 8 > 20e6
        tracemalloc.start()
        try:
            _loss_grads(Z, rows, theta, 5.0, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestGradientCheck:
    def test_full_loss_small_instance(self):
        g = small_graph(seed=31, n=10)
        cfg = sg.TrainConfig(embed_dim=8, feature_dim=6, seed=0)
        assert sg.gradient_check(g, cfg, epsilon=1e-5) < 1e-4

    def test_near_quadratic_case_tight(self):
        # lam = 0 and a single layer leaves softmax + tanh only
        g = small_graph(seed=33, n=8)
        cfg = sg.TrainConfig(lam=0.0, embed_dim=4, feature_dim=4, layers=1, seed=1)
        assert sg.gradient_check(g, cfg, epsilon=1e-5) < 1e-6

    def test_epsilon_halving_sane(self):
        g = small_graph(seed=35, n=8)
        cfg = sg.TrainConfig(embed_dim=4, feature_dim=4, seed=2)
        e1 = sg.gradient_check(g, cfg, epsilon=2e-5)
        e2 = sg.gradient_check(g, cfg, epsilon=1e-5)
        assert e2 < max(4.0 * e1, 1e-6)

    def test_epsilon_guardrail(self):
        g = small_graph()
        for eps in (1e-7, 1e-3):
            with pytest.raises(ValueError):
                sg.gradient_check(g, sg.TrainConfig(), epsilon=eps)


class TestEgoTree:
    def test_single_edge_k1(self):
        g = sg.SignedGraph(2, [(0, 1, 1)])
        tree = sg.build_k_hop_ego_tree(g, 0, 1)
        assert tree.graph.n == 2 and tree.sources == (0, 1)

    def test_triangle_k2_literal_expansion(self):
        # every copy expands all source-graph neighbors, including the one it
        # came from: 1 root + 2 level-1 + 4 level-2
        g = sg.SignedGraph(3, UNBALANCED_TRI)
        tree = sg.build_k_hop_ego_tree(g, 0, 2)
        assert tree.graph.n == 7
        assert tree.sources[0] == 0

    def test_root_out_of_range(self):
        g = sg.SignedGraph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            sg.build_k_hop_ego_tree(g, 5, 1)
        with pytest.raises(ValueError):
            sg.build_k_hop_ego_tree(g, 0, 0)

    def test_isomorphic_roots_same_embedding(self):
        # nodes 0 and 1 of the unbalanced triangle play symmetric roles; with
        # positionally assigned features the roots embed identically
        g = sg.SignedGraph(3, UNBALANCED_TRI)
        t0 = sg.build_k_hop_ego_tree(g, 0, 2)
        t1 = sg.build_k_hop_ego_tree(g, 1, 2)
        assert t0.graph.n == t1.graph.n
        params = init_params(5, 6, 2, np.random.default_rng(8))
        x = sg.synth_features(t0.graph.n, 5, 4)
        z0 = sg.concat(sg.forward(t0.graph, params, x))[t0.root]
        z1 = sg.concat(sg.forward(t1.graph, params, x))[t1.root]
        assert np.max(np.abs(z0 - z1)) < 1e-9


class TestProperRepresentation:
    def test_trained_embeddings_separate_negative_neighbors(self):
        # after convergence the positive neighbor sits strictly closer than
        # the negative neighbor (fixed seed); deleting the negative edge keeps
        # this vacuously true since no negative neighbor remains
        tri = sg.SignedGraph(5, [(0, 1, -1), (0, 2, 1), (1, 2, 1)])
        cfg = sg.TrainConfig(epochs=300, embed_dim=8, feature_dim=6, seed=0)
        res = sg.train(tri, cfg)
        x = sg.synth_features(5, 6, 0)
        z = sg.concat(sg.forward(tri, res.params, x))
        d_neg = np.linalg.norm(z[0] - z[1])
        d_pos = np.linalg.norm(z[0] - z[2])
        assert d_pos < d_neg
        z_after = sg.concat(sg.forward(sg.SignedGraph(5, [(0, 2, 1), (1, 2, 1)]), res.params, x))
        assert np.all(np.isfinite(z_after))


class TestSerialization:
    def test_params_roundtrip(self, tmp_path):
        params = init_params(5, 6, 2, np.random.default_rng(3))
        path = tmp_path / "m.params"
        sg.save_params(params, path)
        assert path.read_bytes().startswith(b"SIGAUG-PARAMS-1\n")
        loaded = sg.load_params(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)

    def test_params_bad_magic(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"NOT-A-PARAM-BLOB")
        with pytest.raises(ValueError, match="magic"):
            sg.load_params(path)

    def test_embeddings_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        pair = sg.EmbeddingPair(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
        path = tmp_path / "model.emb"
        sg.save_embeddings(pair, path)
        loaded = sg.load_embeddings(path)
        assert np.array_equal(loaded.zpos, pair.zpos)
        assert np.array_equal(loaded.zneg, pair.zneg)
