import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigaug as sg
import trainer_reference as ref
from sigaug.sgnn import (_NULL, CLASSES, _draw_nulls, _edge_rows, _GraphTensors,
                         _class_weights, _grad_step, _hinge_pairs, _loss_grads, _null_pool,
                         init_params)

from conftest import LINE_BREAKS, graph_past_16_bit_ids, random_signed_graph
from graph_reference import ReferenceParseError, reference_load_embeddings

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
        samples = [(u, v, "+" if s > 0 else "-") for u, v, s in g.edge_array().tolist()]
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
        samples = [(u, v, "+" if s > 0 else "-") for u, v, s in g.edge_array().tolist()]
        samples += [(0, 4, "?"), (2, 9, "?")]
        cfg = sg.TrainConfig(embed_dim=6, feature_dim=5)
        Z = sg.concat(sg.forward(g, params, x))
        base = ref.loss(Z, samples, params, cfg)

        perm = rng.permutation(g.n)
        g2 = sg.SignedGraph(g.n, [(int(perm[u]), int(perm[v]), s)
                                  for u, v, s in g.edge_array().tolist()])
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
        tensors = _GraphTensors(g, x)
        edges = np.array([(u, v, 0 if s > 0 else 1) for u, v, s in g.edge_array().tolist()])
        counts = [g.num_pos, g.num_neg, g.num_edges]  # "+", "-", "?"
        weights = np.array([sum(counts) / (3 * k) for k in counts])
        keys = g.pair_keys()
        nulls = _draw_nulls(keys, g.n, _null_pool(keys, g.n), g.num_edges, rng)
        _, grads = _grad_step(tensors, params0, np.concatenate((edges, nulls)), weights, cfg)
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


class TestWarmStart:
    @pytest.mark.parametrize("name,value", [("feature_dim", 6), ("embed_dim", 8), ("layers", 3)])
    def test_init_must_match_cfg(self, name, value):
        g = small_graph()
        cfg = sg.TrainConfig(epochs=1, embed_dim=6, feature_dim=5)
        init = init_params(cfg.feature_dim, cfg.embed_dim, cfg.layers, np.random.default_rng(0))
        other = dataclasses.replace(cfg, **{name: value})
        with pytest.raises(ValueError, match=rf"init has {name}={getattr(cfg, name)}, "
                                             rf"cfg has {name}={value}"):
            sg.train(g, other, init=init)

    def test_matching_init_trains_bit_identically(self):
        # the parameters a cold start draws for this seed, handed in as init
        g = small_graph()
        cfg = sg.TrainConfig(epochs=5, embed_dim=6, feature_dim=5, seed=3)
        init = init_params(cfg.feature_dim, cfg.embed_dim, cfg.layers,
                           np.random.default_rng(cfg.seed))
        got, want = sg.train(g, cfg, init=init), sg.train(g, cfg)
        assert got.loss_trace == want.loss_trace
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.params.arrays(), want.params.arrays(), strict=True))
        assert np.array_equal(sg.concat(got.embeddings), sg.concat(want.embeddings))


class TestLayer0Inputs:
    """The layer-0 inputs and the operators depend only on the graph and the
    features, so every entry point builds them once, as one _GraphTensors."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(g, x):
            calls.append(x.shape)
            return _GraphTensors(g, x)

        monkeypatch.setattr("sigaug.sgnn._GraphTensors", counted)
        return calls

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_once_per_train(self, calls, epochs):
        g = small_graph()
        cfg = sg.TrainConfig(epochs=epochs, embed_dim=6, feature_dim=5)
        base = sg.train(g, cfg)
        assert len(calls) == 1
        propagate = sg.SignedGraph(g.n, g.edge_array()[1:])  # a retrain's graph differs from g
        sg.train(propagate, cfg, samples_from=g, init=base.params)
        assert len(calls) == 2

    def test_once_per_forward(self, calls):
        g = small_graph(seed=31, n=10)
        params = init_params(6, 8, 2, np.random.default_rng(0))
        sg.forward(g, params, sg.synth_features(g.n, 6, 0))
        assert len(calls) == 1


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
        edges, keys = _edge_rows(g), g.pair_keys()
        assert _tuples(edges) == [(u, v, "+" if s > 0 else "-")
                                  for u, v, s in g.edge_array().tolist()]
        pool, ref_pool = _null_pool(keys, g.n), ref._null_pool(g)
        assert (pool is None) == (ref_pool is None)
        if pool is not None:
            assert [tuple(p) for p in pool.tolist()] == ref_pool
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw checks that both streams stayed in step
            nulls = _draw_nulls(keys, g.n, pool, g.num_edges, rng)
            ref_nulls = ref._draw_nulls(g, ref_pool, g.num_edges, ref_rng)
            assert _tuples(nulls) == ref_nulls
        rows = np.concatenate((edges, nulls))
        samples = _tuples(edges) + ref_nulls
        for pairs, ref_triples in zip(_hinge_pairs(rows, g.n), ref._hinge_triples(samples)):
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
        assert _null_pool(g.pair_keys(), g.n) is not None
        self.check(g, seed)

    def test_pool_path_congress(self, congress_graph):
        self.check(congress_graph, 3)

    @pytest.mark.parametrize("seed", range(2))
    def test_rejection_path(self, seed):
        g = _sparse_graph(seed)
        assert _null_pool(g.pair_keys(), g.n) is None
        self.check(g, seed)

    def test_complete_graph_has_no_nulls(self):
        g = sg.SignedGraph(4, [(u, v, 1 if (u + v) % 2 else -1)
                               for u in range(4) for v in range(u + 1, 4)])
        pool = _null_pool(g.pair_keys(), g.n)
        assert pool.shape == (0, 2) and ref._null_pool(g) == []
        assert _draw_nulls(g.pair_keys(), g.n, pool, 6, np.random.default_rng(0)).shape == (0, 3)


class TestGraphTensorsMatchesOracle:
    """_GraphTensors against trainer_reference's diagonal products and csr
    transposes, bit for bit: rpd and rnd hold the same data, indices in entry
    order and indptr, since each product with them sums in their entry order; the
    layer-0 inputs are [x || rp1 x] and [x || rn1 x] with the oracle's own-degree
    operators; and the csc views rpd_t and rnd_t give the oracle's transposes'
    products, for a contiguous input and for a column slice as in _backward."""

    GRAPHS = {
        "isolated_nodes": lambda: sg.SignedGraph(10, [(0, 1, 1), (0, 2, 1), (0, 3, -1),
                                                      (1, 2, -1), (1, 3, -1), (2, 3, 1),
                                                      (5, 6, 1), (5, 8, 1), (6, 8, -1)]),
        "positive_only": lambda: sg.SignedGraph(7, [(0, 1, 1), (1, 2, 1), (0, 5, 1), (3, 4, 1)]),
        "negative_only": lambda: sg.SignedGraph(7, [(0, 1, -1), (1, 6, -1), (2, 5, -1)]),
        "no_nodes": lambda: sg.SignedGraph(0),
        "no_edges": lambda: sg.SignedGraph(5),
        "benchmark_shaped_split": lambda: _sparse_graph(0, n=1000, m=3200),
        "past_16_bit_ids": graph_past_16_bit_ids,
    }

    def check(self, g):
        x = sg.synth_features(g.n, 5, 0)
        got, want = _GraphTensors(g, x), ref.graph_tensors(g)
        for name in ("rpd", "rnd"):
            m, w = getattr(got, name), want[name]
            assert m.format == "csr" and m.shape == w.shape == (g.n, g.n)
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(m, attr), getattr(w, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, attr)
        for cat, op in zip(got.x0, ("rp1", "rn1")):
            assert np.array_equal(cat, np.hstack([x, want[op] @ x])), op
        rng = np.random.default_rng(g.n)
        wide = rng.standard_normal((g.n, 12))
        for name in ("rpd_t", "rnd_t"):
            view = getattr(got, name)
            assert view.format == "csc"
            # a view shares its operator's arrays; empty arrays share no memory
            assert not view.nnz or np.shares_memory(view.data, getattr(got, name[:-2]).data)
            for X in (rng.standard_normal((g.n, 7)), wide[:, 5:]):
                assert np.array_equal(view @ X, want[name] @ X), name

    @pytest.mark.parametrize("name", GRAPHS)
    def test_graphs(self, name):
        self.check(self.GRAPHS[name]())

    def test_congress(self, congress_graph):
        self.check(congress_graph)


class TestRejectionDrawsMatchIsin:
    """The rejection path's search of sorted draws in the ascending edge keys
    against trainer_reference's np.isin membership test, for equal seeds."""

    @staticmethod
    def check(keys, n, count, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw checks that both streams stayed in step
            got = _draw_nulls(keys, n, None, count, rng)
            want = ref.draw_nulls_isin(keys, n, count, ref_rng)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("seed", range(3))
    def test_draws_above_the_last_key(self, seed):
        # edges only among nodes 0-40 of 700: the last key is at most 39 * 700 + 40,
        # below about 89% of the pairs a draw can hit
        g = sg.SignedGraph(700, random_signed_graph(np.random.default_rng(seed), 41).edge_array())
        keys = g.pair_keys()
        assert _null_pool(keys, g.n) is None and g.edge_array()[:, :2].max() <= 40
        self.check(keys, g.n, len(keys), seed)

    def test_no_edges(self):
        keys = np.empty(0, np.int64)
        assert _null_pool(keys, 700) is None
        assert self.check(keys, 700, 5, 0).shape == (5, 3)
        assert math.isfinite(ref.gradient_check(sg.SignedGraph(700),
                                               sg.TrainConfig(embed_dim=4, feature_dim=3)))

    def test_pool_without_edges(self):
        pool = _null_pool(np.empty(0, np.int64), 5)
        assert [tuple(p) for p in pool.tolist()] == ref._null_pool(sg.SignedGraph(5))


class TestHingePairsMatchesOracle:
    """_hinge_pairs against trainer_reference's binary-search version on hand-built
    rows. The endpoints reach n - 1, so a sort key one width too narrow for n
    (8, 16 or 32 bits) would wrap and reorder the anchors."""

    @staticmethod
    def rows(n, edge_classes, nulls, seed=0):
        rng = np.random.default_rng(seed)
        # few distinct endpoints, so anchors repeat and their runs are long; n - 3
        # appears only in edge rows: an endpoint with no null row
        null_nodes = [0, 1, n // 2, n - 2, n - 1]
        edge_nodes = null_nodes + [n - 3]
        rows = [(*rng.choice(null_nodes, 2, replace=False), _NULL) for _ in range(nulls)]
        rows += [(*rng.choice(edge_nodes, 2, replace=False), c)
                 for c in rng.choice(edge_classes, 40)]
        return np.array(rows, dtype=np.int64)[rng.permutation(len(rows))]

    def check(self, rows, n):
        got, want = _hinge_pairs(rows, n), ref.hinge_pairs(rows)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)
        return got

    @pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
    def test_key_widths(self, n):
        rows = self.rows(n, [0, 1], 40)
        assert (rows[:, :2] == n - 3).any()
        assert all(len(p) for p in self.check(rows, n))

    def test_graph_past_16_bit_ids(self):
        # the graph's edge rows and the non-adjacent pairs among its endpoints
        g = graph_past_16_bit_ids()
        keys, ids = set(g.pair_keys().tolist()), np.unique(g.edge_array()[:, :2])
        nulls = [(u, v, _NULL) for u in ids.tolist() for v in ids.tolist()
                 if u < v and u * g.n + v not in keys]
        rows = np.concatenate((_edge_rows(g), np.array(nulls, dtype=np.int64)))
        rows = rows[np.random.default_rng(0).permutation(len(rows))]
        assert all(len(p) for p in self.check(rows, g.n))

    def test_no_null_rows(self):
        assert not any(len(p) for p in self.check(self.rows(300, [0, 1], 0), 300))

    def test_no_negative_rows(self):
        got = self.check(self.rows(300, [0], 40), 300)
        assert len(got[0]) and not len(got[1])


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
        edges, keys = _edge_rows(graph), graph.pair_keys()
        nulls = _draw_nulls(keys, graph.n, _null_pool(keys, graph.n), len(edges), rng)
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
    keys = np.delete(u * n + v, free).astype(np.int64)
    assert _null_pool(keys, n) is None
    with pytest.raises(ValueError, match=r"n=640, 204469 edges, free-pair share 5\.38e-05"):
        _draw_nulls(keys, n, None, len(keys), np.random.default_rng(0))


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
        rows = np.concatenate((edges, _draw_nulls(g.pair_keys(), g.n, None, len(edges), rng)))
        Z, theta = rng.normal(size=(g.n, 64)), rng.uniform(-0.5, 0.5, size=(3, 128))
        weights = _class_weights(rows)
        assert sum(len(p) for p in _hinge_pairs(rows, g.n)) * 64 * 8 > 20e6
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
        assert ref.gradient_check(g, cfg, epsilon=1e-5) < 1e-4

    def test_near_quadratic_case_tight(self):
        # lam = 0 and a single layer leaves softmax + tanh only
        g = small_graph(seed=33, n=8)
        cfg = sg.TrainConfig(lam=0.0, embed_dim=4, feature_dim=4, layers=1, seed=1)
        assert ref.gradient_check(g, cfg, epsilon=1e-5) < 1e-6

    def test_epsilon_halving_sane(self):
        g = small_graph(seed=35, n=8)
        cfg = sg.TrainConfig(embed_dim=4, feature_dim=4, seed=2)
        e1 = ref.gradient_check(g, cfg, epsilon=2e-5)
        e2 = ref.gradient_check(g, cfg, epsilon=1e-5)
        assert e2 < max(4.0 * e1, 1e-6)

    def test_missing_hinge_pairs_warn_once_per_check(self, caplog):
        # the analytic step warns for each missing class; the 120
        # finite-difference probes repeat the same batch and stay silent
        g = sg.SignedGraph(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
        cfg = sg.TrainConfig(embed_dim=4, feature_dim=3)
        with caplog.at_level(logging.WARNING, logger="sigaug.sgnn"):
            ref.gradient_check(g, cfg)
        assert sum("hinge pairs" in r.getMessage() for r in caplog.records) == 2

    def test_epsilon_guardrail(self):
        g = small_graph()
        for eps in (1e-7, 1e-3):
            with pytest.raises(ValueError):
                ref.gradient_check(g, sg.TrainConfig(), epsilon=eps)


class TestEgoTree:
    def test_single_edge_k1(self):
        g = sg.SignedGraph(2, [(0, 1, 1)])
        tree = ref.build_k_hop_ego_tree(g, 0, 1)
        assert tree.graph.n == 2 and tree.sources == (0, 1)

    def test_triangle_k2_literal_expansion(self):
        # every copy expands all source-graph neighbors, including the one it
        # came from: 1 root + 2 level-1 + 4 level-2
        g = sg.SignedGraph(3, UNBALANCED_TRI)
        tree = ref.build_k_hop_ego_tree(g, 0, 2)
        assert tree.graph.n == 7
        assert tree.sources[0] == 0

    def test_root_out_of_range(self):
        g = sg.SignedGraph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            ref.build_k_hop_ego_tree(g, 5, 1)
        with pytest.raises(ValueError):
            ref.build_k_hop_ego_tree(g, 0, 0)

    def test_isomorphic_roots_same_embedding(self):
        # nodes 0 and 1 of the unbalanced triangle play symmetric roles; with
        # positionally assigned features the roots embed identically
        g = sg.SignedGraph(3, UNBALANCED_TRI)
        t0 = ref.build_k_hop_ego_tree(g, 0, 2)
        t1 = ref.build_k_hop_ego_tree(g, 1, 2)
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
        # the layer count is read by its value, leading zeros aside
        path.write_bytes(path.read_bytes().replace(b"layers=2", b"layers=02", 1))
        for a, b in zip(params.arrays(), sg.load_params(path).arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("header, tail", [
        (b"layers=1_0", b""), (b"layers=0", b""), (b"layers=-1", b""),
        ("layers=\u0661".encode(), b""), (b"layers=1", b"\0")],
        ids=["underscore", "zero", "negative", "arabic-indic-digit", "trailing-byte"])
    def test_params_refused_naming_the_file(self, tmp_path, header, tail):
        # the layer count is at least 1 in ASCII digits, and no byte follows the
        # last array: int() would read 1_0 as 10, and 0 or -1 would leave the
        # branches without a layer
        path = tmp_path / "m.params"
        sg.save_params(init_params(5, 6, 1, np.random.default_rng(3)), path)
        path.write_bytes(path.read_bytes().replace(b"layers=1", header, 1) + tail)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            sg.load_params(path)

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

    def test_embeddings_roundtrip_extremes(self, tmp_path):
        # every float repr form: exponents, subnormals, the largest double, -0.0
        values = [5e-324, -2.2250738585072014e-308, 1e-05, 1.7976931348623157e+308, -0.0,
                  1e16, 0.1, -123456.789]
        pair = sg.EmbeddingPair(np.array([values[:4], values[4:]]),
                                np.array([values[4:], values[:4]]))
        path = tmp_path / "extremes.emb"
        sg.save_embeddings(pair, path)
        loaded = sg.load_embeddings(path)
        assert loaded.zpos.tobytes() == pair.zpos.tobytes()
        assert loaded.zneg.tobytes() == pair.zneg.tobytes()

    def test_embeddings_read_as_ascii_lines_and_fields(self, tmp_path):
        path = tmp_path / "e.emb"

        def load(data: bytes):
            path.write_bytes(data)
            return sg.load_embeddings(path)

        # CRLF, tabs and signed or exponent forms read as before
        pair = load(b"0\t+1.5 -2e-1\r\n+1 .5 3.\r\n\n")
        assert pair.zpos.tolist() == [[1.5], [0.5]] and pair.zneg.tolist() == [[-0.2], [3.0]]
        # a lone CR does not end a line, and float() would take "1_0" and "\u0661"
        with pytest.raises(ValueError, match=r"e\.emb:1: could not convert string to float: '1_0'"):
            load("0 1_0 \u0661.5\r1 0.3 0.4\n".encode())
        for value in ("\u0661.5", "1_0", "0x1p3", "1e", "--1", "\xa01"):
            shown = re.escape(repr(value))
            with pytest.raises(ValueError, match=rf"e\.emb:2: could not convert .* {shown}"):
                load(f"0 0.1 0.2\n1 0.3 {value}\n".encode())
        # \x1c and U+2028 stay inside a field, a non-UTF-8 byte shows as U+FFFD
        for value in ("0.3\x1c0.4", "0.3\u20280.4"):
            with pytest.raises(ValueError, match=rf"e\.emb:1: .*{re.escape(repr(value))}"):
                load(f"0 {value} 0.5\n".encode())
        with pytest.raises(ValueError, match="e\\.emb:1: .*'0\ufffd'"):
            load(b"0 0\xff 0.5\n")
        with pytest.raises(ValueError, match=r"e\.emb:1: node ids must be .* got '\u0660'"):
            load("\u0660 0.1 0.2\n".encode())
        with pytest.raises(ValueError, match=r"e\.emb:1: node ids must be .* got '9{5000}'"):
            load(b"9" * 5000 + b" 0.1 0.2\n")
        # the non-finite words still parse, and are refused as before
        for value in ("nan", "-inf", "Infinity", "1e999"):
            with pytest.raises(ValueError, match="e\\.emb:2: non-finite embedding value"):
                load(f"0 0.1 0.2\n1 0.3 {value}\n".encode())


# pieces of embedding files. Valid ones: ids with signs and leading zeros, or
# thousands of zeros; values in every ASCII number form, of thousands of
# digits; ASCII separators and line ends. A line is mutated now and then:
# a wrong id, Unicode digits and spaces, NaN/inf text, a line break other than
# the line feed, missing or extra values.
_EMB_IDS = ["{i}", "{i}", "0{i}", "+{i}", "0" * 4400 + "{i}"]
_EMB_VALUES = ["0.1", "-2", "1e-3", "5.", ".5", "+1E+2", "-0", "1" * 300,
               "0." + "0" * 5000 + "1"]
_EMB_SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\r", " \r "]
_EMB_EDGES = ["", "", " ", "\t", "\r"]
_EMB_ENDS = ["\n", "\n", "\r\n", "\n\n"]
_EMB_OTHER_LINES = ["", "  ", "\t\r"]
_EMB_BAD = {
    "id": ["{j}", "-{j}", "-{i}", "{i}.0", "1_0", "\u0661", "\uff10", "x", "+-0", "0x0"],
    "value": ["nan", "NaN", "inf", "-Infinity", "1e999", "1" + "0" * 400, "1_0", "\u0661",
              "\uff11", "0x1", "1.2.3", "e5", ".", "--1", "1e"],
    "separator": ["\u3000", "\xa0", "\x1c", "\u2028", "\x85", "\ufeff"],
    "break": LINE_BREAKS,
    "width": [-4, -1, 1],  # -4 leaves a row no value
}


@st.composite
def embedding_bytes(draw):
    """An embedding file of up to 6 lines, mostly rows and mostly valid, as bytes."""
    width = draw(st.sampled_from((2, 4, 3)))
    data, row = b"", 0
    for _ in range(draw(st.integers(0, 6))):
        # a width fault shows only past the first row, so it is drawn twice as often
        bad = draw(st.sampled_from([None] * 6 + sorted(_EMB_BAD) + ["width"]))
        if draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from(_EMB_OTHER_LINES))
        else:
            fields = [draw(st.sampled_from(_EMB_IDS))]
            count = width + draw(st.sampled_from(_EMB_BAD["width"])) if bad == "width" else width
            fields += [draw(st.sampled_from(_EMB_VALUES)) for _ in range(count)]
            if bad == "id":
                fields[0] = draw(st.sampled_from(_EMB_BAD["id"]))
            elif bad == "value" and count:
                fields[draw(st.integers(1, count))] = draw(st.sampled_from(_EMB_BAD["value"]))
            fields[0] = fields[0].format(i=row, j=row + 1)
            seps = _EMB_BAD["separator"] if bad == "separator" else _EMB_SEPARATORS
            line = fields[0]
            for field in fields[1:]:
                line += draw(st.sampled_from(seps)) + field
            line = draw(st.sampled_from(_EMB_EDGES)) + line + draw(st.sampled_from(_EMB_EDGES))
            row += 1
        if bad == "break":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(LINE_BREAKS)) + line[at:]
        data += line.encode() + draw(st.sampled_from(_EMB_ENDS)).encode()
    if data and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


_EMB_KINDS = {"node ids must be dense": "id", "has no embedding values": "empty",
              "could not convert string to float": "value", "non-finite": "nonfinite",
              "the first row has": "width", "expected an even embedding dimension": "dimension"}


def _reference_embeddings(data):
    """("ok", rows) or ("error", line, kind) from the reference parser."""
    try:
        return "ok", reference_load_embeddings(data)
    except ReferenceParseError as exc:
        return "error", exc.lineno, exc.kind


def _loaded_embeddings(path, data):
    """("ok", rows) or ("error", line, kind) from load_embeddings on `data`
    written to `path`."""
    path.write_bytes(data)
    try:
        return "ok", sg.concat(sg.load_embeddings(path)).tolist()
    except ValueError as exc:
        match = re.fullmatch(rf"{re.escape(str(path))}:(?:(\d+):)? (.*)", str(exc), re.S)
        (kind,) = [k for part, k in _EMB_KINDS.items() if part in match[2]]
        return "error", match[1] and int(match[1]), kind


class TestLoadEmbeddingsMatchesReference:
    """load_embeddings against the bytes-and-regex reference parser: the same
    verdict, rows, error line and error kind."""

    @given(data=embedding_bytes())
    @settings(max_examples=200, deadline=None)
    def test_generated_files(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "generated.emb"
        assert _loaded_embeddings(path, data) == _reference_embeddings(data)

    @pytest.mark.parametrize("text,want", [
        ("0" * 4400 + " 0.1 0.2\n", ("ok", [[0.1, 0.2]])),
        ("-0 0.1 0.2\n+" + "0" * 4400 + "1 0.3 0.4\n", ("ok", [[0.1, 0.2], [0.3, 0.4]])),
        ("0 0.1 0.2\n-" + "0" * 4400 + "1 0.3 0.4\n", ("error", 2, "id")),
        ("0" * 4400 + "1 0.1 0.2\n", ("error", 1, "id")),
        ("0 0.1 0.2\n1" + "0" * 4400 + " 0.3 0.4\n", ("error", 2, "id")),
    ], ids=["zeros", "zeros_then_one", "minus_one", "one_first", "huge_id"])
    def test_long_ids(self, tmp_path, text, want):
        data = text.encode()
        assert _reference_embeddings(data) == want
        assert _loaded_embeddings(tmp_path / "ids.emb", data) == want
