import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sigaug as sg
from sigaug.balance import ETA_MAX, ETA_MIN, check_eta, check_mu
from sigaug.evaluate import ExperimentConfig, MetricReport, MAX_CELLS, run_experiment, sweep
from sigaug.sgnn import TrainConfig

from conftest import parse_report


def tiny_experiment(congress_path, **kw):
    defaults = dict(dataset=str(congress_path), augmentation="none", runs=1,
                    base_seed=0, train=TrainConfig(epochs=5))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestAuc:
    def test_perfect_separation(self):
        assert sg.auc([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0

    def test_all_ties(self):
        assert sg.auc([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1]) == 0.5

    def test_hand_counted_example(self):
        assert sg.auc([0.9, 0.4, 0.6, 0.1], [1, -1, 1, -1]) == 1.0
        # swap one pair's order: 3 of 4 (pos, neg) pairs ranked correctly,
        # plus the swapped one contributes 0
        assert sg.auc([0.9, 0.7, 0.6, 0.1], [1, -1, 1, -1]) == 0.75

    def test_single_class_refused(self):
        with pytest.raises(ValueError, match="both classes"):
            sg.auc([0.4, 0.6], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=40)
        signs = [1 if rng.random() < 0.5 else -1 for _ in range(40)]
        if 1 not in signs:
            signs[0] = 1
        if -1 not in signs:
            signs[1] = -1
        base = sg.auc(scores, signs)
        assert sg.auc(np.exp(3 * scores), signs) == pytest.approx(base, abs=1e-12)


    @given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_count_with_ties(self, rows):
        scores = [s / 4.0 for s, _ in rows]
        signs = [1 if p else -1 for _, p in rows]
        assume(1 in signs and -1 in signs)
        pos = [s for s, sign in zip(scores, signs) if sign > 0]
        neg = [s for s, sign in zip(scores, signs) if sign < 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert sg.auc(scores, signs) == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.special would take most of a cold `import sigaug`,
    # which every CLI call pays
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, sigaug; print([m for m in ('scipy.stats', "
                           "'scipy.special') if m in sys.modules])"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestClassificationMetrics:
    def test_perfect(self):
        m = sg.classification_metrics([1, -1], [1, -1])
        assert all(v == 1.0 for v in m.values())

    def test_all_positive_predictions(self):
        m = sg.classification_metrics([1] * 4, [1, 1, -1, -1])
        assert m["neg_recall"] == 0.0 and m["neg_precision"] == 0.0 and m["neg_f1"] == 0.0

    def test_confusion_arithmetic(self):
        m = sg.classification_metrics([1, 1, -1, -1], [1, -1, -1, -1])
        assert m["neg_precision"] == 1.0
        assert m["neg_recall"] == pytest.approx(2 / 3)
        assert m["neg_f1"] == pytest.approx(0.8)
        assert m["f1_binary_avg"] == pytest.approx((2 / 3 + 0.8) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sg.classification_metrics([1], [1, -1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = [1 if rng.random() < 0.6 else -1 for _ in range(30)]
        truth = [1 if rng.random() < 0.5 else -1 for _ in range(30)]
        base = sg.classification_metrics(pred, truth)
        perm = rng.permutation(30)
        shuffled = sg.classification_metrics([pred[i] for i in perm],
                                             [truth[i] for i in perm])
        assert shuffled == base

    def test_values_are_python_floats(self):
        # a numpy scalar would print as np.float64(...) in the machine report
        m = sg.classification_metrics(np.array([1, 1, -1, -1]), np.array([1, -1, -1, 1]))
        assert all(type(v) is float for v in m.values())


class TestPredictTestEdges:
    def test_symmetric_logits_give_half(self):
        Z = np.zeros((2, 4))
        theta = np.zeros((3, 8))
        scores, signs = sg.predict_test_edges(Z, theta, [(0, 1, 1)])
        assert scores.tolist() == [0.5] and signs.tolist() == [1]

    def test_aligned_classifier_scores_high(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        theta = np.zeros((3, 4))
        theta[0] = [1.0, 0.0, 1.0, 0.0]  # positive row aligned with the feature
        scores, _ = sg.predict_test_edges(Z, theta, [(0, 1, -1)])
        assert scores[0] > 0.5

    def test_three_edge_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(4, 2))
        theta = rng.normal(size=(3, 4))
        test = [(0, 1, 1), (3, 2, -1), (1, 3, 1)]
        scores, signs = sg.predict_test_edges(Z, theta, test)
        for (u, v, s), got in zip(test, scores):
            i, j = min(u, v), max(u, v)
            f = list(Z[i]) + list(Z[j])
            lp = sum(a * b for a, b in zip(theta[0], f))
            ln = sum(a * b for a, b in zip(theta[1], f))
            expected = 1.0 / (1.0 + math.exp(ln - lp))
            assert got == pytest.approx(expected, rel=1e-12)
        assert signs.tolist() == [1, -1, 1]

    def test_empty_test_refused(self):
        with pytest.raises(ValueError):
            sg.predict_test_edges(np.zeros((2, 2)), np.zeros((3, 4)), [])

    def test_scores_equal_scipy_expit_bit_for_bit(self):
        from scipy.special import expit  # the oracle only; sigaug computes expit itself
        edge = [0.0, -0.0, 1e-320, -1e-320, 709.78, -709.78, 745.0, -745.0,
                746.5, -746.5, 1e4, -1e4]
        t = np.concatenate((edge, np.random.default_rng(3).normal(scale=40.0, size=4000)))
        # test edge (i, k) has logit difference t[i]: the "+" row reads the lower
        # endpoint's one feature, and node k's feature -1 meets only zero weights
        k = len(t)
        Z = np.append(t, -1.0)[:, None]
        theta = np.zeros((3, 2))
        theta[0, 0] = 1.0
        scores, _ = sg.predict_test_edges(Z, theta, [(i, k, 1) for i in range(k)])
        assert scores.dtype == np.float64
        assert np.array_equal(scores.view(np.int64), expit(t).view(np.int64))


class TestMetricReport:
    def test_roundtrip_lossless(self):
        report = MetricReport(
            per_run={name: [0.123456789012345, 0.9] for name in
                     ("auc", "f1_binary_avg", "neg_precision", "neg_recall",
                      "neg_f1", "pos_f1")},
            aux={"thresholds_unmet": [0.0, 1.0]},
        )
        lines = report.to_machine_lines()
        parsed = parse_report(lines)
        assert parsed.per_run == report.per_run and parsed.aux == report.aux
        assert parsed.to_machine_lines() == lines

    def test_std_conventions(self):
        report = MetricReport(per_run={"auc": [0.5]})
        assert report.std("auc") == 0.0
        report2 = MetricReport(per_run={"auc": [0.4, 0.6]})
        assert report2.std("auc") == pytest.approx(np.std([0.4, 0.6], ddof=1))
        assert min(report2.per_run["auc"]) <= report2.mean("auc") <= max(report2.per_run["auc"])


class TestRunExperiment:
    def test_deterministic(self, congress_path):
        cfg = tiny_experiment(congress_path)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_machine_lines() == b.to_machine_lines()

    def test_single_run_is_prefix_of_five(self, congress_path):
        one = run_experiment(tiny_experiment(congress_path, runs=1))
        five = run_experiment(tiny_experiment(congress_path, runs=5))
        for name in one.per_run:
            assert five.per_run[name][0] == one.per_run[name][0]
            assert len(five.per_run[name]) == 5

    def test_sigaug_records_aux(self, congress_path):
        rep = run_experiment(tiny_experiment(congress_path, augmentation="sigaug"))
        assert "thresholds_unmet" in rep.aux and "test_pair_hits" in rep.aux

    def test_report_holds_python_floats_only(self, congress_path):
        rep = run_experiment(tiny_experiment(congress_path, augmentation="sigaug", runs=2))
        for values in (*rep.per_run.values(), *rep.aux.values()):
            assert all(type(v) is float for v in values)
        assert not any("np." in line for line in rep.to_machine_lines())

    def test_errors_carry_run_index(self, tmp_path):
        # the dataset has an edge of each sign, but run 0's split holds out the
        # only negative one, so that run's training fails
        bad = tmp_path / "one_negative.txt"
        bad.write_text("0 1 1\n1 2 1\n2 3 -1\n")
        cfg = ExperimentConfig(dataset=str(bad), runs=1, test_fraction=0.3,
                               train=TrainConfig(epochs=1))
        with pytest.raises(RuntimeError,
                           match="run 0 failed: training requires at least one negative edge"):
            run_experiment(cfg)

    @pytest.mark.parametrize("sign,missing", [(1, "negative"), (-1, "positive")])
    def test_dataset_without_an_edge_of_one_sign_refused_before_a_split(
            self, tmp_path, monkeypatch, sign, missing):
        data = tmp_path / "one_sign.txt"
        data.write_text("".join(f"{u} {u + 1} {sign}\n" for u in range(4)))
        monkeypatch.setattr("sigaug.evaluate.split_edges",
                            lambda *args: pytest.fail("split before the check"))
        cfg = ExperimentConfig(dataset=str(data), runs=1, train=TrainConfig(epochs=1))
        with pytest.raises(ValueError, match=f"^training requires at least one {missing} edge$"):
            run_experiment(cfg)

    def test_refused_split_is_not_a_run_failure(self, congress_path):
        with pytest.raises(ValueError, match="holds out no edge of m=520"):
            run_experiment(tiny_experiment(congress_path, test_fraction=0.0005))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", augmentation="dropmessage")
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", mu=0.95)
        # eta is refused when the config is built, before any training, even
        # where no augmentation would use it; any integer type is accepted in
        # range, but not a bool or a float
        for eta in (ETA_MIN - 1, ETA_MAX + 1, np.int64(ETA_MAX + 1), True, 4.0, 3.5):
            with pytest.raises(ValueError, match="eta must be an integer in"):
                ExperimentConfig(dataset="x", augmentation="none", eta=eta)
        assert ExperimentConfig(dataset="x", eta=ETA_MAX).eta == ETA_MAX
        assert ExperimentConfig(dataset="x", eta=np.int64(ETA_MIN)).eta == ETA_MIN
        with pytest.raises(ValueError, match="unknown format"):
            ExperimentConfig(dataset="x", input_format="csv")
        for theta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="theta must be positive and finite"):
                ExperimentConfig(dataset="x", augmentation="sigaug", theta=theta)

    @pytest.mark.parametrize("field,value,check", [("mu", 0.95, check_mu),
                                                   ("eta", ETA_MAX + 1, check_eta)])
    def test_mu_and_eta_refused_with_balance_messages(self, field, value, check):
        # one copy of each range check: both configs raise what balance raises
        with pytest.raises(ValueError) as want:
            check(value)
        for build in (lambda: ExperimentConfig(dataset="x", **{field: value}),
                      lambda: sg.EPRConfig(1.0, 0.5, **{"mu": 0.7, field: value})):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("field,value,message", [
        ("theta", 0.0, "theta must be positive and finite"),
        ("theta", math.nan, "theta must be positive and finite"),
        ("theta", math.inf, "theta must be positive and finite"),
        ("delta", -0.1, "delta must be in [0, 1]"),
        ("delta", 1.5, "delta must be in [0, 1]")])
    def test_targets_refused_with_one_message(self, field, value, message):
        # EPRConfig owns the target checks; ExperimentConfig's fields share their names
        targets = {"theta": 1.0, "delta": 0.5, field: value}
        for build in (lambda: ExperimentConfig(dataset="x", **targets),
                      lambda: sg.EPRConfig(theta_target=targets["theta"],
                                           delta_target=targets["delta"], mu=0.7)):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == message


class TestSweep:
    def test_single_cell_matches_run_experiment(self, congress_path):
        cfg = tiny_experiment(congress_path, augmentation="sigaug", runs=2)
        rows = sweep(cfg, {"mu": [0.7], "theta": [1 / 9], "delta": [0.6]})
        direct = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0][3] == pytest.approx(direct.mean("auc"))

    def test_rows_in_grid_order(self, congress_path):
        cfg = tiny_experiment(congress_path, augmentation="sigaug", runs=1)
        rows = sweep(cfg, {"mu": [0.1, 0.5], "theta": [1 / 9], "delta": [0.2, 0.4]})
        assert [(r[0], r[2]) for r in rows] == [(0.1, 0.2), (0.1, 0.4), (0.5, 0.2), (0.5, 0.4)]

    def test_cap_refusal(self, congress_path):
        cfg = tiny_experiment(congress_path)
        with pytest.raises(ValueError, match=f"{MAX_CELLS + 1} cells"):
            sweep(cfg, {"mu": [0.1], "theta": [0.5], "delta": [0.2] * (MAX_CELLS + 1)})

    def test_missing_axis(self, congress_path):
        cfg = tiny_experiment(congress_path)
        with pytest.raises(ValueError, match="delta"):
            sweep(cfg, {"mu": [0.1], "theta": [0.5], "delta": []})

    def test_cells_checked_before_dataset_loads(self, tmp_path):
        cfg = ExperimentConfig(dataset=str(tmp_path / "missing.txt"))
        with pytest.raises(ValueError, match="mu must be"):
            sweep(cfg, {"mu": [0.7, 0.95], "theta": [1 / 9], "delta": [0.6]})

    def test_perturbation_beats_identity(self, congress_path):
        cfg = tiny_experiment(congress_path, augmentation="sigaug", runs=2,
                              train=TrainConfig(epochs=30))
        rows = sweep(cfg, {"mu": [0.7], "theta": [1 / 9], "delta": [0.0, 0.6]})
        assert rows[1][3] >= rows[0][3]

