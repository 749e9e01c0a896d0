"""Tests of the benchmark's own parts: python3 -m pytest benchmark/test_bench.py"""

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import gen_graph  # noqa: E402
import worker  # noqa: E402
from run import compare_lines  # noqa: E402
from spans import Recorder, layer_metrics, self_times  # noqa: E402


def test_generator_is_deterministic_per_seed():
    edges = gen_graph.generate(7)
    assert edges == gen_graph.generate(7)
    assert edges != gen_graph.generate(8)
    gen_graph.check(edges)
    with pytest.raises(ValueError):
        gen_graph.check(edges[:-1])


def test_self_time_subtracts_covered_child_time():
    def span(i, parent, start, end):
        return {"id": i, "name": f"s{i}", "parent": parent, "start": start, "end": end,
                "counts": {}, "rss_rise_mb": 0.0}

    spans = [span(0, None, 0.0, 10.0),
             span(1, 0, 1.0, 4.0),
             span(2, 1, 2.0, 3.5),
             span(3, 0, 6.0, 7.0),
             span(4, None, 20.0, 21.0)]
    assert self_times(spans) == {0: 6.0, 1: 1.5, 2: 1.5, 3: 1.0, 4: 1.0}


def test_reference_check_rejects_a_metric_off_by_more_than_tolerance():
    want = ["# columns: metric,run,value", "auc,0,0.75", "auc,mean,0.75", "thresholds_unmet,0,0.0"]
    assert compare_lines(list(want), want) is None
    assert compare_lines(["# columns: metric,run,value", "auc,0,0.7500000000005",
                          "auc,mean,0.75", "thresholds_unmet,0,0.0"], want) is None
    off = ["# columns: metric,run,value", "auc,0,0.750000000002", "auc,mean,0.75",
           "thresholds_unmet,0,0.0"]
    assert "line 1" in compare_lines(off, want)
    assert compare_lines(want[:-1], want) is not None
    assert compare_lines(["# columns: metric,run,value", "auc,1,0.75", "auc,mean,0.75",
                          "thresholds_unmet,0,0.0"], want) is not None


def test_gate_tallies_equal_gated_log_entries(monkeypatch):
    sg = worker.import_program()
    ev = sys.modules["sigaug.evaluate"]
    au = sys.modules["sigaug.augment"]
    for module, name in ((ev, "augment"), (au, "edge_probabilities"), (au, "perturb_step"),
                         (au, "pair_utility"), (au, "fuse"), (ev, "split_edges"),
                         (ev, "train"), (ev, "predict_test_edges"), (ev, "auc"),
                         (ev, "classification_metrics")):
        monkeypatch.setattr(module, name, getattr(module, name))  # restored afterwards
    rec = Recorder()
    worker.install_tracing(rec)
    with open(worker.ROOT / "data" / "congress_synthetic.txt", "rb") as fh:
        g = sg.build_graph(sg.load_edge_list(fh, "signed"))
    rng = np.random.default_rng(0)
    pair = sg.EmbeddingPair(rng.normal(size=(g.n, 8)), rng.normal(size=(g.n, 8)))
    aug = ev.augment(g, pair, sg.EPRConfig(theta_target=1 / 9, delta_target=0.6, mu=0.7))

    assert rec.all_closed()
    gated = [e for e in aug.log.entries if e.euf_verdict != au.NOT_GATED]
    layers = layer_metrics(rec.spans)
    tallies = (layers["balance.gate_keep"] + layers["balance.gate_discard"]
               + layers["balance.gate_undefined"])
    assert gated and tallies == len(gated) == layers["balance.pair_utility_calls"]
    assert layers["augment.log_entries"] == len(aug.log)
    assert layers["augment.rounds"] >= 1
    assert layers["augment.select_s"] <= layers["augment.perturb_step_s"]
