import json

import sigaug as sg


def test_time_augment_smoke(time_stages, tmp_path):
    # a small generated graph: every figure of the augment half is reported,
    # the parts of each phase fit inside it and the phases inside the whole
    # augment, the wrapped functions are restored, and timing changes no log
    wrapped = dict(vars(time_stages.aug))
    out = tmp_path / "stages.json"
    time_stages.main(["--n", "300", "--m", "1200", "--epochs", "2", "--out", str(out)])
    result = json.loads(out.read_text())
    assert dict(vars(time_stages.aug)) == wrapped
    assert result["graph"] == {"source": "gen_graph.generate(0, 300, 1200)", "n": 300,
                               "edges": 1200, "train_edges": 960}
    augment = result["augment"]
    assert list(augment) == ["targets", "setup_s", "rounds_s", "final_s", "augment_s", "calls",
                             "log_entries", "kept"]
    spec = time_stages.worker.WORKLOADS["synth1k-gate"]  # the benchmark workload's targets
    assert augment["targets"] == {"theta_target": spec["theta"], "delta_target": spec["delta"],
                                  "mu": spec["mu"], "eta": spec["eta"]}
    assert list(augment["setup_s"]) == ["products", "ranking", "other", "total"]
    assert list(augment["rounds_s"]) == ["products", "ranking", "gate", "other", "total"]
    assert list(augment["final_s"]) == ["checks", "graph", "total"]
    for phase in ("setup_s", "rounds_s", "final_s"):
        assert all(s >= 0 for s in augment[phase].values())
    assert augment["setup_s"]["products"] > 0 and augment["setup_s"]["ranking"] > 0
    assert augment["final_s"]["checks"] > 0 and augment["final_s"]["graph"] > 0
    assert 0 < augment["setup_s"]["total"] + augment["rounds_s"]["total"] <= augment["augment_s"]
    calls = augment["calls"]
    assert list(calls) == ["rounds", "refills", "gate", "checks"]
    # one check before each round, and one more when the targets end the loop
    assert calls["checks"] - calls["rounds"] in (0, 1)
    assert calls["rounds"] > 0 and calls["gate"] > 0
    assert augment["log_entries"] >= augment["kept"] > 0

    g = sg.SignedGraph(300, time_stages.gen_graph.generate(0, 300, 1200))
    split = sg.split_edges(g, sg.ExperimentConfig.test_fraction, 0)
    pair = sg.train(split.train, sg.TrainConfig(epochs=2, seed=0)).embeddings
    cfg = sg.EPRConfig(**time_stages.TARGETS)
    augmented, _report = time_stages.timed_augment(split.train, pair, cfg)
    assert augmented.log.to_lines() == sg.augment(split.train, pair, cfg).log.to_lines()
