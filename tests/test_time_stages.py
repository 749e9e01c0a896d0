import json

import sigaug as sg


def test_time_train_smoke(time_stages, congress_path, congress_graph, tmp_path):
    # two epochs on Congress: every figure of the train half is reported, the
    # set-up and stages fit inside the whole train, the wrapped functions are
    # restored, and timing changes no embedding
    wrapped = [dict(vars(time_stages.sgnn)), dict(vars(time_stages.aug))]
    out = tmp_path / "stages.json"
    time_stages.main(["--dataset", str(congress_path), "--epochs", "2", "--out", str(out)])
    result = json.loads(out.read_text())
    assert [dict(vars(time_stages.sgnn)), dict(vars(time_stages.aug))] == wrapped
    assert list(result) == ["graph", "epochs", "seed", "train", "augment", "provenance"]
    assert result["graph"] == {"source": "congress_synthetic.txt", "n": 219, "edges": 520,
                               "train_edges": 416} and result["epochs"] == 2
    train = result["train"]
    assert list(train) == ["setup_s", "stage_s", "epoch_stage_s", "other_s", "train_s"]
    assert list(train["setup_s"]) == ["_GraphTensors", "_edge_rows", "_null_pool"]
    assert all(s > 0 for s in train["setup_s"].values())
    assert list(train["stage_s"]) == ["sampling", "forward", "loss", "backward"]
    assert all(len(dts) == 2 for dts in train["epoch_stage_s"].values())
    timed = sum(train["setup_s"].values()) + sum(train["stage_s"].values())
    assert 0 < timed <= train["train_s"] and train["other_s"] >= 0
    assert set(result["provenance"]) == {"python", "numpy", "scipy", "blas_threads",
                                         "cpu_count"}

    split = sg.split_edges(congress_graph, sg.ExperimentConfig.test_fraction, 0)
    cfg = sg.TrainConfig(epochs=2, seed=0)
    trained, _report = time_stages.timed_train(split.train, cfg)
    assert (sg.concat(trained.embeddings).tobytes()
            == sg.concat(sg.train(split.train, cfg).embeddings).tobytes())


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
