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
