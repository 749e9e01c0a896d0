import importlib.util
import json
import sys

from conftest import REPO
from sigaug import sgnn


def test_time_train_smoke(congress_path, tmp_path, monkeypatch):
    # two epochs on Congress: every set-up function is timed once, every stage
    # once per epoch, their times fit inside the whole train, and the wrapped
    # functions are restored;
    # the tool's sys.path entries and bytecode do not outlive the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("time_train", REPO / "tools" / "time_train.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = (*tool.SETUP, *tool.STAGES.values())
    wrapped = {name: getattr(sgnn, name) for name in names}
    out = tmp_path / "train.json"
    tool.main(["--dataset", str(congress_path), "--epochs", "2", "--out", str(out)])
    result = json.loads(out.read_text())
    assert {name: getattr(sgnn, name) for name in names} == wrapped
    assert set(result) == {"graph", "epochs", "seed", "setup_s", "stage_s", "epoch_stage_s",
                           "other_s", "train_s", "provenance"}
    assert result["graph"] == {"source": "congress_synthetic.txt", "n": 219, "edges": 520,
                               "train_edges": 416}
    assert result["epochs"] == 2
    assert list(result["setup_s"]) == ["_GraphTensors", "_edge_rows", "_null_pool"]
    assert all(s > 0 for s in result["setup_s"].values())
    assert list(result["stage_s"]) == ["sampling", "forward", "loss", "backward"]
    assert all(len(dts) == 2 for dts in result["epoch_stage_s"].values())
    timed = sum(result["setup_s"].values()) + sum(result["stage_s"].values())
    assert 0 < timed <= result["train_s"]
    assert result["other_s"] >= 0
    assert set(result["provenance"]) == {"python", "numpy", "scipy", "blas_threads",
                                         "cpu_count"}
