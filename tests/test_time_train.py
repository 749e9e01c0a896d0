import importlib.util
import json
import sys

from conftest import REPO
from sigaug import sgnn


def test_time_train_smoke(congress_path, tmp_path, monkeypatch):
    # two epochs on Congress: every stage is timed once per epoch, the stage
    # times fit inside the whole train, and the stage functions are restored;
    # the tool's sys.path entries and bytecode do not outlive the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("time_train", REPO / "tools" / "time_train.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    stages = {name: getattr(sgnn, name) for name in tool.STAGES.values()}
    out = tmp_path / "train.json"
    tool.main(["--dataset", str(congress_path), "--epochs", "2", "--out", str(out)])
    result = json.loads(out.read_text())
    assert {name: getattr(sgnn, name) for name in tool.STAGES.values()} == stages
    assert set(result) == {"graph", "epochs", "seed", "stage_s", "epoch_stage_s",
                           "other_s", "train_s", "provenance"}
    assert result["graph"] == {"source": "congress_synthetic.txt", "n": 219, "edges": 520,
                               "train_edges": 416}
    assert result["epochs"] == 2
    assert list(result["stage_s"]) == ["sampling", "forward", "loss", "backward"]
    assert all(len(dts) == 2 for dts in result["epoch_stage_s"].values())
    assert 0 < sum(result["stage_s"].values()) <= result["train_s"]
    assert result["other_s"] >= 0
    assert set(result["provenance"]) == {"python", "numpy", "scipy", "blas_threads",
                                         "cpu_count"}
