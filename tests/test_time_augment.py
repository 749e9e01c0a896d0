import importlib
import importlib.util
import json
import sys

from conftest import REPO


def test_time_augment_smoke(tmp_path, monkeypatch):
    # a small generated graph: the parts of each phase fit inside it, the phases
    # inside the whole augment, and the wrapped functions are restored;
    # the tool's sys.path entries and bytecode do not outlive the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("time_augment",
                                                  REPO / "tools" / "time_augment.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    module = importlib.import_module("sigaug.augment")
    wrapped = {name: getattr(module, name) for name in tool.WRAPPED}
    out = tmp_path / "augment.json"
    tool.main(["--n", "300", "--m", "1200", "--epochs", "2", "--out", str(out)])
    result = json.loads(out.read_text())
    assert {name: getattr(module, name) for name in tool.WRAPPED} == wrapped
    assert set(result) == {"graph", "epochs", "seed", "targets", "setup_s", "rounds_s",
                           "final_s", "augment_s", "calls", "log_entries", "kept",
                           "provenance"}
    assert result["graph"] == {"source": "gen_graph.generate(0, 300, 1200)", "n": 300,
                               "edges": 1200, "train_edges": 960}
    assert list(result["setup_s"]) == ["products", "ranking", "other", "total"]
    assert list(result["rounds_s"]) == ["products", "ranking", "gate", "other", "total"]
    assert result["setup_s"]["products"] > 0 and result["setup_s"]["ranking"] > 0
    for phase in ("setup_s", "rounds_s"):
        assert all(s >= 0 for s in result[phase].values())
    assert list(result["final_s"]) == ["checks", "graph", "total"]
    assert all(s >= 0 for s in result["final_s"].values())
    assert result["final_s"]["checks"] > 0 and result["final_s"]["graph"] > 0
    assert set(result["calls"]) == {"rounds", "refills", "gate", "checks"}
    # one check before each round, and one more when the targets end the loop
    assert result["calls"]["checks"] - result["calls"]["rounds"] in (0, 1)
    assert result["calls"]["rounds"] > 0 and result["calls"]["gate"] > 0
    assert result["log_entries"] >= result["kept"] > 0
    assert 0 < result["setup_s"]["total"] + result["rounds_s"]["total"] <= result["augment_s"]
    assert set(result["provenance"]) == {"python", "numpy", "scipy", "blas_threads",
                                         "cpu_count"}
