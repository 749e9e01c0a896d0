"""The benchmark's correctness checks as tier-1 tests.

Each workload of benchmark/worker.py runs at seed 0 in this process, and its
output lines must match the stored reference benchmark/reference/*-seed0.txt
under the benchmark's own comparison (floats within 1e-12, everything else
exactly). A second pass runs with the worker's tracing installed, and must
pass the traced run's consistency check as well. The generated graph goes to a
temporary directory; nothing under benchmark/ is written.
"""

import importlib
import pathlib
import sys

import pytest

import sigaug as sg

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
WORKLOADS = ["congress-sweep", "synth1k-gate"]

# the modules whose names worker.install_tracing replaces; every attribute of
# each is restored after the traced pass (sigaug.augment is the function, so
# the modules are looked up by name)
TRACED = [importlib.import_module(module) for module in ("sigaug.evaluate", "sigaug.augment")]


@pytest.fixture(scope="module")
def bench():
    """The benchmark's gen_graph, run, spans and worker modules, imported without bytecode."""
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return tuple(importlib.import_module(name)
                     for name in ("gen_graph", "run", "spans", "worker"))
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


def _load(bench, spec, tmp_path):
    """The workload's dataset path and graph, built as the worker builds them."""
    gen_graph, _, _, worker = bench
    if spec["dataset"] is None:
        edges = gen_graph.generate(0)
        gen_graph.check(edges)
        dataset = tmp_path / "graph.txt"
        gen_graph.write(edges, dataset)
    else:
        dataset = worker.ROOT / spec["dataset"]
    with open(dataset, "rb") as fh:
        graph = sg.build_graph(sg.load_edge_list(fh, "signed"))
    assert (graph.n, graph.num_edges, graph.num_neg) == (spec["nodes"], spec["edges"], spec["neg"])
    return str(dataset), graph


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_pass_matches_stored_reference(bench, workload, tmp_path):
    _, run, _, worker = bench
    spec = worker.WORKLOADS[workload]
    dataset, graph = _load(bench, spec, tmp_path)
    lines = worker.run_pass(sg, spec, dataset, 0, graph)
    want = (run.REFERENCE / f"{workload}-seed0.txt").read_text().splitlines()
    assert run.compare_lines(lines, want) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_traced_pass_is_consistent(bench, workload, tmp_path, monkeypatch):
    _, run, spans, worker = bench
    spec = worker.WORKLOADS[workload]
    dataset, graph = _load(bench, spec, tmp_path)
    for module in TRACED:
        for name, value in list(vars(module).items()):
            monkeypatch.setattr(module, name, value)
    rec = spans.Recorder()
    worker.install_tracing(rec)
    with rec.span("bench.pass"):
        lines = worker.run_pass(sg, spec, dataset, 0, graph)
    child = {"all_closed": rec.all_closed(), "spans": rec.spans,
             "layers": spans.layer_metrics(rec.spans)}
    assert run.trace_problems(spec, child) == []
    want = (run.REFERENCE / f"{workload}-seed0.txt").read_text().splitlines()
    assert run.compare_lines(lines, want) is None
