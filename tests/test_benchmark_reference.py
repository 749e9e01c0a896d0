"""The benchmark's correctness check as a tier-1 test.

Each workload of benchmark/worker.py runs once at seed 0 in this process, and
its output lines must match the stored reference benchmark/reference/*-seed0.txt
under the benchmark's own comparison (floats within 1e-12, everything else
exactly). The generated graph goes to a temporary directory; nothing under
benchmark/ is written.
"""

import pathlib
import sys

import pytest

import sigaug as sg

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's gen_graph, run and worker modules, imported without bytecode."""
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import gen_graph
        import run
        import worker
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return gen_graph, run, worker


@pytest.mark.parametrize("workload", ["congress-sweep", "synth1k-gate"])
def test_seed0_pass_matches_stored_reference(bench, workload, tmp_path):
    gen_graph, run, worker = bench
    spec = worker.WORKLOADS[workload]
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
    lines = worker.run_pass(sg, spec, str(dataset), 0, graph)
    want = (run.REFERENCE / f"{workload}-seed0.txt").read_text().splitlines()
    assert run.compare_lines(lines, want) is None
