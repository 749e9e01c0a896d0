import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import settings

import sigaug as sg
from sigaug.evaluate import METRIC_NAMES, MetricReport

REPO = pathlib.Path(__file__).resolve().parent.parent
CONGRESS = REPO / "data" / "congress_synthetic.txt"
# the breaks str.splitlines honours besides the line feed and CRLF; the input
# readers end lines at line feeds only
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# every property test draws the same examples on every run, so tier-1 repeats;
# a test's own settings keep their example budget
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# the subprocess tests run `python -m sigaug`: give them this checkout's src/,
# as pyproject's pytest pythonpath gives it to this process
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))


def load_tool(name):
    """tools/<name>.py loaded as a module, so its `main` does not run."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def time_stages(monkeypatch):
    """tools/time_stages.py loaded as a module; its sys.path entries and
    bytecode do not outlive the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return load_tool("time_stages")


@pytest.fixture(scope="session")
def congress_path():
    return CONGRESS


@pytest.fixture(scope="session")
def congress_graph():
    with CONGRESS.open("rb") as fh:
        return sg.build_graph(sg.load_edge_list(fh, "signed"))


def random_signed_graph(rng, n, density=0.3, neg_frac=0.3):
    """Erdos-Renyi signed graph helper shared across test modules."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, -1 if rng.random() < neg_frac else 1))
    return sg.SignedGraph(n, edges)


def graph_past_16_bit_ids(seed=0):
    """A signed graph of both signs on 65 600 nodes whose edges join 16 ids on
    both sides of the 8- and 16-bit limits, so that grouping its endpoints by
    node needs a 32-bit sort key."""
    ids = np.array([0, 1, 2, 254, 255, 256, 257, 40_000, 65_534, 65_535, 65_536,
                    65_537, 65_538, 65_597, 65_598, 65_599])
    rng = np.random.default_rng(seed)
    small = random_signed_graph(rng, len(ids), 0.5, 0.4)
    while small.num_pos == 0 or small.num_neg == 0:
        small = random_signed_graph(rng, len(ids), 0.5, 0.4)
    edges = small.edge_array().copy()
    edges[:, :2] = ids[edges[:, :2]]
    return sg.SignedGraph(65_600, edges)


def parse_report(lines):
    """The MetricReport that to_machine_lines wrote: per-run values only, mean
    and std lines skipped, names outside METRIC_NAMES read as aux counters."""
    per_run: dict = {}
    aux: dict = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, run, value = line.split(",")
        if run in ("mean", "std"):
            continue
        target = per_run if name in METRIC_NAMES else aux
        target.setdefault(name, []).append(float(value))
    return MetricReport(per_run=per_run, aux=aux)
