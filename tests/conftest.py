import os
import pathlib

import pytest

import sigaug as sg
from sigaug.evaluate import METRIC_NAMES, MetricReport

REPO = pathlib.Path(__file__).resolve().parent.parent
CONGRESS = REPO / "data" / "congress_synthetic.txt"
# the breaks str.splitlines honours besides the line feed and CRLF; the input
# readers end lines at line feeds only
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# the subprocess tests run `python -m sigaug`: give them this checkout's src/,
# as pyproject's pytest pythonpath gives it to this process
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))


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
