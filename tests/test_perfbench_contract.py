"""The benchmark tracer still finds every fockgraph function it wraps.

`perfbench/tracer.py` binds functions by module and name and reads some of
their arguments by name; a rename or signature change would break
`perfbench/run.py --trace 1`.  This runs the tracer over five quick
experiments.
"""

import importlib.util
from pathlib import Path

import pytest

from fockgraph import cli
from fockgraph.config import default_config

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_bound(tracer_module):
    assert tracer_module.Tracer().missing == []


def test_traced_experiments_pass_and_count_nodes(tracer_module):
    # The quadrature experiments at cutoff 6; anticlique at its default
    # cutoff 16, where it passes (at cutoff 6 truncation fails it).
    integrators = ("gs", "covariant_gs", "projection", "resolution")
    runs = {**{name: ["--cutoff", "6"] for name in integrators}, "anticlique": []}
    tracer = tracer_module.Tracer()
    codes, nodes = {}, {}
    tracer.install()
    try:
        for name, flags in runs.items():
            start = len(tracer.counts)
            codes[name] = cli.main(["--quiet", "--experiment", name, *flags])
            nodes[name] = [value for _, metric, value in tracer.counts[start:] if metric == "quadrature.nodes"]
    finally:
        tracer.uninstall()
    assert codes == {name: 0 for name in runs}
    # One integrator call each, over the radial_order * angular_order nodes
    # of its own default rule at cutoff 6, however the integrator batches
    # them; anticlique integrates nothing.
    rules = {name: default_config(name, {"cutoff": 6}) for name in integrators}
    assert nodes == {**{name: [cfg.radial_order * cfg.angular_order] for name, cfg in rules.items()}, "anticlique": []}
