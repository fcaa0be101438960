"""The benchmark tracer still finds every fockgraph function it wraps.

`perfbench/tracer.py` binds functions by module and name and reads some of
their arguments by name; a rename or signature change would break
`perfbench/run.py --trace 1`.  This runs the tracer over four quick
experiments.
"""

import importlib.util
from pathlib import Path

import pytest

from fockgraph import cli

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
    experiments = ("gs", "covariant_gs", "projection", "resolution")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = {name: cli.main(["--quiet", "--experiment", name, "--cutoff", "6"]) for name in experiments}
    finally:
        tracer.uninstall()
    assert codes == {name: 0 for name in experiments}
    assert any(metric == "quadrature.nodes" and value > 0 for _, metric, value in tracer.counts)
