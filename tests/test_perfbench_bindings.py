"""The names the benchmark in perfbench/ traces and counts exist in cpflow.

perfbench/tracer.py wraps the public functions of the cpflow modules, and
perfbench/metrics.py counts calls of some of them by qualified name.  A
rename or deletion in cpflow breaks ``run.py --trace 1`` and
``selftest.py``; these tests catch it without running either.  The two
files are loaded read-only: no bytecode is written next to them and the
tracer is never installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_readonly(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_%s" % name, PERFBENCH / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def traced_names():
    tracer = load_readonly("tracer")
    return {name for name, *_ in tracer.traced_callables()}


def counted_functions():
    metrics = load_readonly("metrics")
    for metric in metrics.PER_LAYER:
        if metric.name.endswith(".calls"):
            head = metric.name[:-len(".calls")]
            yield metrics._QUALIFIED.get(head, head)


@pytest.mark.parametrize("qualified", list(counted_functions()))
def test_counted_function_resolves_and_is_traced(qualified, traced_names):
    layer, *path = qualified.split(".")
    obj = importlib.import_module("cpflow.%s" % layer)
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)
    assert qualified in traced_names


def test_series_terms_counts_the_term_axis_of_a_block():
    # tracer.py counts weights.series_terms as len(result.terms); a block
    # keeps the term axis first, so the count is its longest member's
    import numpy as np
    from cpflow.halfline import ExpKernelVector
    from cpflow.tensorspace import LambdaSequence, ProductVector
    from cpflow.weights import identity_element, omega_z, rank_one

    count = load_readonly("tracer").FACTS["weights.omega_z"]["series_terms"]
    scales = np.array([1.0, 10.0, 1e-4])

    def series(c):
        vec = ProductVector(LambdaSequence("linear"),
                            [ExpKernelVector([(c, 1.0)])] * 2)
        return omega_z(0.5, rank_one(vec), identity_element())

    lengths = [len(series(c).terms) for c in scales]
    assert len(set(lengths)) == 3
    block = series(scales)
    assert block.terms.shape == (max(lengths), 3)
    assert count(None, block) == max(lengths)
