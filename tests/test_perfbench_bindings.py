"""The names the benchmark in perfbench/ traces and counts exist in cpflow.

perfbench/tracer.py wraps the public functions of the cpflow modules, and
perfbench/metrics.py counts calls of some of them by qualified name.  A
rename or deletion in cpflow breaks ``run.py --trace 1`` and
``selftest.py``; these tests catch it without running either.  So does a
change that drops a counted function from a workload, or calls it from
one that ``metrics.uses`` does not name: one campaign of each workload
runs here under a profile hook, as selftest.py's coverage rule runs it
under the tracer.  The files are loaded read-only: no bytecode is
written next to them and the tracer is never installed.
"""

import importlib
import importlib.util
import sys
from collections import Counter
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


METRICS = load_readonly("metrics")


def resolve(qualified):
    """The cpflow object a qualified name (layer.attr...) names."""
    layer, *path = qualified.split(".")
    obj = importlib.import_module("cpflow.%s" % layer)
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def counted_metrics():
    """(metric, qualified name of the function it counts) per *.calls
    metric."""
    for metric in METRICS.PER_LAYER:
        if metric.name.endswith(".calls"):
            head = metric.name[:-len(".calls")]
            yield metric, METRICS._QUALIFIED.get(head, head)


@pytest.mark.parametrize("qualified",
                         [qualified for _, qualified in counted_metrics()])
def test_counted_function_resolves_and_is_traced(qualified, traced_names):
    obj = resolve(qualified)
    assert callable(obj)
    assert qualified in traced_names


@pytest.fixture(scope="module")
def campaign_calls(tmp_path_factory):
    """Calls of each counted function in one campaign of each workload at
    the benchmark's default seed, counted on the functions' code objects,
    so a call through any binding counts."""
    workloads = load_readonly("workloads")
    codes = {resolve(qualified).__code__: metric.name
             for metric, qualified in counted_metrics()}
    out = {}
    for workload in METRICS.WORKLOADS:
        out_dir = tmp_path_factory.mktemp(workload)
        steps = workloads.prepare(workload, 2024, out_dir)
        tally, seen = workloads.Tally(), Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                seen[codes[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            workloads.run_campaign(steps, out_dir, tally)
        finally:
            sys.setprofile(None)
        assert tally.failed == 0, tally.failures
        out[workload] = seen
    return out


@pytest.mark.parametrize("workload", METRICS.WORKLOADS)
def test_counted_calls_are_nonzero_exactly_where_used(workload,
                                                      campaign_calls):
    # selftest.py's coverage rule: a *.calls metric is nonzero on the
    # workloads its uses names and zero on every other
    calls = campaign_calls[workload]
    for metric, _ in counted_metrics():
        assert (calls[metric.name] > 0) == (workload in metric.uses), (
            metric.name, calls[metric.name], metric.uses)


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


@pytest.fixture(scope="module")
def facts():
    return load_readonly("tracer").FACTS


def test_every_fact_names_a_traced_callable(facts, traced_names):
    # a fact keyed by a name the tracer does not wrap is never recorded
    for qualified in facts:
        assert callable(resolve(qualified)), qualified
        assert qualified in traced_names, qualified


@pytest.mark.parametrize("name", ["weight_superop", "lambda_superop"])
def test_out_bytes_of_a_density_map(facts, name):
    # the maps return density arrays; a result without nbytes would be
    # recorded as 0 bytes
    import numpy as np
    from cpflow.opbasis import MatrixModel

    out_bytes = facts["opbasis.MatrixModel.%s" % name]["out_bytes"]
    model = MatrixModel(n_factors=2)
    rho = np.eye(model.dim_k if name == "weight_superop" else model.dim_h)
    result = getattr(model, name)(rho)
    assert out_bytes((model, rho), result) == result.nbytes > 0


def test_corner_choi_dims_are_int_products(facts, monkeypatch, tmp_path):
    # the fact reads the Choi dimension from the positional
    # (factors, dim_in, dim_out) of every call the corner makes
    import numpy as np
    from cpflow import cli, cornercheck, opbasis

    choi_dim = facts["opbasis.choi_min_eig"]["choi_dim"]
    original = opbasis.choi_min_eig
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, choi_dim(args, result)))
        return result

    for module in (opbasis, cornercheck, cli):
        monkeypatch.setattr(module, "choi_min_eig", recorded)
    cfg = cli.load_config(None)
    rep = cli.Reporter("corner", cfg, tmp_path)
    cli.COMMANDS["corner"](cfg, rep,
                           np.random.default_rng(cfg["seeds"]["rng"]))
    assert calls
    for args, kwargs, dim in calls:
        assert not kwargs and len(args) == 3
        assert type(dim) is int
        assert dim == args[1] * args[2] == args[0].vectors.shape[0]
