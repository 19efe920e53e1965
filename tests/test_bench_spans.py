"""The benchmark's per-layer spans and counters still find the program.

``perfbench/spans.py`` wraps each layer function by (module, attribute)
and silently skips a name the program no longer has, so a refactor that
moves or renames one would zero that layer's metrics unnoticed.  The
table is read, not edited: the import writes no bytecode there.
"""

import contextlib
import importlib
import io
import os
import sys
from collections import defaultdict

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    sys.path.insert(0, _REPO)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("perfbench.spans")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(_REPO)


def test_every_span_resolves_in_the_program():
    found = defaultdict(list)
    for mod_name, attr, span_name in _spans().SPANNED:
        module = importlib.import_module(mod_name)
        found[span_name].append(hasattr(module, attr))
    assert found
    missing = sorted(name for name, hits in found.items() if not any(hits))
    assert not missing, f"spans with no resolvable (module, attribute): {missing}"


def test_counters_see_the_eigensolver():
    # a bounded law is one domain solve on three nested meshes: 31, 63
    # and 127 pencil rows at --cells 64.  Only the first is bisected; the
    # finer two are warm-started from it by Newton's method
    from specgap import cli, sl_eigensolver

    bisection = sl_eigensolver.eigh_tridiagonal
    tracer = _spans().Tracer()
    tracer.install(dict(sys.modules))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["eigen", "--family", "ball", "--n", "4",
                           "--cells", "64"])
    finally:
        tracer.uninstall()
    counts = tracer.counters
    assert rc == 0
    assert counts["sl_eigensolver.eigh.calls"] == 1
    assert counts["sl_eigensolver.eigh.rows"] == 31
    assert counts["radial_model.log_weight.calls"] > 0
    assert sl_eigensolver.eigh_tridiagonal is bisection


def _traced_sample(extra):
    from specgap import cli

    tracer = _spans().Tracer()
    tracer.install(dict(sys.modules))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sample", "--family", "gaussian", "--n", "3",
                           "--count", "2000", "--seed", "1", *extra])
    finally:
        tracer.uninstall()
    return rc, tracer, [span[0] for span in tracer.spans]


def test_counters_see_the_sampler():
    # the linear test function is the path that still draws points
    from specgap import cli, mc_sampler

    rc, tracer, names = _traced_sample(["--function", "linear"])
    assert rc == 0
    assert tracer.counters["mc_sampler.points"] == 2000
    assert names.count("mc_sampler.sample_mu") == 1
    assert names.count("mc_sampler.rayleigh_estimate") == 1
    assert cli.sample_mu is mc_sampler.sample_mu


def test_default_sample_draws_no_points():
    # the radial default reads radii only: no n-dimensional points
    rc, tracer, names = _traced_sample([])
    assert rc == 0
    assert tracer.counters["mc_sampler.points"] == 0
    assert "mc_sampler.sample_mu" not in names
