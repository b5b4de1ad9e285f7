"""The package names that ``benchmarks/tracer.py`` binds.

The tracer looks functions, classes and parameters up by name.  The
benchmark tests are outside the tier-1 test paths, so a renamed parameter or
constructor would otherwise show only as failed benchmark runs.  The tracer
module is loaded from its file and only read; nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from skybps import solutions
from skybps.exterior import mat_inv
from skybps.lie_target import TargetGeometry, u1_s3_adjoint_target

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("skybps_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_layers_and_classes_exist():
    tracer = _tracer()
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"skybps.{layer}")
        for cls in tracer.CLASSES.get(layer, ()):
            assert inspect.isclass(getattr(mod, cls)), f"{layer}.{cls}"


def test_tracer_probed_signatures():
    params = list(inspect.signature(TargetGeometry.volume).parameters)
    assert params[:3] == ["self", "n", "margins"]
    assert next(iter(inspect.signature(mat_inv).parameters)) == "m"
    tracer = _tracer()
    key = tracer._volume_key(TargetGeometry.volume, (u1_s3_adjoint_target(),), {})
    assert "u1-s3-adjoint" in key and "96" in key
    assert tracer._matrix_key(mat_inv, (np.eye(3)[:, :, None, None, None],), {})


def test_tracer_family_builders_are_solutions_functions():
    for name in _tracer().FAMILY_BUILDERS:
        fn = getattr(solutions, name)
        assert inspect.isfunction(fn) and fn.__module__ == "skybps.solutions", name
