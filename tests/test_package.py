import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import hartogs
from hartogs import cli, errors

# The public names of the package, by the module that defines each.
EXPORTS = {
    "polytuple": ["Admissibility", "PolyTuple", "admissibility_degree", "from_polys", "hartogs_tuple",
                  "parse_and_validate", "serialize", "tilde_restrictions"],
    "coeff": ["CoeffTable", "coeff_function", "hartogs_coeff_closed", "reciprocal_power_coeffs"],
    "geometry": ["polydisc_radii", "triangle_contains"],
    "kernel": ["KernelContext", "basis_eval", "bergman_norm_check", "beta_integral_check", "gram_psd_check",
               "hardy_norm_check", "kernel_eval", "kernel_series_eval", "make_context"],
    "shiftops": ["LatticeWindow", "WeightTable", "build_window", "det_commutator_and_trace",
                 "factorization_and_commutation_probe", "norm_bounds", "op_weights",
                 "polydisc_intertwining_check", "spectral_radius_estimate"],
    "subnormality": ["complete_monotonicity_check", "hartogs_certify", "shift_check"],
    "hereditary": ["HereditaryPoly", "MatrixTuple", "hereditary_eval", "ordering_check", "pick_verify",
                   "reciprocal_kernel_polynomial", "toral_lift", "triangle_defect_classify"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh_python(code: str) -> str:
    """stdout of code run by a new interpreter that imports hartogs from this checkout."""
    src = str(Path(hartogs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_export_list():
    assert len(NAMES) == 43
    assert sorted(hartogs.__all__) == NAMES
    assert hartogs.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_module(module):
    defining = importlib.import_module(f"hartogs.{module}")
    for name in EXPORTS[module]:
        assert getattr(hartogs, name) is getattr(defining, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from hartogs import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        hartogs.nope
    assert not hasattr(hartogs, "nope")
    assert set(NAMES) <= set(dir(hartogs))


def test_import_loads_no_submodule():
    loaded = fresh_python("import sys, json, hartogs\n"
                          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hartogs.'))))")
    assert json.loads(loaded) == []


def test_import_error_of_a_submodule_propagates():
    # A name whose module fails to import raises that ImportError, not an
    # AttributeError that hasattr would swallow.
    raised = fresh_python("import sys\n"
                          "sys.modules['hartogs.geometry'] = None\n"
                          "import hartogs\n"
                          "try:\n"
                          "    hartogs.polydisc_radii\n"
                          "except ImportError as exc:\n"
                          "    print(type(exc).__name__, exc)\n")
    assert raised.startswith("ModuleNotFoundError") and "hartogs.geometry" in raised


# One call per input check of the public entry points, with the error it
# raises.  The tuples are built with from_polys or PolyTuple, since
# parse_and_validate rejects them before PolyTuple sees them.
INPUT_CHECKS = {
    "tuple-no-component": (lambda: hartogs.PolyTuple(()), errors.MalformedInput),
    "tuple-bad-exponent": (lambda: hartogs.from_polys([{(1, 0): 1, (0, -1): 1}, {(0, 1): 1}]),
                           errors.MalformedInput),
    "tuple-negative-coefficient": (lambda: hartogs.from_polys([{(1,): 1, (2,): -1}]),
                                   errors.NegativeCoefficient),
    "tuple-constant-term": (lambda: hartogs.from_polys([{(1,): 1, (0,): 1}]), errors.ConstantTerm),
    "hartogs-tuple-negative-a": (lambda: hartogs.hartogs_tuple(2, -1), errors.NegativeCoefficient),
    "parse-term-not-object": (lambda: hartogs.parse_and_validate({"n": 1, "polys": [{"terms": [5]}]}),
                              errors.MalformedInput),
    "parse-no-terms-list": (lambda: hartogs.parse_and_validate({"n": 1, "polys": [{}]}),
                            errors.MalformedInput),
    "power-negative-coefficient": (lambda: hartogs.reciprocal_power_coeffs({(1,): F(-1)}, 1, (3,)),
                                   errors.NegativeCoefficient),
    "power-negative-k": (lambda: hartogs.reciprocal_power_coeffs({(1,): F(1)}, -1, (3,)), ValueError),
    "power-unknown-mode": (lambda: hartogs.reciprocal_power_coeffs({(1,): F(1)}, 1, (3,), mode="x"),
                           ValueError),
    "coeff-function-bounds-length": (lambda: hartogs.coeff_function(hartogs.hartogs_tuple(2), (1, 1), (3,)),
                                     ValueError),
    "closed-form-m-0": (lambda: hartogs.hartogs_coeff_closed((0, 1), (1, 1)), ValueError),
    "context-m-0": (lambda: hartogs.make_context(hartogs.hartogs_tuple(2), (0, 1), (2, 2)),
                    errors.InvalidMultiplicity),
    "beta-negative-l": (lambda: hartogs.beta_integral_check(-1, 0), ValueError),
    "bergman-lengths": (lambda: hartogs.bergman_norm_check((2, 2), (1,)), ValueError),
    "matrix-not-square": (lambda: hartogs.MatrixTuple((np.zeros((2, 3)),)), errors.WrongDimension),
    "kernel-polynomial-n-1": (lambda: hartogs.reciprocal_kernel_polynomial(hartogs.hartogs_tuple(1), (1,)),
                              errors.NotHereditaryPolynomial),
    "kernel-polynomial-m-length": (
        lambda: hartogs.reciprocal_kernel_polynomial(hartogs.hartogs_tuple(2), (1,)), ValueError),
    "hereditary-n-mismatch": (
        lambda: hartogs.hereditary_eval(hartogs.reciprocal_kernel_polynomial(hartogs.hartogs_tuple(2), (1, 1)),
                                        hartogs.MatrixTuple((np.eye(2),))),
        errors.WrongDimension),
    "pick-three-coordinates": (lambda: hartogs.pick_verify([(0, 0, 0)], [0], [[1]], [[1]]),
                               errors.WrongDimension),
    "pick-certificate-shape": (lambda: hartogs.pick_verify([(0, 0.5)], [0], np.eye(2), np.eye(2)),
                               errors.WrongDimension),
    "run-config-not-a-dict": (lambda: cli.run([]), errors.InvalidConfig),
    "run-format-xml": (lambda: cli.run({"command": "coeffs"}, fmt="xml"), errors.InvalidConfig),
}


@pytest.mark.parametrize("call, error", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_each_input_check_raises_its_error(call, error):
    with pytest.raises(error):
        call()
