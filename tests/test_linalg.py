import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcones import linalg


RNG = np.random.default_rng(1234)


def test_hs_inner_matches_trace_formula():
    a = linalg.random_complex((3, 3), RNG)
    b = linalg.random_complex((3, 3), RNG)
    assert abs(linalg.hs_inner(a, b) - np.trace(a @ b.conj().T)) < 1e-12


def test_hs_inner_conjugate_symmetry():
    a = linalg.random_complex((4, 4), RNG)
    b = linalg.random_complex((4, 4), RNG)
    assert abs(linalg.hs_inner(a, b) - np.conj(linalg.hs_inner(b, a))) < 1e-12


def test_hermiticity_defect_zero_for_hermitian():
    h = linalg.random_hermitian(4, RNG)
    assert linalg.hermiticity_defect(h) < 1e-14
    assert linalg.hermiticity_defect(h + 0.1j * np.eye(4)) > 0.01


def test_singular_values_descending_and_match_svd():
    a = linalg.random_complex((3, 5), RNG)
    s = linalg.singular_values(a)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(s, np.linalg.svd(a, compute_uv=False))


def test_matrix_unit():
    e = linalg.matrix_unit(3, 1, 2)
    expect = np.zeros((3, 3))
    expect[1, 2] = 1
    assert np.array_equal(e, expect)


def test_random_unitary_is_unitary():
    u = linalg.random_unitary(4, RNG)
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12


def _random_complex_oracle(shape, rng):
    """random_complex as one call drew it: real parts, then imaginary parts,
    the complex array divided in place by sqrt(2)."""
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2)
    return out


@pytest.mark.parametrize("shapes,trials", [([(3, 2), 4, (2, 2, 2)], 5), ([(4, 1), (1, 4)], 1),
                                           ([np.int64(6)], 3), ([(9, 9)] * 2, 7)])
@pytest.mark.parametrize("as_generator", [False, True])
def test_random_complex_trials_equal_the_per_trial_loop(shapes, trials, as_generator):
    rng = np.random.default_rng(17) if as_generator else 17
    stacks = linalg.random_complex_trials(shapes, trials, rng)
    loop, calls = np.random.default_rng(17), np.random.default_rng(17)
    assert len(stacks) == len(shapes)
    for z in range(trials):
        for shape, stack in zip(shapes, stacks):
            expect = _random_complex_oracle(shape, loop)
            assert stack.shape == (trials, *np.atleast_1d(shape))
            assert stack[z].tobytes() == expect.tobytes()
            assert linalg.random_complex(shape, calls).tobytes() == expect.tobytes()
    if as_generator:
        # the bulk draw leaves the Generator where the loop leaves its own
        assert rng.standard_normal() == loop.standard_normal()


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_matrix_json_roundtrip(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = linalg.random_complex((rows, cols), rng)
    obj = linalg.matrix_to_json(m)
    json.dumps(obj)  # must be serializable
    back = linalg.matrix_from_json(obj)
    assert np.allclose(back, m, atol=0, rtol=0)


def test_matrix_json_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_json(
            {"rows": 1, "cols": 1, "entries": [[float("nan"), 0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"rows": 0, "cols": 1, "entries": []})


@pytest.mark.parametrize("obj", [
    {"rows": True, "cols": 1, "entries": [[1, 0]]},
    {"rows": 2.9, "cols": 1, "entries": [[1, 0], [2, 0]]},
    {"rows": 1, "cols": [1], "entries": [[1, 0]]},
    {"rows": 1, "cols": 1, "entries": 7},
    {"rows": 1, "cols": 1, "entries": [5]},
    {"rows": 1, "cols": 1, "entries": [{"re": 1, "im": 0}]},
    {"rows": 1, "cols": 1, "entries": [[1, None]]},
    {"rows": 1, "cols": 1, "entries": [[10**400, 0]]},
], ids=["bool_dim", "float_dim", "list_dim", "int_entries", "int_entry",
        "object_entry", "null_part", "huge_part"])
def test_matrix_json_raises_value_error_never_type_error(obj):
    # pytest.raises(ValueError) does not catch a TypeError
    with pytest.raises(ValueError):
        linalg.matrix_from_json(obj)


def test_matrix_json_keeps_integral_dims_and_number_pairs():
    obj = {"rows": np.int64(1), "cols": 2, "entries": ([1, 0], (2.5, -1))}
    assert np.array_equal(linalg.matrix_from_json(obj), [[1, 2.5 - 1j]])


def test_dimension_error_is_value_error():
    assert issubclass(linalg.DimensionError, ValueError)


def test_only_linalg_calls_the_eigensolvers():
    # every Hermitian eigenproblem goes through linalg.hermitian_part_eigen{,vals}
    solver = re.compile(r"\bnp\.linalg\.eigh\b|\beigvalsh\b")
    package = Path(linalg.__file__).parent
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(package.glob("*.py")) if path.name != "linalg.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if solver.search(line)]
    assert not offenders, offenders
