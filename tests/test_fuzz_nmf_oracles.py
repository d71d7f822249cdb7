"""Property tests: NMF's closures form the smooth part and the exact moduli
inline, bit for bit as the references ``nmf_objective`` and ``nmf_lipschitz``
in `oracles` do, and ``spectral_norm`` rejects a matrix with a non-finite
entry anywhere, also in the upper triangle that ``eigvalsh`` never reads."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from oracles import nmf_feasible_ref, nmf_lipschitz, nmf_objective  # noqa: E402

from ipalm.blockmodel import BlockVector  # noqa: E402
from ipalm.lipschitz import SAFEGUARD, EstimationError, spectral_norm  # noqa: E402
from ipalm.nmf import make_nmf_problem  # noqa: E402

REPEATED = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0])
REAL = st.one_of(REPEATED, st.floats(-1e3, 1e3, allow_nan=False))
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
ANY = st.one_of(REAL, NON_FINITE)


def bits(v) -> bytes:
    return np.float64(v).tobytes()


def matrices(elements, rows, cols):
    return hnp.arrays(np.float64, st.tuples(rows, cols), elements=elements)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(data=st.data(), m=st.integers(1, 6), r=st.integers(1, 3), n=st.integers(1, 5))
def test_smooth_part_and_objective_are_the_reference_ones(data, m, r, n):
    A = data.draw(matrices(st.floats(0, 1e3), st.just(m), st.just(n)))
    s = data.draw(st.integers(0, m))
    problem = make_nmf_problem(A, r=r, s=s)
    elements = data.draw(st.sampled_from([REAL, ANY]))
    B = data.draw(matrices(elements, st.just(m), st.just(r)))
    C = data.draw(matrices(elements, st.just(r), st.just(n)))
    x = BlockVector([B, C])
    # inf * 0 and inf - inf make NaN, which both sides must carry alike
    with np.errstate(invalid="ignore"):
        want = nmf_objective(A, B, C)
        assert bits(problem.eval_H(x)) == bits(want)
        feasible = nmf_feasible_ref(B, C, s)
        assert bits(problem.eval_F(x)) == bits(want if feasible else np.inf)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(data=st.data(), m=st.integers(1, 6), r=st.integers(1, 3), n=st.integers(1, 5))
def test_gradient_values_and_moduli_are_the_reference_ones(data, m, r, n):
    A = data.draw(matrices(st.floats(0, 1e3), st.just(m), st.just(n)))
    problem = make_nmf_problem(A, r=r, s=m)
    B = data.draw(matrices(REAL, st.just(m), st.just(r)))
    C = data.draw(matrices(REAL, st.just(r), st.just(n)))
    x = BlockVector([B, C])
    want = bits(nmf_objective(A, B, C))
    for i in (0, 1):
        g, value = problem.partial_grad(i, x, value=True)
        assert bits(value) == want
        assert g.tobytes() == problem.partial_grad(i, x).tobytes()
        assert bits(problem.lipschitz(i, x)) == bits(nmf_lipschitz(i, B, C))


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(data=st.data(), size=st.integers(1, 6))
def test_spectral_norm_rejects_a_non_finite_entry_anywhere(data, size):
    M = data.draw(matrices(REAL, st.just(size), st.just(size)))
    if data.draw(st.booleans()):
        i, j = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
        M[i, j] = data.draw(NON_FINITE)
        with pytest.raises(EstimationError, match="non-finite"):
            spectral_norm(M)
    else:
        assert bits(spectral_norm(M)) == bits(float(np.linalg.eigvalsh(M)[-1]) * SAFEGUARD)
