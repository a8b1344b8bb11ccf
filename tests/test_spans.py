"""The stacked span layer against the Python loops it replaced.

The reference copies below are the span code as it stood before spans were
stored as one ``(n, d, d)`` array: modified Gram-Schmidt over a basis list,
projection by a loop over basis elements, and the Knill-Laflamme check by a
loop over the error set.  The stacked code (spans now by one SVD of the
unit-norm generators) must give the same span sizes, projections and
Knill-Laflamme deviations to 1e-13, also with each generator rescaled by up
to 10^+-8, and the constructive bound and the correctable code, which now
take their orthogonal remainder from the criterion reports, must match the
sequence they used to repeat.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dressedmet.codespace import (
    CodeSpace,
    _code_blocks,
    check_conditions,
    purify_pair,
)
from dressedmet.criteria import error_set, quadratic_generators
from dressedmet.errors import ValidationError
from dressedmet.operators import (
    OperatorSpan,
    ScalarField,
    StateVector,
    lift,
    orthonormal_span,
    positive_negative_split,
)
from dressedmet.rand import stream
from dressedmet.sdp import constructive_bound
from dressedmet.tolerances import KL, MEMBERSHIP, SPAN_DROP

from _witnesses import correctable_code
from conftest import random_hermitian

# ---------------------------------------------------------------------------
# reference span code: the loops the stacked arrays replaced
# ---------------------------------------------------------------------------


def reference_orthonormal_span(generators, field):
    """Modified Gram-Schmidt with one re-orthogonalization pass; basis list."""
    basis = []
    for m in generators:
        m = np.asarray(m, dtype=complex)
        nrm = float(np.linalg.norm(m))
        if nrm < SPAN_DROP:
            continue
        w = m / nrm
        for _ in range(2):
            for b in basis:
                c = np.trace(b.conj().T @ w)
                if field is ScalarField.REAL:
                    c = c.real
                w = w - c * b
        r = float(np.linalg.norm(w))
        if r < SPAN_DROP:
            continue
        basis.append(w / r)
    return basis


def reference_project(basis, field, m):
    out = np.zeros_like(m, dtype=complex)
    for b in basis:
        c = np.trace(b.conj().T @ m)
        if field is ScalarField.REAL:
            c = c.real
        out = out + c * b
    return out


def reference_kl_deviation(frame, mats):
    def deviation(m):
        block = frame.conj().T @ m @ frame
        return float(np.linalg.norm(block - 0.5 * np.trace(block) * np.eye(2)))

    worst = 0.0
    for m in mats:
        worst = max(worst, deviation(m))
    for a in mats:
        for b in mats:
            worst = max(worst, deviation(a.conj().T @ b))
    return worst


def reference_remainder(g, generators, field):
    """The span sequence the bound and the code construction repeated."""
    basis = reference_orthonormal_span(generators, field)
    par = reference_project(basis, field, g)
    par = 0.5 * (par + par.conj().T)
    perp = g - par
    return perp, float(np.linalg.norm(perp)) > MEMBERSHIP


def random_matrix(rng, dim, hermitian):
    if hermitian:
        return random_hermitian(rng, dim)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def generator_list(seed, dim, k, field, with_identity, dependents, zeros):
    """Random generators plus exact linear combinations and zero matrices."""
    rng = stream(seed)
    hermitian = field is ScalarField.REAL or bool(seed % 2)
    gens = [np.eye(dim, dtype=complex)] if with_identity else []
    gens += [random_matrix(rng, dim, hermitian) for _ in range(k)]
    for _ in range(dependents if gens else 0):
        coeff = rng.standard_normal(len(gens))
        if field is ScalarField.COMPLEX:
            coeff = coeff + 1j * rng.standard_normal(len(gens))
        gens.append(np.tensordot(coeff, np.array(gens), axes=1))
    for _ in range(zeros):
        gens.insert(int(rng.integers(0, len(gens) + 1)), np.zeros((dim, dim), complex))
    if with_identity and dependents:
        gens.append(2.0 * np.eye(dim, dtype=complex))
    return gens


# ---------------------------------------------------------------------------
# spans and projections
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 6),
    k=st.integers(0, 4),
    field=st.sampled_from([ScalarField.REAL, ScalarField.COMPLEX]),
    with_identity=st.booleans(),
    dependents=st.integers(0, 2),
    zeros=st.integers(0, 2),
)
def test_span_matches_reference(seed, dim, k, field, with_identity, dependents, zeros):
    gens = generator_list(seed, dim, k, field, with_identity, dependents, zeros)
    if not gens:
        with pytest.raises(ValidationError):
            orthonormal_span(gens, field)
        return
    span = orthonormal_span(gens, field)
    basis = reference_orthonormal_span(gens, field)
    assert span.size == len(basis)
    assert span.basis.shape == (len(basis), dim, dim)
    rng = stream(seed, 1)
    probes = [random_matrix(rng, dim, field is ScalarField.REAL) for _ in range(3)]
    for m in probes + gens:
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.abs(span.project(m) - reference_project(basis, field, m)).max() <= 1e-13 * scale


def unit_row_singular_values(gens, field):
    """Singular values of the nonzero generators scaled to unit norm, as rows."""
    flat = np.array(gens).reshape(len(gens), -1)
    norms = np.linalg.norm(flat, axis=1)
    rows = flat[norms > 0] / norms[norms > 0, None]
    if field is ScalarField.REAL:
        rows = np.concatenate([rows.real, rows.imag], axis=1)
    return np.linalg.svd(rows, compute_uv=False)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 6),
    k=st.integers(0, 4),
    field=st.sampled_from([ScalarField.REAL, ScalarField.COMPLEX]),
    with_identity=st.booleans(),
    dependents=st.integers(0, 2),
    zeros=st.integers(0, 2),
)
def test_span_matches_reference_at_mixed_scales(seed, dim, k, field, with_identity,
                                                 dependents, zeros):
    # the drop rule sees every generator at unit norm, so rescaling one by
    # 10^U(-8, 8) changes no span size and moves no projection
    gens = generator_list(seed, dim, k, field, with_identity, dependents, zeros)
    rng = stream(seed, 2)
    gens = [10.0 ** rng.uniform(-8.0, 8.0) * g for g in gens]
    assume(gens)
    # near-dependent draws, a smallest singular value between rounding and
    # 1e-6, leave both methods about eps / sigma off: no equality holds there
    sv = unit_row_singular_values(gens, field)
    assume(not ((sv > 1e-12) & (sv < 1e-6)).any())
    span = orthonormal_span(gens, field)
    basis = reference_orthonormal_span(gens, field)
    assert span.size == len(basis)
    probes = [random_matrix(rng, dim, field is ScalarField.REAL) for _ in range(3)]
    for m in probes + gens:
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.abs(span.project(m) - reference_project(basis, field, m)).max() <= 1e-13 * scale


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_span_maps_basis_coefficients_back_to_the_generators(field):
    for seed in range(20):
        gens = generator_list(300 + seed, 2 + seed % 4, 1 + seed % 4, field, True, 1, 1)
        gens = [10.0 ** (seed % 5 - 2) * g for g in gens]
        span = orthonormal_span(gens, field)
        y = stream(seed, 3).standard_normal(span.size)
        if field is ScalarField.COMPLEX:
            y = y + 1j * stream(seed, 4).standard_normal(span.size)
        assert span.to_generators.shape == (len(gens), span.size)
        back = np.tensordot(span.to_generators @ y, np.array(gens), axes=1)
        want = np.tensordot(y, span.basis, axes=1)
        assert np.abs(back - want).max() <= 1e-13 * max(1.0, float(np.linalg.norm(y)))


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_nearly_dependent_generator_keeps_an_orthonormal_basis(field):
    # one Gram-Schmidt pass leaves the last element off by about eps / 1e-7
    # from orthogonal; the second pass is what brings it back to rounding
    for seed in range(10):
        rng = stream(700 + seed)
        gens = [np.eye(4, dtype=complex)] + [random_hermitian(rng, 4) for _ in range(3)]
        gens.append(0.3 * gens[1] - 1.1 * gens[2] + 1e-7 * random_hermitian(rng, 4))
        span = orthonormal_span(gens, field)
        assert span.size == len(reference_orthonormal_span(gens, field)) == 5
        flat = span.basis.reshape(5, -1)
        assert np.abs(flat.conj() @ flat.T - np.eye(5)).max() < 1e-13


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_all_dropped_span_projects_to_zero(field):
    zero = np.zeros((3, 3), dtype=complex)
    span = orthonormal_span([zero, 1e-12 * np.eye(3)], field)
    assert span.size == 0 and span.basis.shape == (0, 3, 3)
    g = random_hermitian(stream(3), 3)
    np.testing.assert_array_equal(span.project(g), zero)
    np.testing.assert_array_equal(OperatorSpan(3, field, ()).project(g), zero)


def test_stacked_basis_is_read_only_and_checked():
    span = orthonormal_span([np.eye(2), np.diag([1.0, -1.0])], ScalarField.REAL)
    with pytest.raises(ValueError):
        span.basis[0, 0, 0] = 2.0
    with pytest.raises(ValidationError, match="orthonormal"):
        OperatorSpan(2, ScalarField.COMPLEX, (np.eye(2), np.eye(2)))
    with pytest.raises(ValidationError, match="dimensions"):
        OperatorSpan(2, ScalarField.COMPLEX, (np.eye(3) / np.sqrt(3.0),))


def test_nv_rotated_couplings_keep_their_span_sizes():
    from dressedmet.criteria import linear_span_condition, quadratic_span_condition
    from dressedmet.nv import rotated_couplings

    triple = [a.entries for a in rotated_couplings(1)]
    g = np.diag([1.0, 0.0, 1.0]).astype(complex)
    assert linear_span_condition(g, triple).span_dim == 4
    assert quadratic_span_condition(g, triple).span_dim == 9


# ---------------------------------------------------------------------------
# the error set and the Knill-Laflamme check
# ---------------------------------------------------------------------------


def test_error_set_order_matches_the_pair_loop():
    rng = stream(5)
    mats = [random_matrix(rng, 3, False) for _ in range(3)]
    want = mats + [a.conj().T @ b for a in mats for b in mats]
    got = error_set(mats, 3)
    assert got.shape == (12, 3, 3)
    np.testing.assert_allclose(got, np.array(want), rtol=0.0, atol=1e-14)
    assert error_set([], 4).shape == (0, 4, 4)
    assert len(quadratic_generators([], 4)) == 1


def random_code(rng, sys_dim, anc_dim):
    total = sys_dim * anc_dim
    v = rng.standard_normal((total, 2)) + 1j * rng.standard_normal((total, 2))
    q, _ = np.linalg.qr(v)
    return CodeSpace(StateVector(q[:, 0]), StateVector(q[:, 1]), sys_dim, anc_dim)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sys_dim=st.integers(2, 6),
    anc_dim=st.integers(1, 2),
    k=st.integers(0, 4),
    hermitian=st.booleans(),
)
def test_knill_laflamme_matches_reference(seed, sys_dim, anc_dim, k, hermitian):
    rng = stream(seed)
    code = random_code(rng, sys_dim, anc_dim)
    mats = [random_matrix(rng, sys_dim, hermitian) for _ in range(k)]
    worst = check_conditions(code, np.zeros((sys_dim, sys_dim)), mats).kl_violation
    ref = reference_kl_deviation(code.frame, [lift(m, anc_dim) for m in mats])
    assert abs(worst - ref) <= 1e-13 * max(1.0, ref)
    assert (worst <= KL) == (ref <= KL)


@pytest.mark.parametrize("seed", range(6))
def test_frame_first_blocks_match_the_error_set(seed):
    rng = stream(950 + seed)
    code = random_code(rng, 3 + seed % 4, 1 + seed % 2)
    mats = [random_matrix(rng, code.total_dim, bool(seed % 2)) for _ in range(seed % 4)]
    frame = code.frame
    blocks, _ = _code_blocks(frame, mats)
    want = frame.conj().T @ error_set(mats, code.total_dim) @ frame
    assert blocks.shape == want.shape
    np.testing.assert_allclose(blocks, want, rtol=0.0, atol=1e-12)


def test_knill_laflamme_on_purified_codes():
    # purified codes pass by construction; the stacked check must agree
    for seed in range(20):
        rng = stream(900 + seed)
        dim = int(rng.integers(2, 5))
        couplings = [random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 3)))]
        code = correctable_code(random_hermitian(rng, dim), couplings)
        if code is None:
            continue
        lifted = [lift(a, code.anc_dim) for a in couplings]
        worst = check_conditions(code, np.zeros((dim, dim)), couplings).kl_violation
        ref = reference_kl_deviation(code.frame, lifted)
        assert worst <= KL and abs(worst - ref) <= 1e-13


# ---------------------------------------------------------------------------
# constructive bound and correctable code against the repeated sequence
# ---------------------------------------------------------------------------


def bound_cases():
    for seed in range(24):
        rng = stream(4000 + seed)
        dim = int(rng.integers(2, 7))
        couplings = [random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 4)))]
        g = random_hermitian(rng, dim)
        if seed % 3 == 0:
            # inside the real span: no signal available
            g = 0.3 * np.eye(dim) + sum(c * a for c, a in zip(rng.standard_normal(3), couplings))
        yield g, couplings


def test_constructive_bound_matches_reference_sequence():
    for g, couplings in bound_cases():
        dim = g.shape[0]
        perp, escapes = reference_remainder(
            g, [np.eye(dim)] + couplings, ScalarField.REAL)
        cb = constructive_bound(g, couplings)
        np.testing.assert_allclose(cb.g_perp, perp, rtol=0.0, atol=1e-13)
        if not escapes:
            assert cb.value == 0.0 and cb.rho0 is None and cb.rho1 is None
            continue
        rho1, rho0, weight = positive_negative_split(perp)
        value = 2.0 * float(np.trace(perp @ perp).real) / (2.0 * weight)
        assert abs(cb.value - value) <= 1e-12 * max(1.0, value)
        assert abs(cb.weight - weight) <= 1e-12 * max(1.0, weight)
        np.testing.assert_allclose(cb.rho0, rho0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(cb.rho1, rho1, rtol=0.0, atol=1e-12)


def test_correctable_code_matches_reference_sequence():
    found = missing = 0
    for seed in range(24):
        rng = stream(5000 + seed)
        dim = int(rng.integers(2, 6))
        couplings = [random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 3)))]
        g = random_hermitian(rng, dim)
        if seed % 3 == 0:
            # inside the quadratic span: no correctable code carries signal
            a = couplings[0]
            g = 0.5 * np.eye(dim) - 0.7 * a + 0.2 * (a @ a)
        old_generators = [np.eye(dim)] + couplings + [a @ b for a in couplings for b in couplings]
        perp, escapes = reference_remainder(g, old_generators, ScalarField.COMPLEX)
        code = correctable_code(g, couplings)
        if not escapes:
            assert code is None
            missing += 1
            continue
        rho1, rho0, _ = positive_negative_split(perp)
        want = purify_pair(rho0, rho1)
        assert (code.sys_dim, code.anc_dim) == (want.sys_dim, want.anc_dim)
        np.testing.assert_allclose(code.frame, want.frame, rtol=0.0, atol=1e-10)
        found += 1
    assert found and missing
