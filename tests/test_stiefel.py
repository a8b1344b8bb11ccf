"""The Stiefel search kernel against the loop kernel it replaced.

The reference copies below are the searches as they stood before the error
sets were stacked: one Python-level pass per coupling (per coupling and pair
product for the quadratic search), a sign-fixed QR retraction, and an Armijo
steepest descent that halved its step fifty times before giving up.  The
stacked objectives must match the loops to 1e-13 relative and the
closed-form retraction must match QR to 1e-13.  The Barzilai-Borwein search
takes other paths: no-go restarts must land on the same penalties in far
fewer evaluations, and code-search restarts must reach at most the loop's
objective, stopping by themselves where the loop ran into ``max_iter``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedmet.codespace import (
    _better_restart,
    _pair_penalty_terms,
    _quadratic_search_terms,
    _retract,
    _tangent,
    code_search,
    stiefel_minimize,
)
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.nv import NO_GO_FLOOR, nv_couplings, rotated_couplings
from dressedmet.operators import as_matrix, spin_matrices
from dressedmet.rand import stream

from conftest import random_hermitian


# ---------------------------------------------------------------------------
# reference kernel: the loops the stacked kernel replaced
# ---------------------------------------------------------------------------


def loop_pair_penalty(mats):
    def fn(v):
        f = 0.0
        grad = np.zeros_like(v)
        for a in mats:
            av = a @ v
            block = v.conj().T @ av
            z = (block[0, 0] - block[1, 1]).real
            g01 = block[0, 1]
            f += z * z + 2.0 * abs(g01) ** 2
            k = np.array([[z, g01], [np.conj(g01), -z]], dtype=complex)
            grad += 2.0 * (av @ k)
        return f, grad

    return fn


def loop_quadratic(gmat, mats, weight):
    error_set = list(mats) + [a.conj().T @ b for a in mats for b in mats]

    def fn(v):
        f = 0.0
        grad = np.zeros_like(v)
        for m in error_set:
            mv = m @ v
            mhv = m.conj().T @ v
            block = v.conj().T @ mv
            z = block[0, 0] - block[1, 1]
            b01, b10 = block[0, 1], block[1, 0]
            f += 0.5 * abs(z) ** 2 + abs(b01) ** 2 + abs(b10) ** 2
            p = np.array(
                [[0.5 * np.conj(z), np.conj(b10)], [np.conj(b01), -0.5 * np.conj(z)]],
                dtype=complex,
            )
            grad += mv @ p + mhv @ p.conj().T
        gv = gmat @ v
        gblock = v.conj().T @ gv
        signal = (gblock[1, 1] - gblock[0, 0]).real
        f -= weight * signal
        grad -= weight * (gv @ np.diag([-1.0, 1.0]))
        return f, grad

    return fn


def qr_retract(v):
    q, r = np.linalg.qr(v)
    signs = np.sign(np.diag(r).real)
    signs[signs == 0] = 1.0
    return q * signs


def loop_minimize(fn, v0, max_iter=400, gtol=1e-13):
    v = qr_retract(np.asarray(v0, dtype=complex))
    f, grad = fn(v)
    step = 0.5
    for _ in range(max_iter):
        a = v.conj().T @ grad
        gt = grad - v @ (0.5 * (a + a.conj().T))
        gn2 = float(np.real(np.sum(gt.conj() * gt)))
        if gn2 < gtol * gtol:
            break
        moved = False
        for _ in range(50):
            cand = qr_retract(v - step * gt)
            f_new, grad_new = fn(cand)
            if f_new <= f - 0.25 * step * 2.0 * gn2:
                v, f, grad = cand, f_new, grad_new
                step = min(step * 1.3, 8.0)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return f, v


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def random_matrix(rng, dim, hermitian):
    if hermitian:
        return random_hermitian(rng, dim)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_frame(rng, dim):
    return rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))


def assert_same_terms(new, ref, rtol=1e-13):
    (f_new, g_new), (f_ref, g_ref) = new, ref
    scale = max(1.0, abs(f_ref), float(np.abs(g_ref).max()))
    assert abs(f_new - f_ref) <= rtol * scale
    np.testing.assert_allclose(g_new, g_ref, rtol=0.0, atol=rtol * scale)


def counted(fn):
    calls = [0]

    def wrapper(v):
        calls[0] += 1
        return fn(v)

    return wrapper, calls


FRAMES = dict(
    dim=st.integers(2, 6),
    k=st.integers(0, 4),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


# ---------------------------------------------------------------------------
# stacked objectives
# ---------------------------------------------------------------------------


class TestStackedObjectives:
    @settings(max_examples=60, deadline=None)
    @given(**FRAMES)
    def test_pair_penalty_matches_loop(self, dim, k, hermitian, seed):
        rng = np.random.default_rng(seed)
        mats = [random_matrix(rng, dim, hermitian) for _ in range(k)]
        v = random_frame(rng, dim)
        assert_same_terms(_pair_penalty_terms(mats)(v), loop_pair_penalty(mats)(v))

    @settings(max_examples=60, deadline=None)
    @given(weight=st.sampled_from([0.0, 0.1, 0.7]), **FRAMES)
    def test_quadratic_matches_loop(self, dim, k, hermitian, seed, weight):
        rng = np.random.default_rng(seed)
        mats = [random_matrix(rng, dim, hermitian) for _ in range(k)]
        g = random_hermitian(rng, dim)
        v = random_frame(rng, dim)
        assert_same_terms(
            _quadratic_search_terms(g, mats, weight)(v),
            loop_quadratic(g, mats, weight)(v),
        )

    def test_empty_error_sets(self, rng):
        v = random_frame(rng, 3)
        f, grad = _pair_penalty_terms([])(v)
        assert f == 0.0 and not grad.any()
        g = random_hermitian(rng, 3)
        assert_same_terms(
            _quadratic_search_terms(g, [], 0.1)(v), loop_quadratic(g, [], 0.1)(v)
        )


# ---------------------------------------------------------------------------
# closed-form retraction
# ---------------------------------------------------------------------------


class TestRetraction:
    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_matches_sign_fixed_qr(self, dim, seed, scale):
        v = scale * random_frame(np.random.default_rng(seed), dim)
        q = _retract(v)
        np.testing.assert_allclose(q, qr_retract(v), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-13)

    def test_rank_deficient_frame_raises(self, rng):
        col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for v in (
            np.stack([col, (2.0 - 1.0j) * col], axis=1),
            np.stack([col, np.zeros(4)], axis=1),
            np.stack([np.zeros(4), col], axis=1),
            np.zeros((4, 2), dtype=complex),
        ):
            with pytest.raises(NumericalError):
                _retract(v)

    def test_search_takes_only_two_column_frames(self):
        fn = _pair_penalty_terms([])
        for shape in ((4, 3), (4,), (4, 1)):
            with pytest.raises(ValidationError):
                stiefel_minimize(fn, np.ones(shape))


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


# seeds whose code-search restarts all converge before max_iter; the loop's
# all ran into it
CONVERGED_SEEDS = {7000, 7002, 7005}


class TestSearches:
    @pytest.mark.parametrize("rotation", range(4))
    def test_restart_penalties_match_loop(self, rotation):
        mats = [as_matrix(a) for a in rotated_couplings(rotation)]
        fn, ref = _pair_penalty_terms(mats), loop_pair_penalty(mats)
        for r in range(50):
            v0 = random_frame(stream(rotation, r), 3)
            f_new, _ = stiefel_minimize(fn, v0)
            f_ref, _ = loop_minimize(ref, v0)
            assert abs(f_new - f_ref) <= 1e-12
            assert f_new >= NO_GO_FLOOR - 1e-9

    @pytest.mark.parametrize("seed", [7000, 7002, 7005, 7007])
    def test_code_search_beats_loop(self, seed):
        rng = stream(seed)
        dim = int(rng.integers(3, 7))
        couplings = [random_hermitian(rng, dim) for _ in range(rng.integers(1, 5))]
        g = random_hermitian(rng, dim)
        fn = _quadratic_search_terms(g, couplings, 0.1)
        penalty = _quadratic_search_terms(g, couplings, 0.0)
        ref = loop_quadratic(g, couplings, 0.1)
        values, loop_values, pick = [], [], None
        for r in range(3):
            v0 = random_frame(stream(seed, r), dim)
            counted_fn, calls = counted(fn)
            f, v = stiefel_minimize(counted_fn, v0)
            values.append(f)
            loop_values.append(loop_minimize(ref, v0)[0])
            if seed in CONVERGED_SEEDS:
                # fewer evaluations than max_iter steps, and a longer budget
                # changes nothing: another stop rule ended the restart
                assert calls[0] < 400
                f_long, v_long = stiefel_minimize(fn, v0, max_iter=10**4)
                assert f_long == f and np.array_equal(v_long, v)
            gblock = v.conj().T @ g @ v
            cand = (penalty(v)[0], float((gblock[1, 1] - gblock[0, 0]).real), v)
            if pick is None or _better_restart(cand[0], cand[1], pick[0], pick[1]):
                pick = cand
        assert min(values) <= min(loop_values)
        res = code_search(g, couplings, dim, restarts=3, seed=seed)
        assert (res.kl_penalty, res.signal) == pick[:2]
        assert np.array_equal(res.code.frame, pick[2])

    def test_code_search_ignores_rounding_in_signals(self):
        # every restart stops at the rounding floor with |signal| 1 to an
        # ulp; the pick must be the smallest penalty, not the last bit of
        # the signal
        sx, _, sz = spin_matrices(2)
        g = sz @ sz
        res = code_search(g, [sx, sz], 3, restarts=8, seed=5)
        fn = _quadratic_search_terms(g, [sx, sz], 0.1)
        penalty = _quadratic_search_terms(g, [sx, sz], 0.0)
        pens = [penalty(stiefel_minimize(fn, random_frame(stream(5, r), 3))[1])[0]
                for r in range(8)]
        assert res.signal == pytest.approx(1.0, abs=1e-12)
        assert res.kl_penalty == min(pens) < 2.5000002

    def test_converged_no_go_restart_stops_at_rounding_floor(self):
        mats = [as_matrix(a) for a in nv_couplings()]
        v0 = random_frame(stream(0, 0), 3)
        fn, calls = counted(_pair_penalty_terms(mats))
        f, _ = stiefel_minimize(fn, v0)
        ref, ref_calls = counted(loop_pair_penalty(mats))
        f_ref, _ = loop_minimize(ref, v0)
        assert f == pytest.approx(NO_GO_FLOOR, abs=1e-12)
        assert abs(f - f_ref) <= 1e-12
        assert calls[0] <= 30
        assert ref_calls[0] >= 60


class TestStopRules:
    """Each of the two stop rules ends a converging no-go restart by itself."""

    @staticmethod
    def restart():
        mats = [as_matrix(a) for a in nv_couplings()]
        return _pair_penalty_terms(mats), random_frame(stream(0, 0), 3)

    def test_rounding_floor(self):
        # the budget is never reached, and the tangent gradient is not zero
        fn, v0 = self.restart()
        counted_fn, calls = counted(fn)
        f, v = stiefel_minimize(counted_fn, v0, max_iter=10**6)
        assert f == pytest.approx(NO_GO_FLOOR, abs=1e-12)
        assert calls[0] <= 30
        assert np.linalg.norm(_tangent(v, fn(v)[1])) > 0.0

    def test_zero_tangent_gradient_meets_the_floor_at_once(self):
        # no couplings: the penalty is 0 everywhere, and no trial step is taken
        fn, v0 = _pair_penalty_terms([]), random_frame(stream(0, 0), 3)
        counted_fn, calls = counted(fn)
        f, v = stiefel_minimize(counted_fn, v0, max_iter=10**6)
        assert calls[0] == 1
        assert f == fn(_retract(v0))[0] and np.array_equal(v, _retract(v0))

    def test_max_iter(self):
        fn, v0 = self.restart()
        counted_fn, calls = counted(fn)
        f, v = stiefel_minimize(counted_fn, v0, max_iter=0)
        assert calls[0] == 1
        assert f == fn(_retract(v0))[0] and np.array_equal(v, _retract(v0))
        for max_iter in (1, 5):
            counted_fn, calls = counted(fn)
            f, _ = stiefel_minimize(counted_fn, v0, max_iter=max_iter)
            assert calls[0] >= max_iter + 1
            assert f > NO_GO_FLOOR + 1e-6

    def test_returns_lowest_value_visited(self):
        # the nonmonotone search can accept a rise (here the third step);
        # a longer budget never returns a higher value
        fn, v0 = self.restart()
        runs = [stiefel_minimize(fn, v0, max_iter=m) for m in range(10)]
        values = [f for f, _ in runs]
        assert values == sorted(values, reverse=True)
        assert values[2] == values[3]
        for f, v in runs:
            assert fn(v)[0] == f
