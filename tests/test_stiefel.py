"""The Stiefel search kernel against the loop kernel it replaced.

The reference copies below are the searches as they stood before the error
sets were stacked: one Python-level pass per coupling (per coupling and pair
product for the quadratic search), a sign-fixed QR retraction, and an Armijo
steepest descent that halved its step fifty times before giving up.  The
stacked objectives must match the loops to 1e-13 relative and the
closed-form retraction must match QR to 1e-13.  The Riemannian BFGS search
(Huang, Gallivan & Absil, SIAM J. Optim. 2015; transport by projection as in
Absil, Mahony & Sepulchre, *Optimization Algorithms on Matrix Manifolds*,
2008) takes other paths: no-go restarts must land on the same penalties in
far fewer evaluations, and code-search restarts must reach at most the
loop's objective, stopping at the rounding floor where the loop ran into
``max_iter``; so must every restart of a sample of in-span instances.

``_reference_stiefel`` is the search kernel and its objectives before the
leaner descent step (one projection product for the three transported
vectors, one broadcast product in the BFGS update, the generator folded
into the code-search matmul).  Only rounding may part them: each restart
must reach the same value to 1e-12 of its scale by the same stop rule, in
the same number of evaluations on all but a few restarts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedmet import codespace
from dressedmet.codespace import (
    _SIGNAL_WEIGHT,
    _better_restart,
    _pair_penalty_terms,
    _quadratic_search_terms,
    _retract,
    _tangent,
    code_search,
    stiefel_minimize,
)
from dressedmet.criteria import quadratic_span_condition
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.nv import NO_GO_FLOOR, nv_couplings, rotated_couplings
from dressedmet.operators import as_matrix, spin_matrices
from dressedmet.rand import stream
from dressedmet.tolerances import SPAN_DROP

import _reference_stiefel
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


def norm_stack_retract(v):
    """``_retract`` as it stood with ``np.linalg.norm`` and ``np.stack``."""
    r00 = np.linalg.norm(v[:, 0])
    q0 = v[:, 0] / (r00 or 1.0)
    w = v[:, 1] - q0 * np.vdot(q0, v[:, 1])
    r11 = np.linalg.norm(w)
    if not (r00 > 0.0 and r11 > SPAN_DROP * np.linalg.norm(v[:, 1])):
        raise NumericalError("cannot retract a rank-deficient frame")
    return np.stack([q0, w / r11], axis=1)


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

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        fortran=st.booleans(),
    )
    def test_bitwise_equal_to_norm_and_stack_retraction(self, dim, seed, scale, fortran):
        v = scale * random_frame(np.random.default_rng(seed), dim)
        v = np.asfortranarray(v) if fortran else v
        got, want = _retract(v), norm_stack_retract(v)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

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
            f_new = stiefel_minimize(fn, v0).value
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
            f, v = stiefel_minimize(counted_fn, v0)[:2]
            values.append(f)
            loop_values.append(loop_minimize(ref, v0)[0])
            if seed in CONVERGED_SEEDS:
                # fewer evaluations than max_iter steps, and a longer budget
                # changes nothing: another stop rule ended the restart
                assert calls[0] < 400
                f_long, v_long = stiefel_minimize(fn, v0, max_iter=10**4)[:2]
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

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (1e-9, 1.0000001e-9), (5e-10, 3.0)])
    @pytest.mark.parametrize("signal, other", [(0.0, 1.0), (2.0, 0.5), (-1.0, 1.0), (0.3, 0.3)])
    def test_a_restart_within_the_penalty_floor_beats_one_above_it(self, low, high, signal, other):
        assert _better_restart(low, signal, high, other)
        assert not _better_restart(high, signal, low, other)

    def test_in_span_restarts_stop_at_rounding_floor(self):
        # code-search instances like the benchmark's: a random d in 3-6, two
        # couplings, and a generator moved into their quadratic span
        rng = np.random.default_rng(12345)
        for instance in range(8):
            dim = int(rng.integers(3, 7))
            couplings = [random_hermitian(rng, dim) for _ in range(2)]
            g = random_hermitian(rng, dim)
            g = g - quadratic_span_condition(g, couplings).g_perp
            g = 0.5 * (g + g.conj().T)
            assert not quadratic_span_condition(g, couplings).verdict
            fn = _quadratic_search_terms(g, couplings, _SIGNAL_WEIGHT)
            for r in range(2):
                v0 = random_frame(stream(instance, r), dim)
                f, v = stiefel_minimize(fn, v0)[:2]
                f_long, v_long = stiefel_minimize(fn, v0, max_iter=10**4)[:2]
                assert f_long == f and np.array_equal(v_long, v)

    def test_converged_no_go_restart_stops_at_rounding_floor(self):
        mats = [as_matrix(a) for a in nv_couplings()]
        v0 = random_frame(stream(0, 0), 3)
        fn, calls = counted(_pair_penalty_terms(mats))
        f = stiefel_minimize(fn, v0).value
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
        f, v = stiefel_minimize(counted_fn, v0, max_iter=10**6)[:2]
        assert f == pytest.approx(NO_GO_FLOOR, abs=1e-12)
        assert calls[0] <= 30
        assert np.linalg.norm(_tangent(v, fn(v)[1])) > 0.0

    def test_zero_tangent_gradient_meets_the_floor_at_once(self):
        # no couplings: the penalty is 0 everywhere, and no trial step is taken
        fn, v0 = _pair_penalty_terms([]), random_frame(stream(0, 0), 3)
        counted_fn, calls = counted(fn)
        f, v = stiefel_minimize(counted_fn, v0, max_iter=10**6)[:2]
        assert calls[0] == 1
        assert f == fn(_retract(v0))[0] and np.array_equal(v, _retract(v0))

    def test_max_iter(self):
        fn, v0 = self.restart()
        counted_fn, calls = counted(fn)
        f, v = stiefel_minimize(counted_fn, v0, max_iter=0)[:2]
        assert calls[0] == 1
        assert f == fn(_retract(v0))[0] and np.array_equal(v, _retract(v0))
        for max_iter in (1, 5):
            counted_fn, calls = counted(fn)
            f = stiefel_minimize(counted_fn, v0, max_iter=max_iter).value
            assert calls[0] >= max_iter + 1
            assert f > NO_GO_FLOOR + 1e-6

    def test_returns_lowest_value_visited(self):
        # every accepted step lowers the value, so a longer budget never
        # returns a higher one; the restart ends at the rounding floor, where
        # any longer budget returns the same frame
        fn, v0 = self.restart()
        runs = [stiefel_minimize(fn, v0, max_iter=m)[:2] for m in range(12)]
        values = [f for f, _ in runs]
        assert values == sorted(values, reverse=True)
        stop = values.index(values[-1])  # accepted steps before the floor
        assert 0 < stop < 11 and len(set(values)) == stop + 1
        for f, v in runs:
            assert fn(v)[0] == f
        f, v = stiefel_minimize(fn, v0)[:2]
        f_long, v_long = stiefel_minimize(fn, v0, max_iter=10**4)[:2]
        assert f_long == f and np.array_equal(v_long, v)


class TestArmijoFraction:
    """The first trial step is accepted exactly when it shows ``1e-4`` of the
    predicted decrease: a scripted objective places that trial at a chosen
    fraction of the slope, on either side of ``1e-4``."""

    @staticmethod
    def scripted(fraction):
        # at the frame [e0, e1], a gradient on e2 is tangent: the first direction
        # is -grad / 2, with slope -|grad|^2 / 2 = -1/2; the first trial reads
        # f + fraction * slope, and any later trial a clear decrease
        grad = np.zeros((3, 2), dtype=complex)
        grad[2, 0] = 1.0
        values = iter([1.0, 1.0 - 0.5 * fraction])

        def fn(v):
            return next(values, 0.0), grad

        return fn, np.eye(3, 2, dtype=complex)

    @pytest.mark.parametrize("fraction, evaluations", [(0.75e-4, 3), (1.5e-4, 2)],
                             ids=["short_of_the_fraction", "past_the_fraction"])
    def test_first_trial(self, fraction, evaluations):
        run = stiefel_minimize(*self.scripted(fraction), max_iter=1)
        # rejected: the halved step is the second trial; accepted: the first is the step
        assert (run.steps, run.evaluations, run.stop) == (1, evaluations, "max_iter")
        assert run.value == (0.0 if evaluations == 3 else 1.0 - 0.5 * fraction)


# ---------------------------------------------------------------------------
# the leaner descent step against the kernel it replaced
# ---------------------------------------------------------------------------


def in_span_sample(count):
    """Code-search instances as the benchmark draws them: d in 3-6, two
    couplings, and G moved into their quadratic span."""
    rng = np.random.default_rng(12345)
    for _ in range(count):
        dim = int(rng.integers(3, 7))
        couplings = [random_hermitian(rng, dim) for _ in range(2)]
        g = random_hermitian(rng, dim)
        g = g - quadratic_span_condition(g, couplings).g_perp
        yield 0.5 * (g + g.conj().T), couplings, dim


def lean_step_restarts():
    """``(objective name, args, start frame)`` of every compared restart."""
    for rotation in range(10):
        mats = [as_matrix(a) for a in rotated_couplings(rotation)]
        for r in range(20):
            yield "_pair_penalty_terms", (mats,), random_frame(stream(rotation, r), 3)
    for i, (g, couplings, dim) in enumerate(in_span_sample(24)):
        for r in range(2):
            yield "_quadratic_search_terms", (g, couplings, _SIGNAL_WEIGHT), random_frame(stream(i, r), dim)
    for seed in sorted(CONVERGED_SEEDS):
        rng = stream(seed)
        dim = int(rng.integers(3, 7))
        couplings = [random_hermitian(rng, dim) for _ in range(rng.integers(1, 5))]
        g = random_hermitian(rng, dim)
        for r in range(3):
            yield "_quadratic_search_terms", (g, couplings, 0.1), random_frame(stream(seed, r), dim)


def run_restart(kernel, name, args, v0):
    """Value, evaluations and stop rule of one restart of ``kernel``'s search."""
    fn = getattr(kernel, name)(*args)
    counted_fn, calls = counted(fn)
    f, v = kernel.stiefel_minimize(counted_fn, v0)[:2]
    # max_iter accepted steps take more than max_iter evaluations
    stop = "floor"
    if calls[0] > 400:
        f_long, v_long = kernel.stiefel_minimize(fn, v0, max_iter=10**4)[:2]
        stop = "floor" if f_long == f and np.array_equal(v_long, v) else "max_iter"
    return f, calls[0], stop


@pytest.fixture(scope="module")
def lean_step_pairs():
    return [(run_restart(codespace, *case), run_restart(_reference_stiefel, *case))
            for case in lean_step_restarts()]


class TestLeanStep:
    def test_sample_size(self, lean_step_pairs):
        assert len(lean_step_pairs) == 200 + 48 + 9

    def test_same_values(self, lean_step_pairs):
        for (f, _, _), (f_ref, _, _) in lean_step_pairs:
            assert abs(f - f_ref) <= 1e-12 * max(1.0, abs(f_ref))

    def test_same_stop_rules(self, lean_step_pairs):
        assert [new[2] for new, _ in lean_step_pairs] == [ref[2] for _, ref in lean_step_pairs]

    def test_same_evaluation_counts(self, lean_step_pairs):
        diffs = [new[1] - ref[1] for new, ref in lean_step_pairs]
        assert max(map(abs, diffs)) <= 2
        assert diffs.count(0) >= 0.95 * len(diffs)


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------


def record_cases():
    """``(objective, start frame, max_iter)`` of restarts that end by either stop rule."""
    no_go = _pair_penalty_terms([as_matrix(a) for a in nv_couplings()])
    for r in range(4):
        for max_iter in (0, 1, 5, 400):
            yield no_go, random_frame(stream(0, r), 3), max_iter
    yield _pair_penalty_terms([]), random_frame(stream(0, 0), 3), 400  # zero tangent gradient
    for i, (g, couplings, dim) in enumerate(in_span_sample(4)):
        yield _quadratic_search_terms(g, couplings, _SIGNAL_WEIGHT), random_frame(stream(i, 0), dim), 400


class TestRunRecord:
    """A restart's record against counts taken by wrapping: the objective for
    evaluations, the d x 6 transport (one per accepted step) for steps."""

    def test_counts_and_stop_rule(self, monkeypatch):
        transports = [0]
        tangent = codespace._tangent

        def counted_tangent(v, x):
            transports[0] += x.shape[1] == 6
            return tangent(v, x)

        monkeypatch.setattr(codespace, "_tangent", counted_tangent)
        stops = []
        for fn, v0, max_iter in record_cases():
            counted_fn, calls = counted(fn)
            transports[0] = 0
            run = stiefel_minimize(counted_fn, v0, max_iter=max_iter)
            assert (run.evaluations, run.steps) == (calls[0], transports[0])
            assert fn(run.frame)[0] == run.value
            if run.stop == "max_iter":
                assert run.steps == max_iter
            else:
                # the floor ended it: a longer budget takes the same steps to the same frame
                assert run.stop == "rounding_floor" and run.steps < max_iter
                longer = stiefel_minimize(fn, v0, max_iter=max_iter + 10**4)
                assert longer.value == run.value and np.array_equal(longer.frame, run.frame)
                assert longer[2:] == run[2:]
            stops.append(run.stop)
        assert stops.count("max_iter") == 12 and stops.count("rounding_floor") == 9

    def test_restarts_keep_each_record(self):
        fn = _pair_penalty_terms([as_matrix(a) for a in nv_couplings()])
        runs = codespace._restart_minima(fn, 3, 5, seed=11)
        for r, run in enumerate(runs):
            solo = stiefel_minimize(fn, random_frame(stream(11, r), 3))
            assert run.value == solo.value and np.array_equal(run.frame, solo.frame)
            assert run[2:] == solo[2:]
        assert codespace.no_go_search(nv_couplings(), 3, restarts=5, seed=11) == min(r.value for r in runs)
