"""Integrator tests against problems with known closed-form solutions."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapshoot import odeint
from plapshoot.errors import IntegrationError, SpecError
from plapshoot.odeint import (
    DenseSolution,
    IvpSpec,
    bisect_bracket,
    compile_field,
    crossings,
    end_state,
    grow_bracket,
    illinois_bracket,
    integrate,
)


def exp_ivp(rel=1e-10, abs_=1e-12):
    return IvpSpec(
        rhs=lambda r, y: (y[0],),
        r_start=0.0,
        r_end=1.0,
        y0=(1.0,),
        rel_tol=rel,
        abs_tol=abs_,
    )


def rotation_ivp(r_end=2 * math.pi, rel=1e-10, abs_=1e-12):
    return IvpSpec(
        rhs=lambda r, y: (-y[1], y[0]),
        r_start=0.0,
        r_end=r_end,
        y0=(1.0, 0.0),
        rel_tol=rel,
        abs_tol=abs_,
    )


def test_exponential_growth():
    sol = integrate(exp_ivp())
    assert sol.y_end[0] == pytest.approx(math.e, abs=1e-9)
    assert sol.r_end == 1.0


def test_rotation_returns_home():
    sol = integrate(rotation_ivp())
    assert sol.y_end[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.y_end[1] == pytest.approx(0.0, abs=1e-8)


def test_pure_quadrature():
    ivp = IvpSpec(
        rhs=lambda r, y: (r * r,),
        r_start=0.0,
        r_end=3.0,
        y0=(0.0,),
    )
    sol = integrate(ivp)
    assert sol.y_end[0] == pytest.approx(9.0, rel=1e-10)


def test_dense_output_matches_knots_exactly():
    sol = integrate(exp_ivp())
    for i in range(len(sol.rs)):
        assert sol.eval(sol.rs[i]) == sol.ys[i]


def test_dense_output_between_knots():
    sol = integrate(exp_ivp())
    for i in range(sol.n_steps):
        mid = 0.5 * (sol.rs[i] + sol.rs[i + 1])
        assert sol.eval(mid)[0] == pytest.approx(math.exp(mid), rel=1e-9)


def test_cells_evaluate_like_eval():
    # The documented cell formula gives eval's values to the bit at
    # knots and at points inside every interval.
    sol = integrate(rotation_ivp())
    cells = sol.cells
    assert len(cells) == sol.n_steps
    for i, (r0, h, *rest) in enumerate(cells):
        y, q = rest[:2], [rest[2 + 4 * d : 6 + 4 * d] for d in range(2)]
        for frac in (0.0, 0.1, 0.5, 0.9):
            r = sol.rs[i] + frac * (sol.rs[i + 1] - sol.rs[i])
            x = (r - r0) / h
            got = tuple(
                y[d] + h * x * (q[d][0] + x * (q[d][1] + x * (q[d][2] + x * q[d][3])))
                for d in range(2)
            )
            assert got == sol.eval(r), (i, frac)


def test_dense_output_out_of_range():
    sol = integrate(exp_ivp())
    with pytest.raises(SpecError):
        sol.eval(-0.5)
    with pytest.raises(SpecError):
        sol.eval(1.5)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(SpecError):
            sol.eval(r)


def test_bit_determinism():
    a = integrate(rotation_ivp())
    b = integrate(rotation_ivp())
    assert a.rs == b.rs
    assert a.ys == b.ys
    assert a.cells == b.cells


def test_tolerance_scaling():
    # Four decades tighter tolerance must buy at least three decades of
    # accuracy on the rotation problem.
    errs = []
    for rel in (1e-6, 1e-10):
        sol = integrate(rotation_ivp(rel=rel, abs_=rel * 1e-2))
        errs.append(
            math.hypot(sol.y_end[0] - 1.0, sol.y_end[1] - 0.0)
        )
    assert errs[1] < errs[0] * 1e-3


def test_loose_tolerance_takes_fewer_steps():
    fine = integrate(rotation_ivp(rel=1e-12, abs_=1e-14))
    coarse = integrate(rotation_ivp(rel=1e-6, abs_=1e-8))
    assert coarse.n_steps < fine.n_steps


def test_max_steps_budget(monkeypatch):
    monkeypatch.setattr(odeint, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="^exceeded max_steps=3 ") as exc:
        integrate(exp_ivp())
    assert exc.value.last_r < 1.0


def test_non_finite_rhs_reports_last_r():
    def rhs(r, y):
        if r > 0.5:
            return (float("nan"),)
        return (1.0,)

    with pytest.raises(IntegrationError) as exc:
        integrate(
            IvpSpec(rhs=rhs, r_start=0.0, r_end=1.0, y0=(0.0,))
        )
    assert 0.0 <= exc.value.last_r <= 0.6


def test_ivp_validation():
    ok = dict(rhs=lambda r, y: (0.0,), r_start=0.0, r_end=1.0, y0=(0.0,))
    with pytest.raises(SpecError):
        IvpSpec(**{**ok, "r_end": 0.0})
    with pytest.raises(SpecError):
        IvpSpec(**{**ok, "y0": ()})
    with pytest.raises(SpecError):
        IvpSpec(**{**ok, "y0": (float("inf"),)})
    with pytest.raises(SpecError):
        IvpSpec(**{**ok, "rel_tol": 0.0})


@pytest.mark.parametrize("slopes", [(), (1.0,), (1.0, 2.0, 3.0)])
def test_integrate_refuses_a_wrong_number_of_slopes(slopes):
    ivp = IvpSpec(rhs=lambda r, y: slopes, r_start=0.0, r_end=1.0, y0=(1.0, 0.0))
    with pytest.raises(SpecError, match=f"^rhs returned {len(slopes)} components"):
        integrate(ivp)


def test_crossings_linear_ramp():
    ivp = IvpSpec(
        rhs=lambda r, y: (1.0,), r_start=0.0, r_end=5.0, y0=(0.0,)
    )
    sol = integrate(ivp)
    hits = crossings(sol, 0, [2.5])
    assert len(hits) == 1
    r, level, direction = hits[0]
    assert r == pytest.approx(2.5, abs=1e-10)
    assert level == 2.5
    assert direction == 1


def test_crossings_cosine_zeros():
    sol = integrate(rotation_ivp())
    hits = crossings(sol, 0, [0.0])
    assert [h[2] for h in hits] == [-1, 1]
    assert hits[0][0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert hits[1][0] == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_crossings_multiple_levels_sorted():
    sol = integrate(rotation_ivp())
    hits = crossings(sol, 0, [0.5, -0.5])
    assert len(hits) == 4
    assert [h[0] for h in hits] == sorted(h[0] for h in hits)
    for r, level, _ in hits:
        assert math.cos(r) == pytest.approx(level, abs=1e-8)


def test_crossings_on_an_interior_knot_reported_once():
    # The level is met exactly at a knot: the interval that ends there
    # reports it, and the one that starts there does not again.
    sol = integrate(exp_ivp())
    k = len(sol.rs) // 2
    assert 0 < k < len(sol.rs) - 1
    level = sol.ys[k][0]
    assert crossings(sol, 0, [level]) == [(sol.rs[k], level, 1)]


def test_crossings_level_never_reached():
    sol = integrate(rotation_ivp())
    assert crossings(sol, 0, [2.0]) == []


def test_crossings_bad_component():
    sol = integrate(exp_ivp())
    with pytest.raises(SpecError):
        crossings(sol, 3, [0.0])


def test_crossings_refuses_a_nan_level():
    # A NaN level compares false with every value, so unchecked, every
    # mesh interval looks like a bracket: 130 "crossings" of y' = cos r
    # on [0, 10].
    sol = integrate(
        IvpSpec(rhs=lambda r, y: (math.cos(r),), r_start=0.0, r_end=10.0, y0=(0.0,))
    )
    for levels in ([math.nan], [0.5, math.nan]):
        with pytest.raises(SpecError, match="must not be NaN"):
            crossings(sol, 0, levels)
    assert len(crossings(sol, 0, [0.5])) == 4


def _old_crossings(sol, component, levels, refine_tol=1e-12):
    # The hand-written bisection loop crossings used before it moved to
    # a bracket finder, kept as the reference for its results.
    out = []
    rs, ys = sol.rs, sol.ys
    for i in range(len(rs) - 1):
        va = ys[i][component]
        vb = ys[i + 1][component]
        for level in levels:
            ga = va - level
            gb = vb - level
            if ga == 0.0:
                if i == 0:
                    out.append((rs[0], level, 1 if gb > 0 else -1))
                continue
            if gb == 0.0:
                out.append((rs[i + 1], level, 1 if ga < 0 else -1))
                continue
            if ga * gb > 0.0:
                continue
            lo, hi = rs[i], rs[i + 1]
            glo = ga
            tol = refine_tol * max(1.0, abs(hi))
            for _ in range(200):
                if hi - lo <= tol:
                    break
                mid = 0.5 * (lo + hi)
                gm = sol.eval(mid)[component] - level
                if gm == 0.0:
                    lo = hi = mid
                    break
                if (glo < 0) == (gm < 0):
                    lo, glo = mid, gm
                else:
                    hi = mid
            out.append((0.5 * (lo + hi), level, 1 if ga < 0 else -1))
    out.sort(key=lambda t: t[0])
    return out


def test_crossings_equal_old_loop():
    # Both searches stop on a bracket 1e-12 max(1, |r|) wide: the levels
    # and directions agree exactly, the radii within that width.
    sol = integrate(rotation_ivp(r_end=6 * math.pi))
    for component in (0, 1):
        for levels in ([0.0], [0.5, -0.5], [0.999, -0.25]):
            hits = crossings(sol, component, levels)
            old = _old_crossings(sol, component, levels)
            assert hits
            assert [h[1:] for h in hits] == [o[1:] for o in old]
            for (r, _, _), (r_old, _, _) in zip(hits, old):
                assert abs(r - r_old) <= 1e-12 * max(1.0, abs(r))


def test_crossings_evaluation_budget():
    # At most 12 interpolant evaluations per crossing (bisection to the
    # same width took about 32).
    sol = integrate(rotation_ivp(r_end=6 * math.pi))
    evals = []
    dense_eval = sol.eval

    def counted(r):
        evals.append(r)
        return dense_eval(r)

    sol.eval = counted
    for component in (0, 1):
        for levels in ([0.0], [0.5, -0.5], [0.999, -0.25]):
            evals.clear()
            hits = crossings(sol, component, levels)
            assert len(evals) <= 12 * len(hits), (component, levels)


def test_bisect_returns_exact_zero():
    calls = []

    def side(x):
        calls.append(x)
        return x - 0.75

    never = lambda lo, hi: False  # noqa: E731
    assert bisect_bracket(side, 0.0, 1.0, -1.0, never) == 0.75
    assert calls == [0.5, 0.75]


def test_bisect_stops_on_adjacent_doubles():
    root = math.sqrt(2.0)
    calls = []

    def side(x):
        calls.append(x)
        return -1.0 if x <= root else 1.0

    r = bisect_bracket(side, 1.0, 2.0, -1.0, lambda lo, hi: False)
    assert r in (root, math.nextafter(root, math.inf))
    # One halving per bit of the mantissa, far below the cap.
    assert 50 <= len(calls) <= 54
    assert len(set(calls)) == len(calls)


def test_bisect_caps_at_200_halvings():
    # A bracket closing in on zero never reaches adjacent doubles.
    calls = []

    def side(x):
        calls.append(x)
        return 1.0

    r = bisect_bracket(side, 0.0, 1.0, -1.0, lambda lo, hi: False)
    assert len(calls) == 200
    assert r == 2.0**-201


def test_bisect_decreasing_side():
    done = lambda lo, hi: hi - lo <= 1e-12  # noqa: E731
    falling = bisect_bracket(math.cos, 0.0, 3.0, 1.0, done)
    assert falling == pytest.approx(math.pi / 2, abs=1e-12)
    rising = bisect_bracket(lambda x: -math.cos(x), 0.0, 3.0, -1.0, done)
    assert falling == rising


def test_bisect_stopping_rule_sees_every_bracket():
    seen = []

    def done(lo, hi):
        seen.append((lo, hi))
        return hi - lo <= 0.25

    r = bisect_bracket(lambda x: x - 0.3, 0.0, 1.0, -0.3, done)
    assert seen == [(0.0, 1.0), (0.0, 0.5), (0.25, 0.5)]
    assert r == 0.375



def test_illinois_reaches_a_smooth_root_in_few_evaluations():
    calls = []

    def side(x):
        calls.append(x)
        return -math.cos(x)

    x, fx = illinois_bracket(
        side, 0.0, 3.0, -1.0, -math.cos(3.0), 1e-14, lambda lo, hi: False
    )
    assert abs(fx) <= 1e-14
    assert fx == -math.cos(x)
    assert x == pytest.approx(math.pi / 2, abs=1e-14)
    assert len(calls) <= 8


@pytest.mark.parametrize("width", [1e-9, 0.0])
def test_illinois_on_a_step_returns_an_endpoint_and_its_real_value(width):
    # The halved Illinois weights must not leak into the returned value:
    # every value side takes here is +1 or -1.  Width 0 runs the search
    # to adjacent doubles.
    calls = []

    def side(x):
        calls.append(x)
        return -1.0 if x < 0.3 else 1.0

    def done(lo, hi):
        return hi - lo <= width

    x, fx = illinois_bracket(side, 0.0, 1.0, -1.0, 1.0, 1e-12, done)
    assert abs(x - 0.3) <= 1e-9
    assert x in calls  # an endpoint, not a fresh midpoint
    assert fx == (-1.0 if x < 0.3 else 1.0)
    assert len(calls) < 200


def test_illinois_halving_unsticks_a_convex_side():
    # On a convex side plain regula falsi keeps the upper end for ever
    # and creeps up from below; halving that end's weight does not.
    calls = []

    def side(x):
        calls.append(x)
        return x**3 - 1e-3

    x, fx = illinois_bracket(side, 0.0, 3.0, -1e-3, 26.999, 1e-14, lambda lo, hi: False)
    assert abs(fx) <= 1e-14
    assert x == pytest.approx(0.1, abs=1e-12)
    assert len(calls) <= 20


def test_illinois_returns_an_exact_zero_at_once():
    calls = []

    def side(x):
        calls.append(x)
        return x - 0.5

    # The first secant point of a straight line is its zero.
    x, fx = illinois_bracket(side, 0.0, 1.0, -0.5, 0.5, 0.0, lambda lo, hi: False)
    assert (x, fx) == (0.5, 0.0)
    assert calls == [0.5]


def test_illinois_stops_on_adjacent_doubles_at_the_smaller_side():
    lo = 1.0
    hi = math.nextafter(lo, 2.0)
    calls = []
    x, fx = illinois_bracket(calls.append, lo, hi, -2.0, 1.0, 0.0, lambda lo, hi: False)
    assert (x, fx) == (hi, 1.0)
    assert calls == []


def _called(field, dim, reads):
    """A callable ``field(r, y0, ...)`` as the body of a compiled field.

    For one component the callable returns its slope as a float.
    """
    names = [f"y{d}" for d in range(reads)]
    slopes = ", ".join(f"f{d}" for d in range(dim))
    return compile_field(names, [f"{slopes} = field(r, {', '.join(names)})"], field=field)


def test_end_state_runs_only_a_compiled_right_hand_side():
    # The march rides on the compiled callable, so the IVP alone says
    # what to run; a plain callable has none, and integrate takes it.
    rotation = compile_field(("u", "v"), ("f0 = -v", "f1 = u"))
    ivp = IvpSpec(rhs=rotation, r_start=0.0, r_end=1.0, y0=(1.0, 0.0))
    plain = IvpSpec(rhs=lambda r, y: (-y[1], y[0]), r_start=0.0, r_end=1.0, y0=(1.0, 0.0))
    assert rotation(0.5, (1.0, 2.0)) == (-2.0, 1.0)
    with pytest.raises(SpecError, match="built by compile_field"):
        end_state(plain)
    sol = integrate(plain)
    assert end_state(ivp) == (sol.y_end, sol.n_steps, sol.n_rhs_evals)


@pytest.mark.parametrize(
    "body, slopes",
    [(("x = y0",), "[]"), (("f0 = 1.0", "f2 = 1.0"), "[0, 2]"), (("f1 = y0",), "[1]")],
)
def test_a_body_must_assign_its_slopes_from_f0_on(body, slopes):
    # The state has one component per slope f0, f1, ...: a body that
    # assigns none, or skips one, names no state.
    with pytest.raises(SpecError, match=re.escape(f"f0, f1, ..., not {slopes}")):
        compile_field(("y0",), body)


def test_fifth_order_convergence():
    # One generated step from (1, 0) on the rotation u' = -v, v' = u,
    # whose exact solution is (cos h, sin h): halving h should shrink the
    # one-step error by about 2**6 for a fifth order method.  The
    # rotation is written once as a body and once as a callable.
    fields = (
        compile_field(("u", "v"), ("f0 = -v", "f1 = u")),
        _called(lambda r, u, v: (-v, u), 2, 2),
    )
    errors = []
    for field in fields:

        def one_step_error(h):
            # A march over [0, h] that starts with the step h and may
            # make one attempt: its one step must be accepted.
            y0 = (1.0, 0.0)
            (u, v), steps, evals = field.march(0.0, h, y0, field(0.0, y0), h, 1e-2, 1e-2, 1)
            assert (steps, evals) == (1, 6)
            return math.hypot(u - math.cos(h), v - math.sin(h))

        e1 = one_step_error(0.4)
        e2 = one_step_error(0.2)
        # Order >= 5 gives a factor of 32; allow slack for the error constant.
        assert e1 / e2 > 20.0
        errors.append((e1, e2))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("dim, reads", [(3, 2), (1, 1)])
def test_failed_trial_counts_the_evaluations_it_made(dim, reads):
    # A march whose n-th evaluation is not finite (stage n + 1 of its
    # first trial step, or the endpoint's slope for n = 6) rejects that
    # trial after n evaluations and counts them; every later step on
    # the constant slope 1 is accepted and makes 6.  For a field written
    # as a body and for a callable one.
    y, k1 = (0.0,) * dim, (1.0,) * dim
    names = [f"y{d}" for d in range(reads)]
    slopes = [f"f{d}" for d in range(dim)]
    for fail_at in range(1, 7):
        calls = []
        body = compile_field(
            names,
            ["calls.append(r)", f"{' = '.join(slopes)} = nan if len(calls) == fail_at else 1.0"],
            calls=calls, fail_at=fail_at, nan=math.nan,
        )

        def field(r, *state):
            calls.append(r)
            slope = math.nan if len(calls) == fail_at else 1.0
            return slope if dim == 1 else (slope,) * dim

        for kind in (body, _called(field, dim, reads)):
            calls.clear()
            _, steps, evals = kind.march(0.0, 0.5, y, k1, 0.5, 1e-6, 1e-6, 10)
            assert steps >= 2
            assert evals == fail_at + 6 * steps == len(calls)
            # With one attempt the failed trial is all there is.
            calls.clear()
            with pytest.raises(IntegrationError, match="exceeded max_steps=1"):
                kind.march(0.0, 0.5, y, k1, 0.5, 1e-6, 1e-6, 1)
            assert len(calls) == fail_at
    # Finite slopes of 1e308 whose endpoint overflows at h = 2: five
    # evaluations, and none at the endpoint.
    big = (1e308,) * dim
    calls = []
    for kind in (
        compile_field(names, ["calls.append(r)", f"{' = '.join(slopes)} = 1e308"], calls=calls),
        _called(lambda r, *state: calls.append(r) or (big[0] if dim == 1 else big), dim, reads),
    ):
        calls.clear()
        with pytest.raises(IntegrationError, match="exceeded max_steps=1"):
            kind.march(0.0, 2.0, y, big, 2.0, 1e-6, 1e-6, 1)
        assert len(calls) == 5


def _dot(w, k, d):
    """Sum of ``w[j] * k[j][d]`` over the weights ``w``, left to right."""
    acc = 0.0
    for j in range(len(w)):
        acc += w[j] * k[j][d]
    return acc


def _error_norm(err, y_old, y_new, rel_tol, abs_tol):
    acc = 0.0
    for d in range(len(err)):
        scale = abs_tol + rel_tol * max(abs(y_old[d]), abs(y_new[d]))
        q = err[d] / scale
        acc += q * q
    return math.sqrt(acc / len(err))


def _reference_march(ivp, trial, keep=None):
    """The Dormand-Prince step loop over ``ivp``, as a plain loop.

    ``trial(r, h, y, k1)`` makes one trial step of size ``h`` from the
    state ``y`` at ``r``, whose slope is ``k1``, and returns ``(err,
    y_new, k7, evals)``: the scaled error norm (``inf`` when a stage or
    the endpoint was not finite), the endpoint, its slope, and the rhs
    evaluations made.  Each accepted step calls ``keep(r_new, y_new)``
    when given, while ``trial``'s stages are still those of the step.
    Returns ``(y_end, n_steps, n_rhs_evals)``.  The generated marches
    must take its steps to the bit.
    """
    _EXPO, _BETA, _SAFETY = odeint._EXPO, odeint._BETA, odeint._SAFETY
    _FAC_LO, _FAC_HI = odeint._FAC_LO, odeint._FAC_HI
    r = ivp.r_start
    r_end = ivp.r_end
    y = ivp.y0
    k1 = odeint._call_rhs(ivp.rhs, r, y, len(y))
    if not all(math.isfinite(c) for c in k1):
        raise IntegrationError("right hand side not finite at the start", r)
    h = odeint._initial_step(ivp, k1)
    n_evals = 2
    max_steps = odeint.MAX_STEPS
    facold = 1e-4
    step_rejected = False
    attempts = n_steps = 0

    # Comparisons stand in for min and max on this path: same values,
    # without a builtin call per step.
    while r < r_end:
        if attempts >= max_steps:
            raise IntegrationError(f"exceeded max_steps={max_steps}", r)
        attempts += 1
        if r_end - r < h:
            h = r_end - r
        if h <= 1e-300 or h <= abs(r) * 1e-15:
            raise IntegrationError("step size underflow", r)
        err, y_new, k7, evals = trial(r, h, y, k1)
        n_evals += evals

        # PI controller.  A non-finite error shrinks the step by 4, a
        # rejected one by the error's fifth root, and the step after a
        # rejection does not grow.
        if err <= 1.0:
            fac = (err**_EXPO / facold**_BETA if err > 0 else _FAC_LO) / _SAFETY
            fac = _FAC_LO if fac < _FAC_LO else _FAC_HI if fac > _FAC_HI else fac
            r = r_end if h >= (r_end - r) else r + h
            y = y_new
            k1 = k7
            n_steps += 1
            if keep is not None:
                keep(r, y)
            h_next = h / fac
            h = min(h_next, h) if step_rejected else h_next
            facold = err if err > 1e-4 else 1e-4
            step_rejected = False
        elif err < math.inf:
            h = h / min(_FAC_HI, err**_EXPO / _SAFETY)
            step_rejected = True
        else:
            h = h * 0.25
            step_rejected = True

    return y, n_steps, n_evals


def _reference_integrate(ivp):
    """``integrate`` by a plain Dormand-Prince stage loop over the tableau.

    The oracle of the generated marches: :func:`_reference_march` with a
    trial step that loops over the stages of ``odeint._A``, ``_C`` and
    ``_E`` and calls ``ivp.rhs`` in each, and sums the interpolant
    weights of every accepted step from ``_P``.
    """
    rhs = ivp.rhs
    dim = len(ivp.y0)
    k = [()] * 7

    def trial(r, h, y, k1):
        # Stages 2..6, then the candidate endpoint and its slope (k7); a
        # non-finite value anywhere fails the trial.
        k[0] = k1
        for s in range(1, 6):
            a = odeint._A[s]
            ys_stage = tuple(y[d] + h * _dot(a, k, d) for d in range(dim))
            ks = odeint._call_rhs(rhs, r + odeint._C[s] * h, ys_stage, dim)
            if not all(math.isfinite(c) for c in ks):
                return math.inf, None, None, s
            k[s] = ks
        a = odeint._A[6]
        y_new = tuple(y[d] + h * _dot(a, k, d) for d in range(dim))
        if not all(math.isfinite(c) for c in y_new):
            return math.inf, None, None, 5
        k7 = odeint._call_rhs(rhs, r + h, y_new, dim)
        if not all(math.isfinite(c) for c in k7):
            return math.inf, None, None, 6
        k[6] = k7
        err_vec = tuple(h * _dot(odeint._E, k, d) for d in range(dim))
        return _error_norm(err_vec, y, y_new, ivp.rel_tol, ivp.abs_tol), y_new, k7, 6

    rs = [ivp.r_start]
    ys = [ivp.y0]
    cells = []

    def keep(r, y):
        r_lo = rs[-1]
        cells.append(
            (r_lo, r - r_lo, *ys[-1],
             *(_dot(col, k, d) for d in range(dim) for col in zip(*odeint._P)))
        )
        rs.append(r)
        ys.append(y)

    n_evals = _reference_march(ivp, trial, keep)[2]
    return DenseSolution(rs=rs, ys=ys, cells=cells, n_rhs_evals=n_evals)


def _bits(xs):
    return tuple(x.hex() for x in xs)


def _weight_bits(xs):
    """The bits of each interpolant weight, but one zero: the generated
    weights drop the zero terms of ``_P`` and start from their first
    term, which can change only the sign of a zero."""
    return tuple((x + 0.0).hex() for x in xs)


def _end_or_error(run):
    try:
        y_end, n_steps, n_evals = run()
    except IntegrationError as exc:
        return type(exc), str(exc), exc.last_r
    return _bits(y_end), n_steps, n_evals


def _dense_or_error(run):
    """The bits of a dense solution: its end, counts, mesh and cells."""
    try:
        sol = run()
    except IntegrationError as exc:
        return type(exc), str(exc), exc.last_r
    head = 2 + len(sol.y_end)  # r_lo, h and the state; the weights follow
    return (
        _bits(sol.y_end), sol.n_steps, sol.n_rhs_evals, _bits(sol.rs),
        tuple(_bits(cell[:head]) + _weight_bits(cell[head:]) for cell in sol.cells),
    )


def _compare_with_reference(ivp):
    # Both generated trial steps against the stage loop, under a budget
    # of 20 000 step attempts; integrate's default level, inf, keeps
    # every step.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(odeint, "MAX_STEPS", 20_000)
        reference = _dense_or_error(lambda: _reference_integrate(ivp))
        assert _dense_or_error(lambda: integrate(ivp)) == reference
        assert _dense_or_error(lambda: integrate(ivp, until=math.inf)) == reference
        assert _end_or_error(lambda: end_state(ivp)) == reference[:3]


_coef = st.floats(-2.0, 2.0)


@st.composite
def _smooth_ivps(draw, dim, field):
    """An initial value problem on a random smooth field.

    ``field(coefs, r, *y)`` is the field's formula, compiled as a
    callable field; its six coefficients, the start, the interval and
    the tolerance are drawn.  On a drawn band of ``r + y[0]``, if any,
    the field is not finite, so that the paths that reject a trial step
    at any stage, shrink it or give up are compared as well; the tests
    run them under a budget of 20 000 step attempts.
    """
    r0 = draw(st.floats(0.0, 1.0))
    r_end = r0 + draw(st.floats(0.05, 3.0))
    wall = draw(st.none() | st.floats(-2.0, 5.0))
    width = draw(st.sampled_from([1e-3, 1e-2, 0.1, math.inf]))
    rel_tol = 10.0 ** -draw(st.integers(3, 11))
    y0 = tuple(draw(_coef) for _ in range(dim))
    coefs = tuple(draw(_coef) for _ in range(6))

    def walled(r, *y):
        out = field(coefs, r, *y)
        if wall is not None and wall < r + y[0] < wall + width:
            return math.nan if dim == 1 else (math.nan,) + out[1:]
        return out

    return IvpSpec(
        rhs=_called(walled, dim, 1 if dim == 1 else 2), r_start=r0, r_end=r_end, y0=y0,
        rel_tol=rel_tol, abs_tol=1e-2 * rel_tol,
    )


def _shot_like(coefs, r, u, v):
    a, b, c, d, e, f = coefs
    return (a * v + b * math.sin(u), c * u + d * math.cos(r * v), e * u * v + f * math.sin(r))


def _angle_like(coefs, r, th):
    a, b, c, d, e, f = coefs
    return a + b * math.sin(c * th) ** 2 + d * math.cos(e * r + f * th)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_smooth_ivps(3, _shot_like))
def test_end_state_equals_integrate_on_three_components(case):
    # The shot's kind: the field reads two of three components and
    # returns a tuple.  integrate and end_state both equal the reference
    # stepper to the bit, steps, evaluations and cells included.
    _compare_with_reference(case)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_smooth_ivps(1, _angle_like))
def test_end_state_equals_integrate_on_one_scalar_component(case):
    # The eigenvalue angle's kind: one component, and a field that
    # returns its slope as a float.
    _compare_with_reference(case)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_smooth_ivps(3, _shot_like), st.floats(0.05, 1.25))
def test_until_stops_after_the_first_step_that_reaches_the_level(case, share):
    # The level lies a drawn share of the way from the start to the top
    # of the last component.  The stopped solution is the full one's
    # prefix, bit for bit, up to its first knot that reaches the level
    # (none past the start if the start does), and its crossing of the
    # level is the full one's first.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(odeint, "MAX_STEPS", 20_000)
        try:
            full = integrate(case)
        except IntegrationError:
            return
        start = case.y0[2]
        level = start + share * (max(y[2] for y in full.ys) - start)
        part = integrate(case, until=level)
    reached = [i for i, y in enumerate(full.ys) if y[2] >= level]
    n = reached[0] + 1 if reached else len(full.rs)
    assert _bits(part.rs) == _bits(full.rs[:n])
    assert [_bits(y) for y in part.ys] == [_bits(y) for y in full.ys[:n]]
    assert [_bits(c) for c in part.cells] == [_bits(c) for c in full.cells[: n - 1]]
    assert part.n_rhs_evals <= full.n_rhs_evals
    if n > 1 and reached:
        r_part = crossings(part, 2, [level])[0][0]
        r_full = crossings(full, 2, [level])[0][0]
        assert abs(r_part - r_full) <= 1e-12 * max(1.0, abs(r_full))


def _logged(side, calls):
    def wrapped(x):
        calls.append(x)
        return side(x)
    return wrapped


def test_grow_bracket_doubles_up_to_the_sign_change():
    calls = []
    side = _logged(lambda x: x - 5.0, calls)
    assert grow_bracket(side, 1.0, 0.0, 100.0) == (4.0, 8.0, -1.0, 3.0)
    assert calls == [1.0, 2.0, 4.0, 8.0]


def test_grow_bracket_halves_down_to_the_sign_change():
    calls = []
    side = _logged(lambda x: x - 0.375, calls)
    assert grow_bracket(side, 1.0, 0.0, 100.0) == (0.25, 0.5, -0.125, 0.125)
    assert calls == [1.0, 0.5, 0.25]


def test_grow_bracket_clamps_at_both_limits():
    calls = []
    up = grow_bracket(_logged(lambda x: x - 5.5, calls), 1.0, 0.0, 6.0)
    assert up == (4.0, 6.0, -1.5, 0.5)
    assert calls == [1.0, 2.0, 4.0, 6.0]
    calls.clear()
    down = grow_bracket(_logged(lambda x: x - 0.375, calls), 1.0, 0.3125, 6.0)
    assert down == (0.3125, 0.5, -0.0625, 0.125)
    assert calls == [1.0, 0.5, 0.3125]
    # A start outside the limits is clamped first.
    assert grow_bracket(lambda x: x - 5.5, 50.0, 0.0, 6.0) == (3.0, 6.0, -2.5, 0.5)


def test_grow_bracket_gives_none_when_a_clamped_end_has_the_wrong_sign():
    calls = []
    assert grow_bracket(_logged(lambda x: -1.0, calls), 1.0, 0.5, 6.0) is None
    assert calls == [1.0, 2.0, 4.0, 6.0]
    calls.clear()
    assert grow_bracket(_logged(lambda x: 1.0, calls), 1.0, 0.3, 6.0) is None
    assert calls == [1.0, 0.5, 0.3]


def test_only_constants_equal_to_one_are_folded(monkeypatch):
    # A square stays x ** 2.0, which differs from x * x in the last bit
    # for some doubles; a bool is not a number here.  Only the absolute
    # value under an even power goes, not the power, and a zero power
    # only as a factor on the right.
    seen = []
    fold = odeint._fold

    def spy(body, units, evens, zeros):
        seen.append((units, evens, zeros))
        return fold(body, units, evens, zeros)

    monkeypatch.setattr(odeint, "_fold", spy)
    body = (
        "f0 = k * y ** two + y ** one * flag + copysign(abs(y) ** one, y)"
        " + abs(y) ** two + abs(y) ** three + y * big ** nil",
    )
    consts = dict(
        k=1.0, two=2.0, three=3.0, one=1, flag=True, copysign=math.copysign, big=math.inf,
        nil=-0.0,
    )
    rhs = odeint.compile_field(("y",), body, **consts)
    assert seen == [
        (frozenset({"k", "one"}), frozenset({"two", "nil"}), frozenset({"nil"}))
    ]
    assert fold(body, *seen[0]) == (
        "f0 = y ** two + y * flag + y + y ** two + abs(y) ** three + y",
    )
    y = -3.0
    assert rhs(0.0, (y,)) == (y**2.0 + y + y + abs(y) ** 2.0 + abs(y) ** 3.0 + y,)


# The constants that test_the_fold_follows_the_expression_tree binds:
# k is 1, i2, f2, f4 and m2 are even integers, i0, z0 and m0 are zeros
# (and even), and f3, f25, tiny, flag and off are not (two is not bound).
_FOLD_CONSTS = dict(
    k=1.0, i2=2, f2=2.0, f4=4.0, m2=-2.0, f3=3.0, f25=2.5, flag=True,
    i0=0, z0=0.0, m0=-0.0, tiny=1e-300, off=False,
)


@pytest.mark.parametrize(
    "line, folded",
    [
        ("f0 = a - k * y ** k", "f0 = a - y"),
        ("f0 = a / k * y", "f0 = a / k * y"),
        ("f0 = y ** k ** two", "f0 = y ** k ** two"),
        ("f0 = (y ** k) ** two", "f0 = y ** two"),
        ("f0 = -y ** k", "f0 = -y"),
        ("f0 = copysign(abs(y) ** k, z)", "f0 = copysign(abs(y), z)"),
        ("f0 = copysign(abs(y) ** two, y)", "f0 = copysign(abs(y) ** two, y)"),
        ("f0 = abs(y) ** i2 + abs(y) ** f2", "f0 = y ** i2 + y ** f2"),
        ("f0 = abs(y) ** f4 * abs(y) ** m2", "f0 = y ** f4 * y ** m2"),
        ("f0 = abs(y) ** f3 + abs(y) ** f25", "f0 = abs(y) ** f3 + abs(y) ** f25"),
        ("f0 = abs(y) ** flag", "f0 = abs(y) ** flag"),
        ("f0 = abs(y - z) ** f2 * abs(y) ** two", "f0 = (y - z) ** f2 * abs(y) ** two"),
        ("f0 = (abs(y) * z) ** f2", "f0 = (abs(y) * z) ** f2"),
        ("f0 = copysign(abs(y) ** f2, y)", "f0 = copysign(y ** f2, y)"),
        ("f0 = abs(y) ** k * f2", "f0 = abs(y) * f2"),
        ("f0 = a * y ** i0 - b * y ** z0 + (a + b) * y ** m0", "f0 = a - b + (a + b)"),
        ("f0 = y ** z0 * a", "f0 = y ** z0 * a"),
        ("f0 = a / y ** z0", "f0 = a / y ** z0"),
        ("f0 = y ** z0", "f0 = y ** z0"),
        ("f0 = a * y ** tiny", "f0 = a * y ** tiny"),
        ("f0 = a * y ** off", "f0 = a * y ** off"),
        ("f0 = a * (y / z) ** z0", "f0 = a * (y / z) ** z0"),
        ("f0 = a * y ** z0 ** f2", "f0 = a * y ** z0 ** f2"),
        ("f0 = a * abs(y) ** z0", "f0 = a"),
        (
            "f0 = f3 * (abs(s) * r ** m0) ** f25 + a * abs(c) ** f3 * r ** i0",
            "f0 = f3 * abs(s) ** f25 + a * abs(c) ** f3",
        ),
    ],
)
def test_the_fold_follows_the_expression_tree(line, folded):
    # a / k * y is (a / k) * y and y ** k ** two is y ** (k ** two):
    # neither has a product or power with k to fold.  The signed power
    # folds only as a whole, with the same x in both places.  An even
    # power drops the abs right under it, and nothing else.  A zero power
    # of a name goes only as the right factor of a product: the power of
    # y / z may raise, and y ** z0 ** f2 is not a power with z0.
    units, evens, zeros = odeint._fold_classes(_FOLD_CONSTS)
    assert (units, evens, zeros) == (
        frozenset({"k"}),
        frozenset({"i2", "f2", "f4", "m2", "i0", "z0", "m0"}),
        frozenset({"i0", "z0", "m0"}),
    )
    assert odeint._fold((line,), units, evens, zeros) == (folded,)


def _power(x, k):
    """The bits of ``x ** k``, or the exception it raises."""
    try:
        return x**k
    except ArithmeticError as exc:
        return type(exc), exc.args


_FOLD_BASES = [
    0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e-300, 1e-160, 0.5, 1.0, 3.0,
    1e154, 1.4e154, 1e300, 1.7976931348623157e308, math.inf, math.nan,
]


@pytest.mark.parametrize("k", [2, 2.0, 4.0, -2.0])
def test_an_even_power_of_abs_x_is_the_power_of_x(k):
    # Float ** takes the absolute value of a negative base itself when
    # the exponent is an even integer: the same bits, the same overflow
    # and the same ZeroDivisionError for every double, subnormals, ±0.0,
    # ±inf and NaN included.  Only the sign of a NaN may differ, which
    # neither a finiteness test nor hex() sees.
    for x in _FOLD_BASES + [-x for x in _FOLD_BASES]:
        folded, written = _power(x, k), _power(abs(x), k)
        if isinstance(written, float):
            assert folded.hex() == written.hex(), (x, k)
        else:
            assert folded == written, (x, k)


@pytest.mark.parametrize("k", [0, 0.0, -0.0])
def test_a_factor_times_a_zero_power_is_the_factor(k):
    # y ** k is 1.0 and raises nothing for every double y, and x * 1.0
    # keeps the bits of x: the folded field gives the unfolded product's
    # bits for every pair of extreme doubles.  Only the sign of a NaN may
    # differ, which neither a finiteness test nor hex() sees.
    body = ("f0 = x * y ** k", "f1 = y")
    assert odeint._fold(body, *odeint._fold_classes(dict(k=k))) == ("f0 = x", "f1 = y")
    rhs = odeint.compile_field(("x", "y"), body, k=k)
    doubles = _FOLD_BASES + [-x for x in _FOLD_BASES]
    for x in doubles:
        for y in doubles:
            assert rhs(0.0, (x, y))[0].hex() == (x * y**k).hex(), (x, y, k)
