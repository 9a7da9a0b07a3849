"""Integrator tests against problems with known closed-form solutions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapshoot.errors import IntegrationError, SpecError
from plapshoot.odeint import (
    DenseSolution,
    IvpSpec,
    _end_trial,
    bisect_bracket,
    crossings,
    end_state,
    grow_bracket,
    illinois_bracket,
    integrate,
)


def exp_ivp(rel=1e-10, abs_=1e-12, **kw):
    return IvpSpec(
        rhs=lambda r, y: (y[0],),
        r_start=0.0,
        r_end=1.0,
        y0=(1.0,),
        rel_tol=rel,
        abs_tol=abs_,
        **kw,
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


def test_max_steps_budget():
    with pytest.raises(IntegrationError) as exc:
        integrate(exp_ivp(max_steps=3))
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
    with pytest.raises(SpecError):
        IvpSpec(**{**ok, "max_steps": 0})


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


def test_crossings_level_never_reached():
    sol = integrate(rotation_ivp())
    assert crossings(sol, 0, [2.0]) == []


def test_crossings_bad_component():
    sol = integrate(exp_ivp())
    with pytest.raises(SpecError):
        crossings(sol, 3, [0.0])


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


def test_fifth_order_convergence():
    # One generated trial step from (1, 0) on the rotation u' = -v,
    # v' = u, whose exact solution is (cos h, sin h): halving h should
    # shrink the one-step error by about 2**6 for a fifth order method.
    def field(r, u, v):
        return (-v, u)

    trial = _end_trial(2, 2, False)(field, 1e-2, 1e-2)

    def one_step_error(h):
        _, (u, v), _, evals = trial(0.0, h, (1.0, 0.0), field(0.0, 1.0, 0.0))
        assert evals == 6
        return math.hypot(u - math.cos(h), v - math.sin(h))

    e1 = one_step_error(0.4)
    e2 = one_step_error(0.2)
    # Order >= 5 gives a factor of 32; allow slack for the error constant.
    assert e1 / e2 > 20.0


@pytest.mark.parametrize("dim, reads, scalar", [(3, 2, False), (1, 1, True)])
def test_failed_trial_counts_the_evaluations_it_made(dim, reads, scalar):
    # A trial step whose n-th evaluation is not finite (stage n + 1, or
    # the endpoint's slope for n = 6) returns inf and n evaluations.
    y, k1 = (0.0,) * dim, (1.0,) * dim
    for fail_at in range(1, 7):
        calls = []

        def field(r, *state):
            calls.append(r)
            slope = math.nan if len(calls) == fail_at else 1.0
            return slope if scalar else (slope,) * dim

        trial = _end_trial(dim, reads, scalar)(field, 1e-6, 1e-6)
        assert trial(0.0, 0.5, y, k1) == (math.inf, None, None, fail_at)
        assert len(calls) == fail_at
    # Finite slopes of 1e308 whose endpoint overflows at h = 2: five
    # evaluations, and none at the endpoint.
    big = (1e308,) * dim
    trial = _end_trial(dim, reads, scalar)(
        lambda r, *state: big[0] if scalar else big, 1e-6, 1e-6
    )
    assert trial(0.0, 2.0, y, big) == (math.inf, None, None, 5)


def _end_or_error(run):
    try:
        y_end, n_steps, n_evals = run()
    except IntegrationError as exc:
        return type(exc), str(exc), exc.last_r
    return tuple(c.hex() for c in y_end), n_steps, n_evals


def _integrate_end(ivp):
    sol = integrate(ivp)
    return sol.y_end, sol.n_steps, sol.n_rhs_evals


_coef = st.floats(-2.0, 2.0)


@st.composite
def _smooth_ivps(draw, dim, field):
    """An initial value problem on a random smooth field, and the field.

    ``field(coefs, r, *y)`` is the field's formula; its six coefficients,
    the start, the interval and the tolerance are drawn.  On a drawn band
    of ``r + y[0]``, if any, the field is not finite, so that the
    paths that reject a trial step at any stage, shrink it or give up
    are compared as well.
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

    def rhs(r, y):
        return (walled(r, y[0]),) if dim == 1 else walled(r, y[0], y[1])

    ivp = IvpSpec(
        rhs=rhs, r_start=r0, r_end=r_end, y0=y0,
        rel_tol=rel_tol, abs_tol=1e-2 * rel_tol, max_steps=20_000,
    )
    return ivp, walled


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
    # returns a tuple.  Equal to the bit, steps and evaluations included.
    ivp, field = case
    full = _end_or_error(lambda: _integrate_end(ivp))
    assert _end_or_error(lambda: end_state(ivp, field, 2)) == full


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_smooth_ivps(1, _angle_like))
def test_end_state_equals_integrate_on_one_scalar_component(case):
    # The eigenvalue angle's kind: one component, and a field that
    # returns its slope as a float.
    ivp, field = case
    full = _end_or_error(lambda: _integrate_end(ivp))
    assert _end_or_error(lambda: end_state(ivp, field, 1, scalar=True)) == full


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
