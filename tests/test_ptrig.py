"""Generalized trig tests, including a closed-form inverse-beta oracle."""

import functools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv

from plapshoot import ptrig
from plapshoot.errors import NumericsError, SpecError
from plapshoot.odeint import IvpSpec, compile_field, crossings, integrate
from plapshoot.ptrig import LOOKUP, PTrigContext, get_context, phi_p, phi_p_inv, pi_p
from plapshoot.radial import Ball, ProblemSpec

P_GRID = (1.3, 4 / 3, 1.5, 2.0, 2.5, 3.0, 4.0)


def test_pi_p_reduces_to_pi():
    assert pi_p(2.0) == pytest.approx(math.pi, rel=1e-14)


def test_pi_p_frozen_values():
    # Frozen from the closed form evaluated at high precision.
    assert pi_p(4 / 3) == pytest.approx(2.923581388750120, rel=1e-12)
    assert pi_p(3.0) == pytest.approx(3.046991999046172, rel=1e-12)


def test_pi_p_stays_above_1_98():
    # pi_p tends to 2 as p falls to 1 and as p grows, and is pi at p = 2.
    # Its closed form stays above 1.98 from p = 1 + 1e-14 on (1.9834
    # there; rounding scatters it down to 1.38 within a few ulp of 1).
    # So a quarter period is far longer than the series cutoff 1e-6.
    ps = [1.0 + 10.0**e for e in range(-14, 1)] + [10.0**e for e in range(1, 301, 3)]
    assert min(map(pi_p, ps)) > 1.98
    assert pi_p(1e300) == 2.0


def test_pi_p_rejects_bad_exponent():
    for bad in (1.0, 0.5, -2.0, float("inf"), float("nan")):
        with pytest.raises(SpecError):
            pi_p(bad)


def test_phi_p_known_values():
    assert phi_p(-2.0, 3.0) == pytest.approx(-4.0, rel=1e-15)
    assert phi_p(0.0, 1.5) == 0.0
    assert phi_p(0.5, 1.5) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert phi_p(8.0, 1.5) == pytest.approx(2.828427124746190, rel=1e-13)
    # p = 2 is the identity.
    assert phi_p(3.7, 2.0) == 3.7


def test_phi_p_odd_and_increasing():
    for p in P_GRID:
        xs = [1e-8, 1e-3, 0.1, 1.0, 7.0, 1e4]
        vals = [phi_p(x, p) for x in xs]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals)
        for x, v in zip(xs, vals):
            assert phi_p(-x, p) == -v


def test_phi_p_roundtrip():
    # Relative accuracy: an absolute bound is not representable at
    # |s| = 1e6 in double precision.
    for p in P_GRID:
        for s in (-1e6, -12.0, -1e-4, 0.0, 1e-7, 0.3, 1.0, 500.0, 1e6):
            rt = phi_p_inv(phi_p(s, p), p)
            assert rt == pytest.approx(s, rel=1e-12, abs=1e-300)
            rt2 = phi_p(phi_p_inv(s, p), p)
            assert rt2 == pytest.approx(s, rel=1e-12, abs=1e-300)


def test_pexponent_conjugate():
    for e in (get_context(3.0), ProblemSpec(p=3.0, dim=1, domain=Ball(1.0))):
        assert e.pprime == pytest.approx(1.5, rel=1e-15)
        assert 1.0 / e.p + 1.0 / e.pprime == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(SpecError, match="exponent p must be a finite number > 1"):
        get_context(1.0)
    with pytest.raises(SpecError, match="exponent p must be a finite number > 1"):
        ProblemSpec(p=1.0, dim=1, domain=Ball(1.0))


def test_pair_reduces_to_cos_sin():
    ctx = get_context(2.0)
    for i in range(101):
        theta = -2 * math.pi + 4 * math.pi * i / 100 + 0.05
        c, s = ctx.pair(theta)
        assert c == pytest.approx(math.cos(theta), abs=1e-9)
        assert s == pytest.approx(math.sin(theta), abs=1e-9)


def test_pair_anchor_values():
    for p in P_GRID:
        ctx = get_context(p)
        assert ctx.pair(0.0) == (1.0, 0.0)
        c, s = ctx.pair(ctx.half_pi_p)
        assert abs(c) <= 1e-10
        assert s == pytest.approx(ctx.sin_p_max, abs=1e-10)
        c, s = ctx.pair(ctx.pi_p)
        assert c == pytest.approx(-1.0, abs=1e-10)
        assert abs(s) <= 1e-10


def test_sin_p_max_frozen_value():
    assert get_context(3.0).sin_p_max == pytest.approx(
        0.629960524947437, rel=1e-12
    )


def test_identity_on_dense_grid():
    n = 10_000
    for p in P_GRID:
        ctx = get_context(p)
        pp = ctx.pprime
        worst = 0.0
        for i in range(n):
            c, s = ctx.pair(2.0 * ctx.pi_p * (i / (n - 1)))
            worst = max(
                worst, abs((p - 1.0) * abs(s) ** pp + abs(c) ** p - 1.0)
            )
        assert worst <= 1e-9, f"identity defect {worst:.2e} at p={p}"


def test_symmetries():
    for p in (1.5, 3.0):
        ctx = get_context(p)
        pip = ctx.pi_p
        for i in range(40):
            theta = pip * i / 39
            c, s = ctx.pair(theta)
            c_ref, s_ref = ctx.pair(pip - theta)
            assert c_ref == pytest.approx(-c, abs=1e-10)
            assert s_ref == pytest.approx(s, abs=1e-10)
            c_sh, s_sh = ctx.pair(theta + pip)
            assert c_sh == pytest.approx(-c, abs=1e-10)
            assert s_sh == pytest.approx(-s, abs=1e-10)


def test_periodicity():
    for p in (1.3, 2.5):
        ctx = get_context(p)
        for theta in (-5.0, 0.3, 1.9, 4.4):
            a = ctx.pair(theta)
            b = ctx.pair(theta + 2 * ctx.pi_p)
            assert a[0] == pytest.approx(b[0], abs=1e-9)
            assert a[1] == pytest.approx(b[1], abs=1e-9)


def test_half_period_from_ode():
    # Recompute pi_p by integrating the defining system and locating
    # the first return of sin_p to zero; must match the closed form.
    for p in (1.3, 2.0, 3.0):
        ctx = get_context(p)
        pp = p / (p - 1.0)

        def rhs(t, y):
            c, s = y
            return (
                -math.copysign(abs(s) ** (pp - 1.0), s),
                math.copysign(abs(c) ** (p - 1.0), c),
            )

        delta = 1e-7
        sol = integrate(
            IvpSpec(
                rhs=rhs,
                r_start=delta,
                r_end=1.2 * ctx.pi_p,
                y0=ctx._series_pair(delta),
                rel_tol=1e-12,
                abs_tol=1e-14,
            )
        )
        hits = [h for h in crossings(sol, 1, [0.0]) if h[0] > delta]
        assert hits, f"no sin_p zero found for p={p}"
        assert hits[0][0] == pytest.approx(ctx.pi_p, rel=1e-10)


def test_closed_form_oracle():
    # Independent route: on the first quarter period cos_p has the
    # closed form  C(theta) = I^{-1}(1 - 2 theta/pi_p; 1/p, 1 - 1/p)^{1/p}
    # with I^{-1} the inverse regularized incomplete beta function, and
    # sin_p follows from the identity.  Near theta = 0 that subtraction
    # cancels, so there the complementary form
    # (p-1) S^q = I^{-1}(2 theta/pi_p; 1 - 1/p, 1/p) is used instead.
    for p in P_GRID:
        ctx = get_context(p)
        pp = ctx.pprime
        for i in range(1, 200):
            theta = ctx.half_pi_p * i / 200
            x = 2.0 * theta / ctx.pi_p
            if x > 0.5:
                c_ref = betaincinv(1.0 / p, 1.0 - 1.0 / p, 1.0 - x) ** (
                    1.0 / p
                )
                s_ref = ((1.0 - c_ref**p) / (p - 1.0)) ** (1.0 / pp)
            else:
                y = betaincinv(1.0 - 1.0 / p, 1.0 / p, x)
                c_ref = (1.0 - y) ** (1.0 / p)
                s_ref = (y / (p - 1.0)) ** (1.0 / pp)
            c, s = ctx.pair(theta)
            assert c == pytest.approx(c_ref, abs=1e-9), (p, theta)
            assert s == pytest.approx(s_ref, abs=1e-9), (p, theta)


def test_context_is_cached():
    assert get_context(2.5) is get_context(2.5)


def test_quarter_table_that_misses_its_endpoint_is_refused(monkeypatch):
    # The quarter period must end at (0, sin_p max); an integration that
    # ends elsewhere builds no table.
    missed = SimpleNamespace(y_end=(0.5, 0.5))
    monkeypatch.setattr(ptrig, "integrate", lambda ivp: missed)
    with pytest.raises(NumericsError, match="p=2.5 failed its endpoint check"):
        PTrigContext(2.5)


@pytest.mark.parametrize("p", [200.0, 1e3])
def test_quarter_table_whose_knots_miss_the_identity_is_refused(p):
    # The series start meets the p-circle identity to 1e-9 up to p of
    # about 3e3, but the march drifts off it from p of about 200 on:
    # by 1.1e-9 at a knot at p = 200 and 4.8e-9 at p = 1e3.
    with pytest.raises(NumericsError, match=f"p={p!r} misses the p-circle identity by"):
        PTrigContext(p)


@pytest.mark.parametrize("p", [1.01, 10.0, 100.0])
def test_every_knot_meets_the_identity(p):
    # Tables from p near 1 up to 100 pass the knot check.
    ctx = PTrigContext(p)
    assert max(ctx.identity_defect(c, s) for c, s in ctx._quarter.ys) <= 1e-9


@pytest.mark.parametrize("p", [1e9, 1e10])
def test_quarter_table_at_huge_p_fails_its_endpoint_check(p):
    # |c| ** (p - 1) overflowed in the table's right hand side from
    # p = 1e9 on and escaped as OverflowError; it saturates to inf now,
    # which the step rejects like any other non-finite stage.
    with pytest.raises(NumericsError, match=f"p={p!r} failed its endpoint check"):
        PTrigContext(p)


def test_pair_rejects_non_finite_angle():
    ctx = get_context(2.0)
    with pytest.raises(SpecError):
        ctx.pair(float("nan"))
    with pytest.raises(SpecError):
        ctx.pair(float("inf"))


def _pair_by_eval(ctx, theta):
    # PTrigContext.pair as it was before it evaluated its table inline:
    # the same fold, with the quarter period read through
    # DenseSolution.eval.
    if not math.isfinite(theta):
        raise SpecError(f"angle must be finite, got {theta!r}")

    def quarter(t):
        if t <= ptrig._SERIES_CUTOFF:
            return ctx._series_pair(max(t, 0.0))
        c, s = ctx._quarter.eval(min(t, ctx.half_pi_p))
        return (c, s)

    two = 2.0 * ctx.pi_p
    t = math.fmod(theta, two)
    if t < 0.0:
        t += two
    if t >= ctx.pi_p:
        sign = -1.0
        t -= ctx.pi_p
    else:
        sign = 1.0
    if t > ctx.half_pi_p:
        c, s = quarter(ctx.pi_p - t)
        c = -c
    else:
        c, s = quarter(t)
    return (sign * c, sign * s)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_pair_equals_dense_eval(p):
    ctx = get_context(p)
    rng = random.Random(0)
    thetas = [rng.uniform(-6.0 * ctx.pi_p, 6.0 * ctx.pi_p) for _ in range(20_000)]
    # The series cutoff, the quarter and half periods, whole periods,
    # one ulp on either side of each, and every knot of the table.
    edges = [0.0, ptrig._SERIES_CUTOFF, ctx.half_pi_p, ctx.pi_p, *ctx._quarter.rs]
    edges += [k * 2.0 * ctx.pi_p for k in range(1, 6)]
    for t in list(edges):
        edges += [math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    thetas += edges + [-t for t in edges]
    for theta in thetas:
        assert ctx.pair(theta) == _pair_by_eval(ctx, theta), theta
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SpecError):
            ctx.pair(bad)


class _Seen(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _pasted(p):
    # LOOKUP pasted into the stages of a generated march, with the
    # table of p bound, and stopped by the first stage that runs it:
    # with the slope -0.0 at the start that stage's angle is the start
    # angle itself, whose (c, s) it raises.
    rhs = compile_field(
        ("th",), LOOKUP + ("raise seen(c, s)", "f0 = c"), **get_context(p).table(), seen=_Seen
    )

    def look_up(theta):
        with pytest.raises(_Seen) as seen:
            rhs.march(0.0, 1.0, (theta,), (-0.0,), 0.5, 1e-6, 1e-9, 10)
        return seen.value.args

    return look_up


@st.composite
def _lookup_angles(draw):
    # A random angle within 50 pi_p, or a multiple of pi_p/2 or one the
    # series cutoff off a multiple of pi_p, moved by up to 2 ulp.
    p = draw(st.sampled_from([1.2, 1.5, 2.0, 2.5, 3.0, 4.0]))
    ctx = get_context(p)
    bound = 50.0 * ctx.pi_p
    kind = draw(st.sampled_from(["random", "quarter", "cutoff"]))
    if kind == "random":
        return p, draw(st.floats(-bound, bound))
    if kind == "quarter":
        theta = draw(st.integers(-100, 100)) * ctx.half_pi_p
    else:
        side = draw(st.sampled_from([-1.0, 1.0]))
        theta = draw(st.integers(-50, 50)) * ctx.pi_p + side * ptrig._SERIES_CUTOFF
    ulps = draw(st.integers(-2, 2))
    for _ in range(abs(ulps)):
        theta = math.nextafter(theta, math.copysign(math.inf, ulps))
    return p, theta


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_lookup_angles())
def test_pasted_look_up_is_pair_to_the_bit(case):
    p, theta = case
    c, s = get_context(p).pair(theta)
    pc, ps = _pasted(p)(theta)
    assert (pc.hex(), ps.hex()) == (c.hex(), s.hex()), theta


def test_pasted_look_up_of_a_non_finite_angle_is_nan():
    # The march shrinks a step whose stage angle is not finite, so the
    # look-up must give NaN there; pair refuses such an angle.
    for theta in (math.nan, math.inf, -math.inf):
        assert all(math.isnan(x) for x in _pasted(2.5)(theta))


def test_angle_is_atan2_at_p2():
    # The quarter table is good to about 2e-13 against cos and sin.
    ctx = get_context(2.0)
    for i in range(2001):
        theta = 2.0 * math.pi * i / 2001
        c, s = math.cos(theta), math.sin(theta)
        assert ctx.angle(c, s) == pytest.approx(
            math.atan2(s, c) % (2.0 * math.pi), abs=1e-12
        ), theta


@pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_angle_inverts_pair(p):
    ctx = get_context(p)
    half = ctx.half_pi_p
    rng = random.Random(1)
    # Every knot of the table, one ulp either side of each, points
    # inside the series cutoff and at random, in all four quadrants.
    base = [0.0, 1e-300, 1e-12, 5e-7, ptrig._SERIES_CUTOFF, *ctx._rs]
    base += [rng.uniform(0.0, half) for _ in range(300)]
    for t in list(base):
        base += [math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    for t in base:
        if not 0.0 <= t <= half:
            continue
        for k in range(4):
            theta = t + k * half
            c, s = ctx.pair(theta)
            back = ctx.angle(c, s)
            assert 0.0 <= back <= 2.0 * ctx.pi_p
            # pair of the inverse returns the point to rounding; the
            # angle itself to the table's accuracy, which near the
            # quarter period, where its cos_p ends at about 1e-13
            # instead of 0, is about 1e-13.
            c_back, s_back = ctx.pair(back)
            assert max(abs(c_back - c), abs(s_back - s)) <= 4e-15
            wrap = abs(back - theta)
            assert min(wrap, abs(wrap - 2.0 * ctx.pi_p)) <= 1e-12, (t, k)
    for t in (1e-300, 1e-12, 5e-7, ptrig._SERIES_CUTOFF):
        # Inside the series cutoff the inverse keeps relative accuracy.
        assert ctx.angle(*ctx.pair(t)) == pytest.approx(t, rel=1e-15)


def test_angle_anchor_values_and_bad_points():
    for p in P_GRID:
        ctx = get_context(p)
        assert ctx.angle(1.0, 0.0) == 0.0
        assert ctx.angle(-1.0, 0.0) == ctx.pi_p
        assert ctx.angle(-1.0, -0.0) == ctx.pi_p
        quarter = ctx.angle(0.0, ctx.sin_p_max)
        assert quarter == pytest.approx(ctx.half_pi_p, abs=1e-12)
        three_quarters = ctx.angle(0.0, -ctx.sin_p_max)
        assert three_quarters == pytest.approx(3.0 * ctx.half_pi_p, abs=1e-12)
    ctx = get_context(2.0)
    for bad in ((math.nan, 0.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(SpecError):
            ctx.angle(*bad)
