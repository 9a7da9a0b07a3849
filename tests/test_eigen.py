"""Eigenvalue tests against closed-form and special-function oracles."""

import dataclasses
import math
from functools import lru_cache, partial

import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros

import plapshoot.eigen as eigen_mod
import plapshoot.odeint as odeint_mod
import plapshoot.radial as radial_mod
from plapshoot.config import SolverConfig
from plapshoot.eigen import EigenResult, eigen_angle, eigenfunction, eigenvalue
from plapshoot.errors import (
    IntegrationError,
    NumericsError,
    SearchError,
    SpecError,
)
from plapshoot.odeint import IvpSpec, integrate
from plapshoot.ptrig import LOOKUP, PTrigContext, get_context, pi_p
from plapshoot.radial import (
    PROFILE_NODES,
    Annulus,
    Ball,
    Nonlinearity,
    ProblemSpec,
    shoot,
)
from plapshoot.solver import find_solutions, rstar


def geom(p=2.0, dim=1, radius=1.0, domain=None):
    return ProblemSpec(p=p, dim=dim, domain=domain or Ball(radius), g=None)


def test_angle_at_zero_lambda_is_half_period():
    for p in (1.5, 2.0, 3.0):
        for dim, radius in ((1, 1.0), (3, 2.0)):
            spec = geom(p=p, dim=dim, radius=radius)
            assert eigen_angle(0.0, spec) == pytest.approx(
                pi_p(p), abs=1e-12
            )


def test_angle_known_value_p2():
    # For p=2, N=1, R=1 the angle reaches 2*pi exactly at lam = pi^2.
    spec = geom()
    assert eigen_angle(math.pi**2, spec) == pytest.approx(
        2 * math.pi, abs=1e-7
    )


def test_angle_increasing_in_lambda():
    spec = geom(p=2.5, dim=2)
    angles = [eigen_angle(lam, spec) for lam in (0.0, 1.0, 5.0, 20.0, 80.0)]
    assert angles == sorted(angles)
    assert angles[-1] > angles[0] + 1.0


def test_angle_rejects_negative_lambda():
    with pytest.raises(SpecError):
        eigen_angle(-1.0, geom())


def test_first_eigenvalue_is_zero():
    res = eigenvalue(1, geom(p=3.0, dim=2))
    assert res == EigenResult(k=1, lam=0.0, residual=res.residual)
    assert res.lam == 0.0
    assert res.residual <= 1e-12


def test_one_dimensional_oracle():
    # For N=1 the k-th eigenvalue is ((k-1) pi_p / R)^p: the generalized
    # cosine solves the string problem with Neumann ends by symmetry.
    for p in (1.5, 2.0, 2.5, 3.0):
        for radius in (1.0, 2.0):
            spec = geom(p=p, radius=radius)
            for k in (2, 4, 6):
                expected = ((k - 1) * pi_p(p) / radius) ** p
                res = eigenvalue(k, spec)
                assert res.lam == pytest.approx(expected, rel=1e-6), (p, radius, k)
                assert res.residual <= 1e-8 * pi_p(p)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "p < 2 accuracy gap, cause not measured: at p = 1.5, N = 1, k = 5"
        " the residual is 1.02e-6 rad for R = 1 and 7.0e-8 rad for R = 2,"
        " above the 1e-8 pi_p asked of k = 2, 4, 6; at R = 1 lam is 6.1e-8"
        " relative off ((k-1) pi_p)^p and moves by 5.9e-8 when rel_tol goes"
        " to 1e-11, where criterion 8 bounds the move at 1e-8"
    ),
)
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_one_dimensional_residual_at_p_below_two_and_k5(radius):
    res = eigenvalue(5, geom(p=1.5, radius=radius))
    assert res.residual <= 1e-8 * pi_p(1.5)


def test_disk_oracle_p2():
    # p=2, N=2: radial Neumann eigenfunction is J_0(sqrt(lam) r), so
    # lam_2 = (j'_{0,1} / R)^2 with j'_{0,1} the first zero of J_0'.
    j0p1 = jn_zeros(1, 1)[0]
    for radius in (1.0, 2.0):
        res = eigenvalue(2, geom(dim=2, radius=radius))
        assert res.lam == pytest.approx((j0p1 / radius) ** 2, rel=1e-6)


def test_ball_3d_oracle_p2():
    # p=2, N=3: the profile is sinc-like and the Neumann condition
    # reads tan(x) = x at x = sqrt(lam) R.
    x_star = brentq(lambda x: math.sin(x) - x * math.cos(x), 4.0, 4.6)
    res = eigenvalue(2, geom(dim=3))
    assert res.lam == pytest.approx(x_star**2, rel=1e-6)


def test_scaling_law():
    for p in (1.5, 3.0):
        lam_ref = None
        for radius in (0.5, 1.0, 2.0):
            res = eigenvalue(3, geom(p=p, dim=2, radius=radius))
            scaled = res.lam * radius**p
            if lam_ref is None:
                lam_ref = scaled
            else:
                assert scaled == pytest.approx(lam_ref, rel=1e-6)


def test_monotone_in_k():
    spec = geom(p=2.5, dim=2)
    lams = [eigenvalue(k, spec).lam for k in (2, 3, 4)]
    assert lams[0] < lams[1] < lams[2]


def test_second_eigenvalue_decreases_with_radius():
    for dim in (2, 3):
        small = eigenvalue(2, geom(dim=dim, radius=1.0)).lam
        large = eigenvalue(2, geom(dim=dim, radius=2.0)).lam
        assert large < small


def test_annulus_1d_reduces_to_string():
    # N=1 on an annulus is a plain string of length R2 - R1.
    spec = geom(p=2.5, domain=Annulus(1.0, 2.0))
    for k in (2, 3):
        expected = ((k - 1) * pi_p(2.5) / 1.0) ** 2.5
        assert eigenvalue(k, spec).lam == pytest.approx(expected, rel=1e-6)


def test_annulus_2d_sane():
    res = eigenvalue(2, geom(dim=2, domain=Annulus(1.0, 2.0)))
    assert res.lam > 0.0
    assert res.residual <= 1e-8 * math.pi


def test_eigenfunction_samples_the_profile_nodes():
    rs, ws, fluxes = eigenfunction(1.0, geom(domain=Annulus(0.5, 2.0)))
    assert len(rs) == len(ws) == len(fluxes) == PROFILE_NODES == 400
    assert rs == [0.5 + 1.5 * i / (PROFILE_NODES - 1) for i in range(400)]
    assert rs[-1] == 2.0


def test_eigenfunction_profile_p2():
    # k=3 on the unit interval: w(r) = -cos(2 pi r), flux = w'.
    lam = (2 * math.pi) ** 2
    rs, ws, fluxes = eigenfunction(lam, geom())
    for r, w, flux in zip(rs, ws, fluxes):
        assert w == pytest.approx(-math.cos(2 * math.pi * r), abs=1e-6)
        assert flux == pytest.approx(
            2 * math.pi * math.sin(2 * math.pi * r), abs=1e-5
        )
    assert abs(fluxes[-1]) <= 1e-5  # Neumann condition at the far end


def test_eigenfunction_profile_general_p():
    # k=2, general p: w(r) = -cos_p(pi_p r / R) by the same symmetry
    # that gives the one-dimensional oracle.
    p = 3.0
    ctx = get_context(p)
    lam = (pi_p(p)) ** p
    rs, ws, _ = eigenfunction(lam, geom(p=p))
    for r, w in zip(rs, ws):
        assert w == pytest.approx(-ctx.pair(pi_p(p) * r)[0], abs=1e-6)


def test_bracket_cap(monkeypatch):
    monkeypatch.setattr(eigen_mod, "LAMBDA_CAP_FACTOR", 10.0)
    with pytest.raises(SearchError):
        eigenvalue(4, geom())


def test_a_cap_that_overflows_is_a_spec_error():
    # 1e8 R^-p overflows at R = 1e-300, p = 2.
    with pytest.raises(SpecError, match="radius 1e-300 too small"):
        eigenvalue(2, geom(radius=1e-300))


def test_a_guess_that_overflows_starts_at_the_cap(monkeypatch):
    # At p = 10, k = 100000, R = 1e-26 the closed form ((k-1) pi_p / R)^p
    # overflows, while the cap 1e8 R^-p = 1e268 does not: the search
    # starts at the cap, and an angle short of the target there is a
    # search failure.
    lams = []

    def angle(lam, spec, cfg=None):
        lams.append(lam)
        return 0.0

    monkeypatch.setattr(eigen_mod, "eigen_angle", angle)
    with pytest.raises(SearchError, match="no angle crossing"):
        eigenvalue(100_000, geom(p=10.0, radius=1e-26))
    assert lams == [eigen_mod.LAMBDA_CAP_FACTOR * 1e-26 ** -10.0]


def _old_eigenvalue_lam(k, spec):
    # The bisection eigenvalue used before its Illinois search: doubling
    # from lam = 1, then halving to a relative width of 1e-10.
    target = k * pi_p(spec.p)
    lo, hi = 0.0, 1.0
    while eigen_angle(hi, spec) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if eigen_angle(mid, spec) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "p, dim, domain",
    [(2.0, 1, Annulus(1.0, 1.5)), (3.0, 2, Annulus(0.5, 2.0))],
)
def test_angle_at_huge_lambda_is_finite_or_a_numerics_error(p, dim, domain):
    # The first-step guess underflows to zero here; the probe must fall
    # back instead of dividing by it.
    try:
        theta = eigen_angle(1e307, geom(p=p, dim=dim, domain=domain))
    except NumericsError:
        return
    assert math.isfinite(theta)


def test_eigenvalue_rejects_bad_k():
    with pytest.raises(SpecError):
        eigenvalue(0, geom())
    with pytest.raises(SpecError):
        eigenvalue(2.0, geom())


def test_loose_config_still_close():
    cfg = SolverConfig(rel_tol=1e-8, abs_tol=1e-10)
    res = eigenvalue(3, geom(), cfg)
    assert res.lam == pytest.approx((2 * math.pi) ** 2, rel=1e-5)


def _old_eigen_angle(lam, spec, cfg=None):
    # eigen_angle as it was before it ran its own kernel: the same
    # right hand side through the dense integrator.
    cfg = cfg or SolverConfig()
    p = spec.p
    pp = spec.pprime
    n = spec.dim
    ctx = get_context(p)
    pip = ctx.pi_p
    r0 = spec.start_radius(cfg)
    th0 = pip + lam * r0**n / n if spec.is_ball else pip

    def rhs(r, y):
        c, s = ctx.pair(y[0])
        if n > 1:
            stretch = (abs(s) * r ** (-(n - 1) / p)) ** pp
        else:
            stretch = abs(s) ** pp
        return ((p - 1.0) * stretch + lam * abs(c) ** p * r ** (n - 1),)

    sol = integrate(
        IvpSpec(
            rhs=rhs,
            r_start=r0,
            r_end=spec.r_outer,
            y0=(th0,),
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
        )
    )
    return sol.y_end[0]


def _angle_or_error(angle, lam, spec, cfg=None):
    try:
        return angle(lam, spec, cfg)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


KERNEL_SPECS = [
    geom(p=1.5),
    geom(p=1.8, dim=2, radius=3.42),
    geom(p=2.0, dim=3),
    geom(p=2.5, dim=2, radius=0.5),
    geom(p=3.0, dim=3, radius=2.0),
    geom(p=2.0, dim=2, domain=Annulus(0.5, 2.0)),
    geom(p=3.0, domain=Annulus(1.0, 1.5)),
]


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_angle_kernel_matches_integrate(spec):
    # Same steps, same arithmetic: the terminal angle is equal as a
    # double, and a run that fails fails with the same class and
    # message.  Besides zero and a geometric ladder, lam sits on and
    # within 1e-10 and 1e-6 (relative) of the eigenvalues k = 2 and 3;
    # on the annulus 1e307 makes the first-step probe divide by zero.
    lams = [0.0] + [0.1 * 4.0**j for j in range(8)]
    for k in (2, 3):
        lam_k = eigenvalue(k, spec).lam
        lams += [lam_k * (1.0 + t) for t in (-1e-6, -1e-10, 0.0, 1e-10, 1e-6)]
    if not spec.is_ball:
        lams.append(1e307)
    for lam in lams:
        new = _angle_or_error(eigen_angle, lam, spec)
        old = _angle_or_error(_old_eigen_angle, lam, spec)
        assert new == old, (lam, new, old)


def test_angle_kernel_keeps_the_integrator_checks(monkeypatch):
    spec = geom()

    def outcome(lam):
        out = [_angle_or_error(f, lam, spec) for f in (eigen_angle, _old_eigen_angle)]
        assert out[0] == out[1]
        return out[0]

    with monkeypatch.context() as m:
        m.setattr(odeint_mod, "MAX_STEPS", 5)
        cls, message = outcome(10.0)
        assert cls is IntegrationError
        assert message.startswith("exceeded max_steps=5")

    # A context built for the test, whose cells past the quarter angle
    # 0.5 give a cosine of 1.3e154: past the angle pi + 0.5 the right hand
    # side is close to the largest double.  At lam = 1 a stage angle
    # overflows, and its NaN slope shrinks the step by 4 until the step
    # underflows, where the dense route's pair rejects that angle; at
    # lam = 10 every step into the wall shrinks by 4 on both routes.
    ctx = PTrigContext(2.0)
    for i, (t0, h, c0, s0, c1, c2, c3, c4, *s_coefs) in enumerate(ctx._quarter.cells):
        if t0 > 0.5:
            ctx._quarter.cells[i] = (t0, h, 1.3e154, s0, 0.0, 0.0, 0.0, 0.0, *s_coefs)
    monkeypatch.setattr(eigen_mod, "get_context", lambda p: ctx)
    monkeypatch.setitem(globals(), "get_context", lambda p: ctx)
    cls, message = _angle_or_error(eigen_angle, 1.0, spec)
    assert cls is IntegrationError
    assert message.startswith("step size underflow")
    cls, message = _angle_or_error(_old_eigen_angle, 1.0, spec)
    assert cls is SpecError
    assert message.startswith("angle must be finite")
    cls, message = outcome(10.0)
    assert cls is IntegrationError
    assert message.startswith("step size underflow")


def test_non_finite_stage_angle_is_a_numerics_error():
    # A stage angle that overflows gives a NaN slope, which the march
    # rejects like any other, not a SpecError from the look-up; here the
    # step then underflows.
    spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1e-150))
    with pytest.raises(IntegrationError, match="step size underflow"):
        eigen_angle(1e308, spec)


# The seed-0 ladders of the benchmark's eigen-ladder workload:
# (p, N, indices k) on the unit ball.
BENCH_LADDERS = ((1.5, 1, (2, 3, 4)), (3.0, 1, (2, 3, 4)), (2.5, 3, (2, 3)))


def _ladder_cases():
    for p, dim, ks in BENCH_LADDERS:
        for k in ks:
            yield k, geom(p=p, dim=dim)


def test_eigenvalue_within_criterion_8_of_bisection():
    # The two searches stop on different points of the same discrete
    # angle, so they agree to within the 1e-8 of criterion 8, not to
    # the bit (largest gap 4.2e-9: p=3, Annulus(1, 1.5), k=6).
    cases = [(k, spec) for spec in KERNEL_SPECS for k in (2, 3, 4, 6)]
    for k, spec in cases + list(_ladder_cases()):
        old = _old_eigenvalue_lam(k, spec)
        assert eigenvalue(k, spec).lam == pytest.approx(old, rel=1e-8), (k, spec)


@pytest.mark.parametrize("factor", [3.0, 1.0 / 3.0])
@pytest.mark.parametrize("p, dim, ks", BENCH_LADDERS)
def test_starting_guess_does_not_decide_the_answer(monkeypatch, p, dim, ks, factor):
    # Within 1e-9, not 1e-10: at p = 1.5, k = 3 the discrete angle
    # changes sign about ten times within 3e-10 (relative) of the root,
    # and from the tripled guess the search ends on another of those
    # sign changes, 1.6e-10 away.  Every other case moves by < 4e-11.
    spec = geom(p=p, dim=dim)
    plain = [eigenvalue(k, spec).lam for k in ks]
    guess = eigen_mod._guess
    monkeypatch.setattr(eigen_mod, "_guess", lambda k, spec: factor * guess(k, spec))
    moved = [eigenvalue(k, spec).lam for k in ks]
    assert moved == pytest.approx(plain, rel=1e-9)


def _count_angle_calls(monkeypatch):
    calls = []
    angle = eigen_mod.eigen_angle

    def counted(*args, **kwargs):
        calls.append(args[0])
        return angle(*args, **kwargs)

    monkeypatch.setattr(eigen_mod, "eigen_angle", counted)
    return calls


def test_angle_march_steps_on_the_bench_ladders(monkeypatch):
    # The steps of the angle march, pinned by their counts from
    # end_state, which sees every integration whatever its field calls.
    counts = []
    end_state = eigen_mod.end_state

    def counted(ivp):
        out = end_state(ivp)
        counts.append(out[1:])
        return out

    monkeypatch.setattr(eigen_mod, "end_state", counted)
    for k, spec in _ladder_cases():
        eigenvalue(k, spec)
    steps, evals = map(sum, zip(*counts))
    assert (len(counts), steps, evals) == (50, 10_874, 72_088)


def test_the_ladders_compile_one_angle_text_per_folded_body(monkeypatch):
    # The cache of compiled fields is keyed on the folded text: p = 1.5
    # and p = 3 at N = 1 fold to the same angle body (pm1 = 2.0 being
    # even folds nothing in it), and N = 3 at p = 2.5 to another.
    misses = []
    end_trial = odeint_mod._end_trial.__wrapped__

    def compiled(reads, *args, **kwargs):
        misses.append(reads)
        return end_trial(reads, *args, **kwargs)

    monkeypatch.setattr(odeint_mod, "_end_trial", lru_cache(maxsize=None)(compiled))
    for k, spec in _ladder_cases():
        eigenvalue(k, spec)
    assert misses.count(("th",)) == 2


_N1_RATE = "f0 = pm1 * abs(s) ** pp + lam * abs(c) ** p"


@pytest.mark.parametrize("lam", [0.0, 1.0, 7.3])
@pytest.mark.parametrize("p", [1.5, 1.52, 2.0, 2.5, 3.0, 4.0])
def test_the_angle_body_at_n1_folds_to_the_rate_without_weights(monkeypatch, p, lam):
    # nm1 = 0 and r_expo = -0.0 fold both weights r ** 0 out, so the
    # body is the unweighted rate, folded alike, and no stage reads r.
    seen = []
    fold = odeint_mod._fold

    def spy(body, *classes):
        seen.append((classes, fold(body, *classes)))
        return seen[-1][1]

    monkeypatch.setattr(odeint_mod, "_fold", spy)
    eigen_angle(lam, geom(p=p))
    [(classes, body)] = seen
    assert body == fold(LOOKUP + (_N1_RATE,), *classes)
    assert not any(odeint_mod._RADIUS.search(line) for line in body)
    if lam == 7.3 and p in (1.5, 2.0, 3.0):
        assert body[-1] == ("f0 = s ** pp + lam * c ** p" if p == 2.0 else _N1_RATE)


def test_angle_call_budget_on_the_bench_ladders(monkeypatch):
    calls = _count_angle_calls(monkeypatch)
    for k, spec in _ladder_cases():
        eigenvalue(k, spec)
    assert len(calls) <= 64  # 50 when written; bisection took 330


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_angle_call_budget_per_eigenvalue(monkeypatch, spec):
    calls = _count_angle_calls(monkeypatch)
    for k in (2, 3):
        del calls[:]
        eigenvalue(k, spec)
        assert len(calls) <= 16, k


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(p=1.1, dim=3, domain=Ball(1.0)),
        ProblemSpec(p=1.1, dim=3, domain=Annulus(1e-200, 1.0)),
    ],
)
def test_start_up_radius_whose_angle_weight_overflows_is_a_spec_error(spec):
    # r^(-(N-1)/p) = 1e-200^(-20/11) is past the largest double.  An
    # annulus starts at its inner radius and refuses eps0.
    cfg = SolverConfig(eps0=1e-200) if spec.is_ball else SolverConfig()
    with pytest.raises(SpecError, match="overflows for N=3"):
        eigen_angle(1.0, spec, cfg)
    with pytest.raises(SpecError, match="overflows for N=3"):
        eigenvalue(2, spec, cfg)
    # At p = 2 the same radius gives a finite weight, 1e200.
    tiny = SolverConfig(eps0=1e-200)
    assert math.isfinite(eigen_angle(1.0, geom(p=2.0, dim=3), tiny))


@pytest.mark.parametrize(
    "domain, eps0, r0",
    [(Ball(2.0), None, 2e-8), (Ball(2.0), 1e-6, 1e-6), (Annulus(0.5, 2.0), None, 0.5)],
)
def test_every_integration_starts_at_the_start_radius(monkeypatch, domain, eps0, r0):
    # Both kinds of shot, the eigenvalue angle and the eigenfunction.
    spec = ProblemSpec(p=2.0, dim=2, domain=domain, g=Nonlinearity(q=3.0))
    cfg = SolverConfig(eps0=eps0)
    assert spec.start_radius(cfg) == r0
    starts = []

    def recorded(real):
        def end_state(ivp):
            starts.append(ivp.r_start)
            return real(ivp)

        return end_state

    for mod in (radial_mod, eigen_mod):
        monkeypatch.setattr(mod, "end_state", recorded(mod.end_state))
    traj, _ = shoot(0.5, spec, cfg)
    shoot(0.5, spec, cfg, profile=False)
    eigen_angle(1.0, spec, cfg)
    rs, _, _ = eigenfunction(1.0, spec, cfg)
    assert starts == [r0, r0]
    assert traj.r[0] == rs[0] == r0


def test_a_start_radius_from_half_the_ball_up_is_one_spec_error():
    spec = ProblemSpec(p=2.0, dim=2, domain=Ball(2.0), g=Nonlinearity(q=3.0))
    runs = (
        spec.start_radius,
        partial(shoot, 0.5, spec),
        partial(shoot, 0.5, spec, profile=False),
        partial(eigen_angle, 1.0, spec),
        partial(eigenfunction, 1.0, spec),
    )
    for run in runs:
        with pytest.raises(
            SpecError, match="^startup radius 1.0 too large for outer radius 2.0$"
        ):
            run(SolverConfig(eps0=1.0))


def test_eps0_on_an_annulus_is_one_spec_error():
    # An annulus starts at its inner radius; eps0 was once accepted there
    # and dropped.  p = 1.8, so that rstar gets as far as its first shot,
    # on the same annulus at N = 1, where it has a threshold.
    spec = ProblemSpec(
        p=1.8, dim=2, domain=Annulus(0.5, 2.0), g=Nonlinearity(q=3.0)
    )
    runs = (
        spec.start_radius,
        partial(shoot, 0.5, spec),
        partial(shoot, 0.5, spec, profile=False),
        partial(eigen_angle, 1.0, spec),
        partial(eigenfunction, 1.0, spec),
        lambda cfg: eigenvalue(2, spec, cfg),
        lambda cfg: find_solutions(spec, cfg),
        lambda cfg: rstar(1, dataclasses.replace(spec, dim=1), cfg),
    )
    message = (
        "^eps0 sets the start-up radius of a ball; an annulus starts at its"
        " inner radius 0.5$"
    )
    for run in runs:
        with pytest.raises(SpecError, match=message):
            run(SolverConfig(eps0=1e-6))
