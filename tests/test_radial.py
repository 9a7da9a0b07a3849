"""Shooting tests, anchored by a fixed-step reference integration."""

import dataclasses
import math
from bisect import insort
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapshoot import odeint, radial
from plapshoot.config import SolverConfig
from plapshoot.errors import (
    IntegrationError,
    NearConstantShotError,
    NumericsError,
    SpecError,
)
from plapshoot.odeint import IvpSpec, integrate
from plapshoot.ptrig import get_context, pi_p
from plapshoot.radial import (
    Annulus,
    Ball,
    Nonlinearity,
    ProblemSpec,
    ShotEnd,
    Trajectory,
    _rho_sq,
    _shot_start,
    shoot,
    startup_state,
)
from plapshoot.solver import d_grid

# Reference shot: p=2, N=1, R=1, g(s)=s^14, started from d=0.5.  Frozen
# from a classical fixed-step RK4 run launched exactly at r=0 (regular
# for N=1); values agree to ~1e-13 across step sizes 1e-4..1e-6.
REF_THETA_END = 4.33954097003474
REF_U_END = 0.77122722288103
REF_V_END = 0.58488233030952


def ball_spec(p=2.0, dim=1, radius=1.0, q=15.0, r_exp=None):
    g = Nonlinearity(q=q, r_exp=r_exp)
    return ProblemSpec(p=p, dim=dim, domain=Ball(radius), g=g)


def test_f_pure_power():
    f = Nonlinearity(q=3.0).f_for(2.0)
    assert f(1.0) == 0.0
    assert f(2.0) == pytest.approx(2.0, rel=1e-15)
    assert f(0.5) == pytest.approx(-0.25, rel=1e-15)
    assert f(0.0) == 0.0
    assert f(-0.3) == 0.0


def test_f_power_combo():
    g = Nonlinearity(q=4.0, r_exp=3.0)
    # f(s) = s^3 - s^2 regardless of p.
    for p in (1.5, 2.0, 3.0):
        f = g.f_for(p)
        assert f(2.0) == pytest.approx(4.0, rel=1e-15)
        assert f(0.5) == pytest.approx(-0.125, rel=1e-15)
        assert f(1.0) == 0.0


def test_f_sign_condition():
    # (g(s) - s^(p-1)) (s - 1) > 0 away from s = 1 keeps the phase
    # angle monotone; spot-check it for both families.
    specs = [
        ball_spec(p=1.5, q=3.0),
        ball_spec(p=3.0, q=5.0),
        ball_spec(p=2.0, q=4.0, r_exp=2.5),
    ]
    for spec in specs:
        for i in range(1, 60):
            s = 0.05 * i
            if abs(s - 1.0) < 1e-12:
                continue
            assert spec.g.f_for(spec.p)(s) * (s - 1.0) > 0.0, (spec.g, s)


def test_nonlinearity_validation():
    with pytest.raises(SpecError):
        ball_spec(p=3.0, q=2.0)  # pure power needs q > p
    with pytest.raises(SpecError):
        ball_spec(p=2.0, q=4.0, r_exp=5.0)  # needs r < q
    with pytest.raises(SpecError):
        ball_spec(p=2.0, q=4.0, r_exp=1.5)  # needs r >= p
    with pytest.raises(SpecError):
        Nonlinearity(q=0.5)


def test_c1_trichotomy():
    assert ball_spec(p=3.0, q=5.0).c1 == math.inf
    assert ball_spec(p=1.5, q=3.0).c1 == 0.0
    assert ball_spec(p=2.0, q=5.0).c1 == pytest.approx(3.0)
    assert ball_spec(p=2.0, q=4.0, r_exp=2.5).c1 == pytest.approx(1.5)


def test_problem_spec_validation():
    with pytest.raises(SpecError):
        ProblemSpec(p=2.0, dim=0, domain=Ball(1.0), g=Nonlinearity(q=3.0))
    with pytest.raises(SpecError):
        Ball(-1.0)
    with pytest.raises(SpecError):
        Annulus(2.0, 1.0)
    with pytest.raises(SpecError):
        Annulus(0.0, 1.0)
    spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=None)
    with pytest.raises(SpecError, match="needs a nonlinearity"):
        startup_state(0.5, spec, 1e-8)


def test_with_outer_radius():
    spec = ball_spec(radius=1.0)
    assert spec.with_outer_radius(3.0).domain == Ball(3.0)
    ann = ProblemSpec(
        p=2.0, dim=2, domain=Annulus(0.5, 2.0), g=Nonlinearity(q=3.0)
    )
    scaled = ann.with_outer_radius(4.0)
    assert scaled.domain.r_outer == 4.0
    assert scaled.domain.r_inner == pytest.approx(1.0)


def test_startup_state_formulas():
    spec = ball_spec(p=2.0, q=3.0)
    eps0 = 1e-6
    u, v, theta = startup_state(0.5, spec, eps0)
    # f(0.5) = -0.25 for q=3, p=2.
    assert v == pytest.approx(0.25 * eps0, rel=1e-12)
    assert u == pytest.approx(0.5 + 0.25 * eps0**2 / 2.0, rel=1e-12)
    assert theta == pytest.approx(math.pi + 0.25 * eps0 / 0.5, rel=1e-9)


def test_startup_state_sides():
    spec = ball_spec(q=15.0)
    pip = spec.pi_p
    u, v, theta = startup_state(0.5, spec, 1e-8)
    assert v > 0.0 and theta > pip
    u, v, theta = startup_state(2.0, spec, 1e-8)
    assert v < 0.0 and 0.0 < theta < 0.1
    u, v, theta = startup_state(0.0, spec, 1e-8)
    assert (u, v, theta) == (0.0, 0.0, pip)


def test_startup_state_rejects():
    spec = ball_spec()
    with pytest.raises(SpecError):
        startup_state(1.0, spec, 1e-8)
    with pytest.raises(SpecError):
        startup_state(-0.5, spec, 1e-8)
    with pytest.raises(SpecError):
        startup_state(0.5, spec, 0.0)
    with pytest.raises(SpecError):
        startup_state(0.5, spec, 10.0)


def test_startup_state_annulus_is_exact():
    spec = ProblemSpec(
        p=2.5, dim=2, domain=Annulus(1.0, 2.0), g=Nonlinearity(q=5.0)
    )
    assert startup_state(0.5, spec, 0.0) == (0.5, 0.0, spec.pi_p)
    assert startup_state(3.0, spec, 0.0) == (3.0, 0.0, 0.0)


def test_shot_against_fixed_step_reference():
    traj, summ = shoot(0.5, ball_spec(q=15.0))
    assert summ.theta_end == pytest.approx(REF_THETA_END, abs=1e-7)
    assert summ.u_end == pytest.approx(REF_U_END, abs=1e-7)
    assert summ.v_end == pytest.approx(REF_V_END, abs=1e-7)
    assert summ.zeros == 0
    assert traj.r[0] == pytest.approx(1e-8)
    assert traj.r[-1] == 1.0


def test_fixed_step_reference_reproduces():
    # Independent in-test route: classical RK4, uniform steps, launched
    # at r=0 exactly, no series startup and no dense output.
    def rhs(u, v, th):
        fu = (u**14 - u) if u >= 0.0 else 0.0
        rho2 = (u - 1.0) ** 2 + v * v
        return v, -fu, ((u - 1.0) * fu + v * v) / rho2

    h = 5e-4
    u, v, th = 0.5, 0.0, math.pi
    for _ in range(round(1.0 / h)):
        k1 = rhs(u, v, th)
        k2 = rhs(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1], th + 0.5 * h * k1[2])
        k3 = rhs(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1], th + 0.5 * h * k2[2])
        k4 = rhs(u + h * k3[0], v + h * k3[1], th + h * k3[2])
        u += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        v += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        th += h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
    assert th == pytest.approx(REF_THETA_END, abs=1e-8)
    assert u == pytest.approx(REF_U_END, abs=1e-8)
    assert v == pytest.approx(REF_V_END, abs=1e-8)


def test_shot_from_zero_is_flat():
    traj, summ = shoot(0.0, ball_spec(q=15.0))
    assert summ.theta_end == pytest.approx(math.pi, abs=1e-12)
    assert summ.zeros == 0
    assert max(abs(u) for u in traj.u) == 0.0


def test_theta_monotone_and_rho_positive():
    cases = [
        (ball_spec(p=2.0, q=15.0), 0.5),
        (ball_spec(p=1.8, dim=2, q=3.0), 0.3),
        (ball_spec(p=3.0, dim=3, q=5.0), 0.9),
        (ball_spec(p=2.0, q=100.0), 1.5),
    ]
    for spec, d in cases:
        traj, summ = shoot(d, spec)
        for a, b in zip(traj.theta, traj.theta[1:]):
            assert b >= a - 5e-12
        assert min(traj.rho_sq) > 0.0
        assert summ.theta_start == traj.theta[0]


def test_phase_consistency():
    # The angle carried by the shot must describe the same point the
    # Cartesian components landed on: u-1 = rho^(2/p) cos_p(theta) and
    # v = -rho^(2/p') sin_p(theta) at every node.
    for spec, d in [
        (ball_spec(p=2.0, q=15.0), 0.5),
        (ball_spec(p=2.5, dim=2, q=5.0), 0.4),
        (ball_spec(p=1.8, q=3.0), 0.2),
    ]:
        ctx = get_context(spec.p)
        pp = spec.exponent.pprime
        traj, _ = shoot(d, spec)
        for u, v, th, rho2 in zip(traj.u, traj.v, traj.theta, traj.rho_sq):
            if rho2 < 1e-8:
                continue
            c, s = ctx.pair(th)
            scale = max(abs(u - 1.0), abs(v), 1e-3)
            assert u - 1.0 == pytest.approx(
                rho2 ** (1.0 / spec.p) * c, abs=1e-6 * scale
            )
            assert v == pytest.approx(
                -(rho2 ** (1.0 / pp)) * s, abs=1e-6 * scale
            )


def test_rho_sq_consistent_with_its_own_ode():
    # Dual route for the phase-plane radius: integrate rho^2 by its
    # differential identity alongside (u, v) and compare with the
    # algebraic value at the far end.
    spec = ball_spec(p=2.5, dim=2, q=5.0)
    p, pp, n = spec.p, spec.exponent.pprime, spec.dim
    d = 0.6
    from plapshoot.odeint import IvpSpec, integrate

    def phi(s, e):
        return math.copysign(abs(s) ** (e - 1.0), s) if s != 0.0 else 0.0

    def rhs(r, y):
        u, v, z = y
        rn = r ** (n - 1)
        fu = spec.g.f_for(p)(u)
        du = phi(v / rn, pp)
        dv = -rn * fu
        dz = p * phi(u - 1.0, p) * du + p * phi(v, pp) * dv
        return (du, dv, dz)

    eps0 = 1e-8
    u0, v0, _ = startup_state(d, spec, eps0)
    z0 = abs(u0 - 1.0) ** p + (p - 1.0) * abs(v0) ** pp
    sol = integrate(
        IvpSpec(rhs=rhs, r_start=eps0, r_end=1.0, y0=(u0, v0, z0))
    )
    u1, v1, z1 = sol.y_end
    z_alg = abs(u1 - 1.0) ** p + (p - 1.0) * abs(v1) ** pp
    assert z1 == pytest.approx(z_alg, rel=1e-6)


def test_zero_count_matches_profile_sign_changes():
    spec = ball_spec(p=2.0, q=100.0)
    traj, summ = shoot(0.9, spec)
    flips = 0
    prev = traj.u[0] - 1.0
    for u in traj.u[1:]:
        cur = u - 1.0
        if prev * cur < 0.0:
            flips += 1
            prev = cur
    assert summ.zeros == flips
    assert summ.zeros >= 1
    assert list(summ.zero_radii) == sorted(summ.zero_radii)
    for r0 in summ.zero_radii:
        assert traj.r[0] < r0 < traj.r[-1]


def test_startup_robustness():
    # Halving the startup radius must leave the terminal angle alone.
    cases = [
        (ball_spec(p=1.8, dim=1, q=3.0, radius=2.0), 0.3),
        (ball_spec(p=2.0, dim=2, q=15.0), 0.9),
        (ball_spec(p=3.0, dim=3, q=5.0), 0.5),
    ]
    for spec, d in cases:
        th = []
        for eps0 in (1e-8 * spec.r_outer, 0.5e-8 * spec.r_outer):
            cfg = SolverConfig(eps0=eps0)
            th.append(shoot(d, spec, cfg)[1].theta_end)
        assert abs(th[0] - th[1]) <= 1e-8, (spec.p, d, th)


def test_continuous_dependence_on_d():
    spec = ball_spec(q=15.0)
    base = shoot(0.5, spec)[1].theta_end
    d_big = shoot(0.5 + 1e-6, spec)[1].theta_end - base
    d_small = shoot(0.5 + 1e-8, spec)[1].theta_end - base
    # Near-linear response: shrinking the perturbation by 100 shrinks
    # the angle change by roughly the same factor.
    assert abs(d_small) <= abs(d_big) / 20.0
    assert abs(d_big) < 1e-3


def test_annulus_shot():
    spec = ProblemSpec(
        p=2.5, dim=2, domain=Annulus(1.0, 2.0), g=Nonlinearity(q=5.0)
    )
    traj, summ = shoot(0.5, spec)
    assert traj.r[0] == 1.0
    assert traj.r[-1] == 2.0
    assert summ.theta_start == spec.pi_p
    assert summ.theta_end > spec.pi_p
    assert math.isfinite(summ.u_end)


def test_rho_floor_triggers_near_constant_error():
    spec = ball_spec(p=3.0, q=5.0)
    # |d-1|^3 = 1e-15 sits below the default floor of 1e-12.  Both kinds
    # of shot raise it at the start-up radius, with the start-up rho^2.
    d = 1.0 - 1e-5
    eps0 = SolverConfig().eps0_for(spec.r_outer)
    u0, v0, _ = startup_state(d, spec, eps0)
    rho2 = _rho_sq(u0, v0, spec.p, spec.exponent.pprime)
    for profile in (True, False):
        with pytest.raises(NearConstantShotError) as exc:
            shoot(d, spec, profile=profile)
        err = exc.value
        assert (err.d, err.r, err.rho_sq.hex()) == (d, eps0, rho2.hex())
    # One decade further out the shot is fine.
    traj, summ = shoot(1.0 - 1e-3, spec)
    assert math.isfinite(summ.theta_end)


def test_shot_rejects_constant_d():
    with pytest.raises(SpecError):
        shoot(1.0, ball_spec())


def test_config_validation():
    with pytest.raises(SpecError):
        SolverConfig(rel_tol=0.0)
    cfg = SolverConfig(eps0=1e-6)
    assert cfg.eps0_for(2.0) == 1e-6
    assert SolverConfig().eps0_for(2.0) == pytest.approx(2e-8)


@pytest.mark.parametrize("eps0", [math.inf, math.nan, 0.0, -1.0])
def test_config_rejects_a_bad_eps0(eps0):
    # An infinite eps0 used to pass until the first shot; nan was
    # refused as "must be positive".
    with pytest.raises(SpecError, match="eps0 must be a positive finite number"):
        SolverConfig(eps0=eps0)


def test_start_up_radius_whose_flux_weight_underflows_is_a_spec_error():
    # r^(N-1) = 1e-400 is 0.0 as a double: the field would divide the
    # flux by it.  N = 1 has no weight, so the same radius works there.
    cfg = SolverConfig(eps0=1e-200)
    for profile in (True, False):
        with pytest.raises(SpecError, match="underflows to 0 for N=3"):
            shoot(0.5, ball_spec(dim=3, q=5.0), cfg, profile=profile)
        assert shoot(0.5, ball_spec(dim=1, q=5.0), cfg, profile=profile)
    annulus = ProblemSpec(
        p=2.0, dim=3, domain=Annulus(1e-200, 1.0), g=Nonlinearity(q=5.0)
    )
    with pytest.raises(SpecError, match="start-up radius 1e-200"):
        shoot(0.5, annulus, profile=False)


def test_config_grid_size_must_be_integer():
    # Unchecked, a float size would fail late inside d_grid with a bare
    # TypeError, which the CLI does not map to an exit code.
    for bad in (400.0, 15, "400", None):
        with pytest.raises(SpecError):
            SolverConfig(d_grid_size=bad)
    assert SolverConfig(d_grid_size=16).d_grid_size == 16


def _end_state_or_error(shot):
    try:
        return shot()
    except NumericsError as exc:
        return type(exc)


def _compensated_sum(terms, start=0):
    """The builtin ``sum`` of floats as Python 3.12 and later compute it."""
    total = float(start)
    comp = 0.0
    for x in terms:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


SOLVE_CFG = SolverConfig(d_grid_size=400, rel_tol=1e-10, abs_tol=1e-12)
SWEEP_CFG = SolverConfig(
    d_grid_size=150, rel_tol=1e-9, abs_tol=1e-11, residual_tol=1e-6
)
P3_CFG = SolverConfig(d_grid_size=100)


@pytest.mark.parametrize(
    "spec, cfg, sides",
    [
        (ball_spec(q=100.0), SOLVE_CFG, ("lower", "upper")),
        (ball_spec(p=1.8, radius=3.42, q=3.0), SWEEP_CFG, ("lower",)),
        (ball_spec(q=12.0), SWEEP_CFG, ("lower",)),
        (ball_spec(p=3.0, dim=3, q=4.0), P3_CFG, ("upper",)),
        (
            ProblemSpec(
                p=2.5,
                dim=2,
                domain=Annulus(1.0, 2.0),
                g=Nonlinearity(q=5.0, r_exp=3.0),
            ),
            P3_CFG,
            ("lower", "upper"),
        ),
    ],
    ids=["q100", "p1.8-R3.42", "q12-sweep", "p3-N3-upper", "annulus"],
)
def test_end_state_kernel_matches_full_shot(spec, cfg, sides, monkeypatch):
    # Same steps, same arithmetic: the end state and the step count are
    # equal as doubles, and a shot that fails fails with the same class.
    # The dense path must not lean on the builtin ``sum``, which is
    # compensated from Python 3.12 on; with it, nearly every shot here
    # differed in its last bits.  The profile grid does not change the
    # steps; two nodes save time.
    monkeypatch.setattr(odeint, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(radial, "PROFILE_NODES", 2)
    for side in sides:
        for d in d_grid(cfg, side):
            full = _end_state_or_error(lambda: shoot(d, spec, cfg)[1])
            end = _end_state_or_error(lambda: shoot(d, spec, cfg, profile=False))
            if isinstance(full, type):
                assert end is full, d
                continue
            assert isinstance(end, ShotEnd) and end.d == d
            got = (end.theta_end, end.u_end, end.v_end, end.n_steps)
            assert got == (full.theta_end, full.u_end, full.v_end, full.n_steps), d


def test_end_state_kernel_counts_the_evaluations_of_integrate():
    spec = ball_spec(q=100.0)
    for d in (0.5, 0.99, 0.9999, 1.5, 20.0):
        end = shoot(d, spec, SOLVE_CFG, profile=False)
        sol = integrate(_shot_start(d, spec, SOLVE_CFG)[0])
        assert (end.n_steps, end.n_rhs_evals) == (sol.n_steps, sol.n_rhs_evals)


def test_end_state_kernel_keeps_the_integrator_checks(monkeypatch):
    spec = ball_spec(q=15.0)

    def messages():
        out = []
        for profile in (True, False):
            with pytest.raises(IntegrationError) as exc:
                shoot(0.5, spec, profile=profile)
            out.append(str(exc.value))
        assert out[0] == out[1]
        return out[0]

    with monkeypatch.context() as m:
        m.setattr(radial, "IvpSpec", partial(IvpSpec, max_steps=5))
        assert messages().startswith("exceeded max_steps=5")

    # A field that is not finite from r = 0.5 on: every step into the
    # wall shrinks by 4 until the step size underflows.
    make_field = radial._make_field

    def walled(spec, d):
        field = make_field(spec, d)
        return lambda r, u, v: field(r, u, v) if r < 0.5 else (math.inf,) * 3

    monkeypatch.setattr(radial, "_make_field", walled)
    assert messages().startswith("step size underflow")


def _accepts(g, p):
    try:
        g.validate_for(p)
    except SpecError:
        return False
    return True


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pure_power_is_the_combination_with_r_equal_p(p):
    # s <= 0, both sides of the constant state, and s whose top power
    # overflows to inf.
    s_grid = [-1.0, -0.0, 0.0, 1e-300, 0.25, 1.0 - 1e-12, 1.0, 1.7, 1e10, 1e300]
    for q in (p + 1e-9, p + 0.5, 15.0, 100.0):
        pure, combo = Nonlinearity(q), Nonlinearity(q, r_exp=p)
        assert pure.r_exp_for(p) == p
        f_pure, f_combo = pure.f_for(p), combo.f_for(p)
        assert [f_pure(s) for s in s_grid] == [f_combo(s) for s in s_grid]
        assert pure.fprime_at_one(p) == combo.fprime_at_one(p) == q - p
    assert Nonlinearity(100.0).f_for(p)(1e300) == math.inf
    for q in (p - 0.4, p, p + 1e-9, p + 0.5):
        pure, combo = Nonlinearity(q), Nonlinearity(q, r_exp=p)
        assert _accepts(pure, p) == _accepts(combo, p) == (q > p)
    assert Nonlinearity(4.0).label() == "pow:4"
    assert Nonlinearity(4.0, r_exp=p).label() == f"combo:4,{p:g}"


def test_rho_sq_is_computed_from_the_stored_columns():
    # Not a stored column (it was a fifth of each trajectory's arrays),
    # but the same bits as the value the shot used to store per node.
    assert "rho_sq" not in [f.name for f in dataclasses.fields(Trajectory)]
    for spec, d in ((ball_spec(q=15.0), 0.5), (ball_spec(p=2.5, dim=2, q=5.0), 1.4)):
        traj, _ = shoot(d, spec)
        sol = integrate(_shot_start(d, spec, SolverConfig())[0])
        pp = spec.exponent.pprime
        stored = []
        for r in traj.r:
            u, v, _ = sol.eval(r)
            stored.append(_rho_sq(u, v, spec.p, pp))
        assert [x.hex() for x in traj.rho_sq] == [x.hex() for x in stored]


def test_profile_nodes_are_the_mesh_and_the_uniform_grid():
    # The node set equals the sorted-insertion loop it replaced: the
    # accepted mesh merged with the interior uniform nodes, no repeats.
    annulus = ProblemSpec(
        p=1.8, dim=1, domain=Annulus(0.2, 1.0), g=Nonlinearity(4.0, r_exp=2.5)
    )
    for spec, d in ((ball_spec(q=15.0), 0.5), (annulus, 1.3)):
        traj, _ = shoot(d, spec)
        sol = integrate(_shot_start(d, spec, SolverConfig())[0])
        rs = list(sol.rs)
        span = sol.r_end - sol.r_start
        for i in range(1, radial.PROFILE_NODES - 1):
            insort(rs, sol.r_start + span * i / (radial.PROFILE_NODES - 1))
        old = [r for k, r in enumerate(rs) if k == 0 or r != rs[k - 1]]
        assert list(traj.r) == old


# The shot field as it was before N = 1 skipped the flux weight and
# powers were written inline, copied verbatim: the reference for
# test_field_matches_the_reference_field.


def _ref_pow_abs(x: float, e: float) -> float:
    """``|x|**e`` saturating to inf instead of raising on overflow."""
    try:
        return abs(x) ** e
    except OverflowError:
        return math.inf


def _ref_f(self, s: float, p: float) -> float:
    """``g(s) - s^(p-1)``, extended by zero to ``s < 0``.

    Overflow saturates to +inf (the top exponent dominates), which
    the integrator treats as a step into forbidden territory.
    """
    if s <= 0.0:
        return 0.0
    r = p if self.r_exp is None else self.r_exp  # r_exp_for, in the hot loop
    try:
        return s ** (self.q - 1.0) - s ** (r - 1.0)
    except OverflowError:
        return math.inf


def _ref_make_field(spec: ProblemSpec, d: float):
    """Right hand side of a shot as ``field(r, u, v) -> (u', v', theta')``.

    The angle does not feed back into the system, so it is not an
    argument.
    """
    p = spec.p
    pp = spec.exponent.pprime
    n = spec.dim
    g = spec.g

    def field(r, u, v):
        rn = r ** (n - 1) if n > 1 else 1.0
        w = v / rn
        fu = _ref_f(g, u, p)
        um1 = u - 1.0
        rho2 = _ref_pow_abs(um1, p) + (p - 1.0) * _ref_pow_abs(v, pp)
        if rho2 < radial.RHO_FLOOR:
            raise NearConstantShotError(d, r, rho2)
        du = math.copysign(_ref_pow_abs(w, pp - 1.0), w) if w != 0.0 else 0.0
        dv = -rn * fu
        dth = rn * ((p - 1.0) * _ref_pow_abs(w, pp) + um1 * fu) / rho2
        return (du, dv, dth)

    return field


def _field_outcome(field, r, u, v):
    # What a caller can tell apart: the exception, the bits of a finite
    # triple, or only that some component is not finite.
    try:
        out = field(r, u, v)
    except Exception as exc:
        return ("raised", type(exc), exc.args, repr(vars(exc)))
    if all(math.isfinite(c) for c in out):
        return ("finite", tuple(c.hex() for c in out))
    return ("not finite",)


_EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300, -1e-300,
    1e150, -1e150, 1e300, -1e300, math.nan, math.inf, -math.inf, 1.0,
]
_STATE = st.one_of(
    st.sampled_from(_EXTREMES),
    st.floats(-10.0, 10.0),
    st.floats(1.0 - 1e-5, 1.0 + 1e-5),
)


@st.composite
def _field_cases(draw):
    p = draw(st.floats(1.1, 4.0))
    q = p + draw(st.floats(1e-3, 100.0))
    # None is the pure power; else r in [p, q).
    frac = draw(st.one_of(st.none(), st.floats(0.0, 0.99)))
    r_exp = None if frac is None else p + frac * (q - p)
    dim = draw(st.sampled_from([1, 2, 3]))
    spec = ProblemSpec(p=p, dim=dim, domain=Ball(4.0), g=Nonlinearity(q, r_exp=r_exp))
    d = draw(st.floats(0.0, 3.0))
    r = draw(st.floats(0.0, 4.0, exclude_min=True))
    return spec, d, r, draw(_STATE), draw(_STATE)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(_field_cases())
def test_field_matches_the_reference_field(case):
    spec, d, r, u, v = case
    assert _field_outcome(radial._make_field(spec, d), r, u, v) == _field_outcome(
        _ref_make_field(spec, d), r, u, v
    )
    f = spec.g.f_for(spec.p)
    for s in (u, v):
        a, b = f(s), _ref_f(spec.g, s, spec.p)
        assert a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
