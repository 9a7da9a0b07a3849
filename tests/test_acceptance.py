"""Acceptance suite: nine numbered criteria covering the full pipeline.

Each criterion is one test that prints a single ``criterion N: PASS`` or
``criterion N: FAIL`` line (visible with ``pytest -v`` as the test
verdict, and in captured stdout) before asserting.  Run with::

    pytest tests/test_acceptance.py -v
"""

import math

import pytest
from scipy.optimize import brentq
from test_solver import _least_time, _time_map

from plapshoot.branch import bifurcation_onset
from plapshoot.config import SolverConfig
from plapshoot.eigen import eigen_angle, eigenvalue
from plapshoot.odeint import IvpSpec, crossings, integrate
from plapshoot.ptrig import get_context, pi_p
from plapshoot.radial import Annulus, Ball, Nonlinearity, ProblemSpec, shoot
from plapshoot.solver import find_solutions, rstar, theta_scan

CFG = SolverConfig(d_grid_size=400, rel_tol=1e-10, abs_tol=1e-12)
# For the slow searches (onset, threshold radii): coarser grid and
# integrator, with the flux-residual budget relaxed to match.
COARSE = SolverConfig(
    d_grid_size=300, rel_tol=1e-9, abs_tol=1e-11, residual_tol=1e-6
)

SPEC_Q100 = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=100.0))
SPEC_P3 = ProblemSpec(p=3.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=4.0))
SPEC_P18 = ProblemSpec(p=1.8, dim=1, domain=Ball(1.0), g=Nonlinearity(q=3.0))


def report(num: int, checks: list) -> None:
    ok = all(passed for _, passed in checks)
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    bad = [name for name, passed in checks if not passed]
    assert not bad, f"criterion {num} failed: {bad}"


@pytest.fixture(scope="module")
def q100_records():
    return find_solutions(SPEC_Q100, CFG, max_zeros=3, sides=("lower",))


@pytest.fixture(scope="module")
def p3_records():
    return find_solutions(SPEC_P3, CFG, max_zeros=3, sides=("lower", "upper"))


@pytest.fixture(scope="module")
def rstar1():
    return rstar(1, SPEC_P18, COARSE)


def test_criterion_1_trig_identity_and_half_period():
    checks = [("pi_2 equals pi", abs(pi_p(2.0) - math.pi) <= 1e-12)]
    for p in (1.3, 1.5, 1.8, 2.0, 2.1, 3.0, 4.0):
        ctx = get_context(p)
        pp = ctx.pprime
        worst = 0.0
        n = 10_000
        for i in range(n):
            theta = 2.0 * ctx.pi_p * i / (n - 1)
            c, s = ctx.pair(theta)
            defect = abs((p - 1.0) * abs(s) ** pp + abs(c) ** p - 1.0)
            worst = max(worst, defect)
        checks.append((f"identity p={p} worst={worst:.1e}", worst <= 1e-9))

        # Independent route to the half-period: integrate the defining
        # system and locate the first return of the sine to zero.
        def rhs(t, y, p=p, pp=pp):
            c_, s_ = y
            return (
                -math.copysign(abs(s_) ** (pp - 1.0), s_),
                math.copysign(abs(c_) ** (p - 1.0), c_),
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
        rel = abs(hits[0][0] - ctx.pi_p) / ctx.pi_p if hits else math.inf
        checks.append((f"half-period p={p} rel={rel:.1e}", rel <= 1e-10))
    report(1, checks)


def test_criterion_2_eigenvalue_oracle_and_scaling():
    checks = []
    for p in (1.5, 2.0, 3.0):
        pip = pi_p(p)
        for radius in (1.0, 2.0):
            spec = ProblemSpec(p=p, dim=1, domain=Ball(radius))
            checks.append(
                (f"lambda_1=0 p={p} R={radius}", eigenvalue(1, spec).lam == 0.0)
            )
            for k in range(2, 7):
                lam = eigenvalue(k, spec).lam
                ref = ((k - 1) * pip / radius) ** p
                rel = abs(lam - ref) / ref
                checks.append((f"p={p} R={radius} k={k} rel={rel:.1e}", rel <= 1e-6))
    for dim in (2, 3):
        spec1 = ProblemSpec(p=2.5, dim=dim, domain=Ball(1.0))
        spec2 = ProblemSpec(p=2.5, dim=dim, domain=Ball(2.0))
        lams = [eigenvalue(k, spec1).lam for k in (1, 2, 3, 4)]
        increasing = all(b > a for a, b in zip(lams, lams[1:]))
        checks.append((f"N={dim} strictly increasing in k", increasing))
        for k in (2, 3):
            scaled = eigenvalue(k, spec2).lam * 2.0**2.5
            rel = abs(lams[k - 1] - scaled) / lams[k - 1]
            checks.append((f"N={dim} k={k} scaling rel={rel:.1e}", rel <= 1e-6))
    report(2, checks)


def test_criterion_3_bifurcation_onsets():
    spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=15.0))
    eig_spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0))
    checks = []
    for j, q_hi, analytic in ((1, 50.0, 2.0 + math.pi**2),
                              (2, 80.0, 2.0 + 4.0 * math.pi**2)):
        q_star = bifurcation_onset(spec, j, COARSE, q_lo=2.1, q_hi=q_hi)
        target = 2.0 + eigenvalue(j + 1, eig_spec).lam
        rel = abs(q_star - target) / target
        checks.append(
            (f"onset j={j}: {q_star:.4f} vs eigen path {target:.4f}", rel <= 0.01)
        )
        rel_an = abs(q_star - analytic) / analytic
        checks.append((f"onset j={j} vs analytic {analytic:.4f}", rel_an <= 0.01))
    report(3, checks)


def test_criterion_4_multiplicity_q100(q100_records):
    recs = q100_records
    checks = [("zero counts exactly 1,2,3", [r.zeros for r in recs] == [1, 2, 3])]
    for rec in recs:
        checks.append((f"j={rec.zeros} flux residual {rec.residual:.1e}",
                       rec.residual <= 1e-7))
        checks.append((f"j={rec.zeros} positive", rec.summary.min_u > 0.0))
    u = shoot(recs[0].d, SPEC_Q100, CFG)[0].u if recs else []
    checks.append(
        ("j=1 profile nondecreasing",
         bool(u) and all(b >= a - 1e-10 for a, b in zip(u, u[1:])))
    )
    report(4, checks)


def test_criterion_5_shot_phase_exceeds_eigen_phase():
    eig_spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0))
    lam3 = eigenvalue(3, eig_spec).lam
    phase = eigen_angle(lam3, eig_spec)
    theta = shoot(1.0 - 1e-5, SPEC_Q100, CFG)[1].theta_end
    checks = [
        (f"eigen phase at lambda_3 is 3*pi ({phase:.8f})",
         abs(phase - 3.0 * math.pi) <= 1e-6),
        (f"shot phase {theta:.6f} > {phase:.6f}", theta > phase),
    ]
    report(5, checks)


def test_criterion_6_p3_unbounded_winding(p3_records):
    scan = theta_scan(SPEC_P3, CFG, "lower")
    best = max(th for _, th in scan if not math.isnan(th))
    target = 4.0 * pi_p(3.0)
    found = {(r.side, r.zeros) for r in p3_records}
    checks = [
        (f"scan max {best:.2f} exceeds 4*pi_3 {target:.2f}", best > target),
        ("zero counts 1,2,3 found on lower side",
         all(("lower", j) in found for j in (1, 2, 3))),
        ("zero counts 1,2,3 found on upper side",
         all(("upper", j) in found for j in (1, 2, 3))),
    ]
    report(6, checks)


def test_criterion_6_records_lie_on_the_time_map_roots(p3_records):
    # The N = 1 time map of tests/test_solver.py gives the exact roots:
    # the lower ones solve j T(d) = 1 (T falls from d = 0 to d = 1 at
    # p = 3), and each upper one is the conjugate of the lower root with
    # the same j.  Every record lies within the benchmark's ROOT_TOL,
    # 1e-8, of its root; the farthest, lower j = 1, by 5.8e-9.
    half_time, conjugate = _time_map(3.0, 4.0)
    exact = {
        j: brentq(lambda d, j=j: j * half_time(d) - 1.0, 1e-3, 1.0 - 1e-5, xtol=1e-15)
        for j in (1, 2, 3)
    }
    assert sorted((rec.side, rec.zeros) for rec in p3_records) == [
        (side, j) for side in ("lower", "upper") for j in (1, 2, 3)
    ]
    for rec in p3_records:
        root = exact[rec.zeros] if rec.side == "lower" else conjugate(exact[rec.zeros])
        assert abs(rec.d - root) <= 1e-8, (rec.side, rec.zeros, rec.d, root)


def test_criterion_7_threshold_radius_p_below_2(rstar1):
    pip = pi_p(1.8)
    theta = shoot(1.0 - 1e-6, SPEC_P18, COARSE)[1].theta_end
    checks = [
        (f"theta(1-1e-6)={theta:.4f} < pi_p+0.1={pip + 0.1:.4f}",
         theta < pip + 0.1),
        (f"rstar(1)={rstar1:.4f} finite", math.isfinite(rstar1) and rstar1 > 0.0),
    ]
    recs = find_solutions(
        SPEC_P18.with_outer_radius(2.0 * rstar1), COARSE,
        max_zeros=1, sides=("lower",),
    )
    ds = sorted(r.d for r in recs)
    checks.append(
        (f"two j=1 roots at R=2*rstar: {[f'{d:.4f}' for d in ds]}",
         len(ds) >= 2 and ds[-1] - ds[0] > 1e-3)
    )
    # The time map of tests/test_solver.py: R*_1 = min T, within the
    # benchmark's RSTAR_REL_TOL, 1.5e-3 (4.8e-8 off), and the lower
    # j = 1 roots on Ball(2 R*_1) solve T(d) = 2 R*_1 on either side of
    # the d that takes min T, within its ROOT_TOL, 1e-8 (2.5e-9 and
    # 4.5e-10 off).
    half_time, _ = _time_map(1.8, 3.0)
    least, d_least = _least_time(1.8, 3.0)
    checks.append((f"rstar(1) vs min T={least:.7f}", abs(rstar1 - least) <= 1.5e-3 * least))
    exact = [
        brentq(lambda d: half_time(d) - 2.0 * rstar1, lo, hi, xtol=1e-15)
        for lo, hi in ((1e-3, d_least), (d_least, 1.0 - 1e-5))
    ]
    checks.append(
        (f"j=1 roots at R=2*rstar vs T(d)=R: {exact}",
         len(ds) == 2 and all(abs(d - x) <= 1e-8 for d, x in zip(ds, exact)))
    )
    scan = theta_scan(SPEC_P18.with_outer_radius(0.5 * rstar1), COARSE, "lower")
    best = max(th for _, th in scan if not math.isnan(th))
    checks.append(
        (f"below threshold scan max {best:.4f} <= 2*pi_p {2 * pip:.4f}",
         best <= 2.0 * pip)
    )
    report(7, checks)


def test_criterion_8_robustness(q100_records, p3_records):
    checks = []
    # Tighten the integrator tenfold and halve the startup radius: the
    # reported roots must not move at the reporting precision.
    tight = SolverConfig(
        d_grid_size=400, rel_tol=1e-11, abs_tol=1e-13, eps0=5e-9
    )
    moved = find_solutions(SPEC_Q100, tight, max_zeros=3, sides=("lower",))
    checks.append(("same root count", len(moved) == len(q100_records)))
    for b, m in zip(q100_records, moved):
        dd = abs(b.d - m.d)
        checks.append((f"j={b.zeros} root moved {dd:.1e}", dd <= 1e-8))
    for p in (2.0, 3.0):
        spec = ProblemSpec(p=p, dim=1, domain=Ball(1.0))
        for k in (2, 3):
            l0 = eigenvalue(k, spec, SolverConfig()).lam
            l1 = eigenvalue(k, spec, SolverConfig(rel_tol=1e-11, abs_tol=1e-13)).lam
            rel = abs(l0 - l1) / l0
            checks.append((f"lambda p={p} k={k} moved rel {rel:.1e}", rel <= 1e-8))

    # Polar reconstruction at every stored node of every reported
    # solution's profile, which shooting its d again gives.
    worst = 0.0
    worst_dth = 0.0
    for rec, spec in [(r, SPEC_Q100) for r in q100_records] + [(r, SPEC_P3) for r in p3_records]:
        p = spec.p
        ctx = get_context(p)
        t = shoot(rec.d, spec, CFG)[0]
        for u, v, th, rho2 in zip(t.u, t.v, t.theta, t.rho_sq):
            rho = math.sqrt(rho2)
            c, s = ctx.pair(th)
            ru = rho ** (2.0 / p)
            rv = rho ** (2.0 / ctx.pprime)
            scale = max(1.0, ru, rv)
            worst = max(worst, abs(u - 1.0 - ru * c) / scale,
                        abs(v + rv * s) / scale)
        worst_dth = max(
            worst_dth, max(a - b for a, b in zip(t.theta, t.theta[1:]))
        )
    checks.append((f"polar consistency worst {worst:.1e}", worst <= 1e-6))
    checks.append((f"theta nondecreasing (worst slip {worst_dth:.1e})",
                   worst_dth <= 1e-12))
    report(8, checks)


def test_criterion_9_annulus_path():
    checks = []
    spec = ProblemSpec(
        p=2.0, dim=2, domain=Annulus(0.25, 1.0), g=Nonlinearity(q=15.0)
    )
    traj, summ = shoot(0.5, spec, CFG)
    checks.append(("shot starts exactly at inner radius", traj.r[0] == 0.25))
    checks.append(("initial value is d", traj.u[0] == 0.5))
    checks.append(("initial flux is zero", traj.v[0] == 0.0))
    checks.append(
        ("initial phase is the anchor",
         traj.theta[0] == pytest.approx(math.pi, abs=1e-15))
    )
    checks.append(("shot completes", math.isfinite(summ.theta_end)))

    ann = ProblemSpec(
        p=1.8, dim=1, domain=Annulus(0.1, 1.0), g=Nonlinearity(q=3.0)
    )
    r_hat = rstar(1, ann, COARSE)
    checks.append(
        (f"annulus rstar {r_hat:.4f} finite", math.isfinite(r_hat) and r_hat > 0.0)
    )
    # The time map of tests/test_solver.py: the annulus width 0.9 R*_1 is
    # min T, within the benchmark's RSTAR_REL_TOL, 1.5e-3 (4.8e-8 off).
    exact = _least_time(1.8, 3.0)[0] / 0.9
    checks.append(
        (f"annulus rstar vs min T / 0.9={exact:.7f}",
         abs(r_hat - exact) <= 1.5e-3 * exact)
    )
    pip = pi_p(1.8)
    for fac, expect in ((0.99, False), (1.01, True)):
        scaled = ann.with_outer_radius(fac * r_hat)
        ratio = scaled.domain.r_inner / scaled.domain.r_outer
        scan = theta_scan(scaled, COARSE, "lower")
        best = max(th for _, th in scan if not math.isnan(th))
        checks.append((f"ratio preserved at {fac}R", abs(ratio - 0.1) <= 1e-12))
        checks.append(
            (f"predicate at {fac}R is {expect} (max {best:.4f})",
             (best > 2.0 * pip) is expect)
        )
    report(9, checks)
