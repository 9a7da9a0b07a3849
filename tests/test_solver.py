"""Root-search tests: scans, bracketing, validation, threshold radii."""

import logging
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad, solve_bvp
from scipy.optimize import brentq, minimize_scalar

from plapshoot import odeint, radial, solver
from plapshoot.branch import bifurcation_onset, branch_sweep
from plapshoot.config import SolverConfig
from plapshoot.eigen import eigen_angle, eigenfunction, eigenvalue
from plapshoot.errors import (
    IntegrationError,
    NearConstantShotError,
    NumericsError,
    SearchError,
    SpecError,
)
from plapshoot.odeint import IvpSpec, bisect_bracket
from plapshoot.ptrig import PTrigContext, get_context, phi_p, phi_p_inv, pi_p
from plapshoot.radial import (
    Annulus,
    Ball,
    Nonlinearity,
    ProblemSpec,
    shoot,
    startup_state,
)
from plapshoot.solver import (
    D_MAX,
    D_MAX_UPPER,
    D_MIN,
    D_MIN_UPPER,
    SCAN_MARGIN,
    d_grid,
    find_solutions,
    rstar,
    theta_scan,
)

CFG = SolverConfig(d_grid_size=400, rel_tol=1e-10, abs_tol=1e-12)
CFG_COARSE = SolverConfig(d_grid_size=200, rel_tol=1e-9, abs_tol=1e-11)


def ball(p=2.0, dim=1, radius=1.0, q=15.0):
    return ProblemSpec(p=p, dim=dim, domain=Ball(radius), g=Nonlinearity(q=q))


@pytest.fixture(scope="module")
def q100_lower():
    return find_solutions(ball(q=100.0), CFG, max_zeros=3, sides=("lower",))


@pytest.fixture(scope="module")
def q100_upper():
    return find_solutions(ball(q=100.0), CFG, max_zeros=2, sides=("upper",))


@pytest.fixture(scope="module")
def q100_upper_to_j3():
    return find_solutions(ball(q=100.0), CFG, max_zeros=3, sides=("upper",))


def test_d_grid_lower_refines_toward_one():
    cfg = SolverConfig(d_grid_size=100)
    grid = d_grid(cfg, "lower")
    assert grid == sorted(grid)
    assert grid[0] == D_MIN
    assert grid[-1] == pytest.approx(D_MAX, abs=1e-15)
    # Geometric tail: several points within 1e-4 of d = 1.
    assert sum(1 for d in grid if d > 1.0 - 1e-4) >= 10
    assert len(grid) <= cfg.d_grid_size


def test_d_grid_upper_is_geometric():
    cfg = SolverConfig(d_grid_size=50)
    grid = d_grid(cfg, "upper")
    assert grid[0] == pytest.approx(D_MIN_UPPER)
    assert grid[-1] == pytest.approx(D_MAX_UPPER)
    gaps = [b - a for a, b in zip(grid, grid[1:])]
    assert all(g > 0 for g in gaps)
    assert gaps[-1] > gaps[0] * 100


def test_d_grid_rejects_bad_side():
    with pytest.raises(SpecError):
        d_grid(SolverConfig(), "middle")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1a: the uniform part's last node rounds one ulp below"
    " D_MAX, next to the geometric part's first node, at 496 of these sizes;"
    " merging them moves the benchmark's 498-shot pin",
)
def test_d_grid_lower_has_no_near_duplicate_nodes():
    close = []
    for n in range(16, 2001):
        grid = d_grid(SolverConfig(d_grid_size=n))
        if any(b - a <= 4.0 * math.ulp(b) for a, b in zip(grid, grid[1:])):
            close.append(n)
    assert close == []


def test_theta_scan_subcritical_stays_under_target():
    spec = ball(q=5.0)
    cfg = SolverConfig(d_grid_size=100)
    scan = theta_scan(spec, cfg, "lower")
    pip = pi_p(2.0)
    assert len(scan) == len(d_grid(cfg, "lower"))
    for d, th in scan:
        assert not math.isnan(th)
        assert pip - 1e-9 <= th < 2 * pip


@pytest.mark.parametrize(
    "spec, cfg, side",
    [
        (ball(q=100.0), CFG, "lower"),
        (ball(p=3.0, dim=3, q=4.0), SolverConfig(d_grid_size=100), "upper"),
    ],
)
def test_theta_scan_equals_old_loop(spec, cfg, side, monkeypatch):
    # The loop as it was before scans ran on the end-state kernel:
    # full shots with a two-node profile.
    monkeypatch.setattr(radial, "PROFILE_NODES", 2)

    def one(d):
        try:
            return shoot(d, spec, cfg)[1].theta_end
        except NumericsError:
            return math.nan

    old = [(d, one(d)) for d in d_grid(cfg, side)]
    new = theta_scan(spec, cfg, side)
    assert [(d, t.hex()) for d, t in new] == [(d, t.hex()) for d, t in old]
    assert any(math.isnan(t) for _, t in new)


def test_no_solutions_below_onset():
    recs = find_solutions(
        ball(q=5.0), CFG, max_zeros=2, sides=("lower", "upper")
    )
    assert recs == []


def test_q100_lower_multiplicity(q100_lower):
    assert [r.zeros for r in q100_lower] == [1, 2, 3]
    ds = [r.d for r in q100_lower]
    assert ds == sorted(ds)
    pip = pi_p(2.0)
    for rec in q100_lower:
        assert rec.side == "lower"
        assert 0.0 < rec.d < 1.0
        assert rec.theta_end == pytest.approx(
            (rec.zeros + 1) * pip, abs=1e-8 * pip
        )
        assert rec.residual <= 1e-7
        assert rec.summary.min_u > 0.0
        assert rec.summary.zeros == rec.zeros


def test_q100_j1_profile_is_monotone(q100_lower):
    rec = q100_lower[0]
    u = rec.trajectory.u
    assert all(b >= a - 1e-10 for a, b in zip(u, u[1:]))
    assert u[0] == pytest.approx(rec.d, abs=1e-6)


def test_q100_upper_records(q100_upper):
    assert [r.zeros for r in q100_upper] == [1, 2]
    for rec in q100_upper:
        assert rec.side == "upper"
        assert rec.d > 1.0
        assert rec.summary.min_u > 0.0
    # The one-zero profile starts above 1 and decreases.
    u = q100_upper[0].trajectory.u
    assert all(b <= a + 1e-10 for a, b in zip(u, u[1:]))


def test_collocation_oracle_agrees_with_every_p2_record(q100_lower, q100_upper_to_j3):
    # An oracle that shares no code with shooting: scipy's collocation
    # solver on u' = v, v' = u - u^(q-1), v(0) = v(1) = 0 (p = 2, N = 1),
    # started from 200 nodes of each record's profile scaled by 1.01
    # about u = 1.  Both j = 2 meshes need about 1270 nodes, more than
    # solve_bvp's default budget of 1000.
    q15 = find_solutions(ball(q=15.0), CFG, max_zeros=1, sides=("lower",))
    cases = [(100.0, rec) for rec in q100_lower + q100_upper_to_j3]
    cases += [(15.0, rec) for rec in q15]
    assert [(q, rec.side, rec.zeros) for q, rec in cases] == [
        (100.0, "lower", 1), (100.0, "lower", 2), (100.0, "lower", 3),
        (100.0, "upper", 1), (100.0, "upper", 2), (100.0, "upper", 3),
        (15.0, "lower", 1),
    ]
    x = np.linspace(0.0, 1.0, 200)
    fine = np.linspace(0.0, 1.0, 20_001)
    for q, rec in cases:
        traj = rec.trajectory
        guess = np.vstack(
            (
                1.0 + 1.01 * (np.interp(x, traj.r, traj.u) - 1.0),
                1.01 * np.interp(x, traj.r, traj.v),
            )
        )
        sol = solve_bvp(
            lambda r, y, q=q: np.vstack((y[1], y[0] - y[0] ** (q - 1.0))),
            lambda ya, yb: np.array([ya[1], yb[1]]),
            x,
            guess,
            tol=1e-8,
            max_nodes=5000,
        )
        assert sol.success, (q, rec.side, rec.zeros, sol.message)
        assert abs(sol.y[0, 0] - rec.d) <= 1e-9, (q, rec.side, rec.zeros)
        above = sol.sol(fine)[0] > 1.0
        assert np.count_nonzero(above[1:] != above[:-1]) == rec.zeros


def _time_map(p, q):
    """The N = 1 time map of the pure power: T(d) and the conjugate of d.

    With F(s) = s^q/q - s^p/p, a shot from d < 1 swings to the conjugate
    d_bar > 1 with F(d_bar) = F(d) in the time
    T(d) = integral of du / (p'(F(d) - F(u)))^(1/p) from d to d_bar,
    so a root with j zeros of u - 1 on Ball(R) is a d with j T(d) = R.
    Each half of the integral, split at u = 1, reads the energy of its
    own turning point e, where quad's algebraic weight takes the
    |u - e|^(-1/p) singularity.  quad warns once 1 - d < about 1e-6.
    """
    pprime = p / (p - 1.0)

    def drop(e, u):
        # F(e) - F(u), free of the cancellation of two close values of F.
        t = math.log1p((e - u) / u)
        return u**q * math.expm1(q * t) / q - u**p * math.expm1(p * t) / p

    def smooth(e):
        # The integrand times |u - e|^(1/p).
        def part(u):
            if (e - u) * (1.0 - e) >= 0.0:
                # At the turning point (or past it by rounding): the limit.
                f_e = e ** (q - 1.0) - e ** (p - 1.0)
                return (pprime * abs(f_e)) ** (-1.0 / p)
            return (abs(e - u) / (pprime * drop(e, u))) ** (1.0 / p)

        return part

    def conjugate(d):
        return brentq(lambda x: drop(d, x), 1.0, 2.0, xtol=1e-16)

    def half_time(d):
        d_bar = conjugate(d)
        w = -1.0 / p
        return (
            quad(smooth(d), d, 1.0, weight="alg", wvar=(w, 0.0))[0]
            + quad(smooth(d_bar), 1.0, d_bar, weight="alg", wvar=(0.0, w))[0]
        )

    return half_time, conjugate


def _least_time(p, q):
    """The least value of the time map over d < 1, and the d that takes it.

    For k >= 1, R*_k = k min T on a ball of radius R, and on an N = 1
    annulus R*_k is the outer radius whose width is k min T.
    """
    half_time, _ = _time_map(p, q)
    best = minimize_scalar(
        half_time, bounds=(1e-3, 1.0 - 1e-5), method="bounded", options={"xatol": 1e-9}
    )
    return best.fun, best.x


def test_time_map_oracle_agrees_with_every_p2_q100_record(
    q100_lower, q100_upper_to_j3
):
    # An oracle from the first integral alone, with no shot: the exact
    # lower roots solve j T(d) = 1, and each upper root is the conjugate
    # of the lower root with the same j.  1e-9 is the collocation bound.
    half_time, conjugate = _time_map(2.0, 100.0)
    exact = [
        brentq(lambda d, j=j: j * half_time(d) - 1.0, 1e-3, 1.0 - 1e-4, xtol=1e-15)
        for j in (1, 2, 3)
    ]
    assert [rec.zeros for rec in q100_lower] == [1, 2, 3]
    assert [rec.zeros for rec in q100_upper_to_j3] == [1, 2, 3]
    for rec, d in zip(q100_lower, exact):
        assert abs(rec.d - d) <= 1e-9, (rec.zeros, rec.d, d)
    for rec, d in zip(q100_upper_to_j3, exact):
        assert abs(rec.d - conjugate(d)) <= 1e-9, (rec.zeros, rec.d, conjugate(d))


# The bits of the six p = 2, q = 100 records: (zeros, d, theta_end,
# residual) as float.hex(), per side.  Any change to the step loop, the
# stages or the folds that moves one bit of one step shows here.
Q100_BITS = {
    "lower": [
        (1, "0x1.5c5872c7140f2p-1", "0x1.921fb5440bec4p+2", "0x1.c45f841daa94cp-36"),
        (2, "0x1.d8573ddaad2fap-1", "0x1.2d97c7f333828p+3", "0x1.2dc734470d974p-33"),
        (3, "0x1.f93c41d9c50eap-1", "0x1.921fb5441b9f1p+3", "0x1.56fc4ecacb969p-33"),
    ],
    "upper": [
        (1, "0x1.08e413d65e0c4p+0", "0x1.921fb54444a62p+1", "0x1.adf511effe2c3p-36"),
        (2, "0x1.05e790fbc5510p+0", "0x1.921fb54bc4c90p+2", "0x1.0ce0ac65c5afdp-31"),
        (3, "0x1.025c044450003p+0", "0x1.2d97c7f340cb9p+3", "0x1.cd2e8e5476dacp-33"),
    ],
}


def test_the_six_q100_records_keep_their_bits(q100_lower, q100_upper_to_j3):
    for side, records in (("lower", q100_lower), ("upper", q100_upper_to_j3)):
        bits = [
            (rec.zeros, rec.d.hex(), rec.theta_end.hex(), rec.residual.hex()) for rec in records
        ]
        assert bits == Q100_BITS[side], side


def test_time_map_tends_to_the_linearised_half_period():
    # Near u = 1 the shot solves u'' = -(q - 2)(u - 1), whose half period
    # is pi / sqrt(q - 2); the gap shrinks like (1 - d)^2 (4.2e-6 here).
    half_time, _ = _time_map(2.0, 100.0)
    want = math.pi / math.sqrt(98.0)
    assert half_time(1.0 - 1e-4) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize(
    "p, q, zero_counts",
    [(2.0, 100.0, [1, 2, 3]), (2.0, 15.0, [1]), (3.0, 10.0, [1, 2, 3])],
    ids=["p2-q100", "p2-q15", "p3-q10"],
)
def test_upper_solve_rejects_no_candidate(p, q, zero_counts, caplog):
    # Every shot starts from the exact angle of its start-up state, so
    # the upper scan brackets no half-period that the state does not
    # have, and every bracket refines to a root that validation keeps.
    with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
        recs = find_solutions(ball(p=p, q=q), CFG, max_zeros=3, sides=("upper",))
    assert [rec.zeros for rec in recs] == zero_counts
    assert not any("rejecting candidate" in msg for msg in caplog.messages)


def test_validated_record_rejects_a_non_root(caplog):
    # d = 1.1 lies between the upper q = 100 roots with no and one zero:
    # its shot ends far from the one-zero target, so validation drops it
    # and says why.
    spec = ball(q=100.0)
    pip = pi_p(2.0)
    with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
        rec = solver._validated_record(spec, CFG, 1.1, "upper", 1, pip, 1e-8 * pip)
    assert rec is None
    assert any(
        "rejecting candidate d=1.1000000000000001 (side=upper, zeros=1)" in msg
        for msg in caplog.messages
    )


def test_validated_record_rejects_a_root_with_the_wrong_zero_count(q100_lower, caplog):
    # A true one-zero root, on its own target, offered as a two-zero one.
    rec = q100_lower[0]
    pip = pi_p(2.0)
    with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
        got = solver._validated_record(
            ball(q=100.0), CFG, rec.d, "lower", 2, rec.theta_end, 1e-8 * pip
        )
    assert got is None
    [msg] = [m for m in caplog.messages if "rejecting candidate" in m]
    assert msg.endswith("(side=lower, zeros=2): zero count 1 != 2")


def test_validated_record_rejects_a_profile_indistinguishable_from_constant(caplog):
    # p = 1.5, d = 1 + 1e-6: the shot neither collapses nor moves u by
    # more than about 6e-11.
    spec = ball(p=1.5)
    _, summ = shoot(1.000001, spec, CFG)
    assert summ.max_u - summ.min_u < 1e-6
    with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
        got = solver._validated_record(
            spec, CFG, 1.000001, "upper", 0, summ.theta_end, 1e-8
        )
    assert got is None
    [msg] = [m for m in caplog.messages if "rejecting candidate" in m]
    assert msg.endswith("profile indistinguishable from constant")


def test_root_stable_under_tighter_tolerance(q100_lower):
    tight = SolverConfig(d_grid_size=400, rel_tol=1e-11, abs_tol=1e-13)
    recs = find_solutions(ball(q=100.0), tight, max_zeros=1, sides=("lower",))
    assert len(recs) == 1
    assert recs[0].d == pytest.approx(q100_lower[0].d, abs=1e-8)


def test_shot_limit_matches_eigen_angle_at_phase_limit():
    # Shots approaching the constant state wind like the eigenvalue
    # flow at lam = f'(1) when p = 2; here f'(1) = q - 2 = 13.
    spec = ball(q=15.0)
    th_shot = shoot(1.0 - 1e-5, spec)[1].theta_end
    th_eig = eigen_angle(13.0, spec)
    assert th_shot == pytest.approx(th_eig, abs=1e-3)
    assert abs(th_shot - th_eig) > 0.0


def test_scan_has_floor_gap_but_roots_survive_p3():
    # For p = 3 the squared radius near d = 1 drops under the floor, so
    # the top of the scan is NaN; roots farther out must still be found.
    spec = ball(p=3.0, q=4.0)
    scan = theta_scan(spec, CFG, "lower")
    assert any(math.isnan(th) for d, th in scan if d > 1.0 - 1e-5)
    recs = find_solutions(spec, CFG, max_zeros=1, sides=("lower", "upper"))
    assert [(r.side, r.zeros) for r in recs] == [("lower", 1), ("upper", 1)]
    assert recs[0].d == pytest.approx(0.9556, abs=2e-3)
    assert recs[1].d == pytest.approx(1.0419, abs=2e-3)


def test_rstar_brackets_the_threshold():
    spec = ball(p=1.8, q=3.0)
    r_hat = rstar(1, spec, CFG_COARSE)
    assert 2.0 < r_hat < 8.0
    pip = pi_p(1.8)
    for radius, expect in ((r_hat * 0.99, False), (r_hat * 1.01, True)):
        scan = theta_scan(spec.with_outer_radius(radius), CFG_COARSE, "lower")
        best = max(th for _, th in scan if not math.isnan(th))
        assert (best > 2 * pip) is expect, radius


def test_rstar_increases_with_zero_count():
    spec = ball(p=1.8, q=3.0)
    r1 = rstar(1, spec, CFG_COARSE)
    r2 = rstar(2, spec, CFG_COARSE)
    assert r2 > r1 * 1.5


def test_rstar_requires_vanishing_phase_limit():
    with pytest.raises(SpecError):
        rstar(1, ball(p=2.0, q=5.0), CFG_COARSE)
    with pytest.raises(SpecError):
        rstar(1, ball(p=3.0, q=5.0), CFG_COARSE)


def _old_rstar(k, spec, cfg, r_cap=1e4):
    # rstar as it was before it searched the maximum terminal angle:
    # bisection of the outer radius on "some scan node exceeds (k+1)
    # half-periods", kept as the reference for the result.
    target = (k + 1) * pi_p(spec.p)

    def pred(r_outer):
        scan = theta_scan(spec.with_outer_radius(r_outer), cfg, "lower")
        return max(t for _, t in scan if not math.isnan(t)) > target

    r0 = spec.r_outer
    if pred(r0):
        hi, lo = r0, 0.5 * r0
        while pred(lo):
            hi, lo = lo, 0.5 * lo
    else:
        lo, hi = r0, 2.0 * r0
        while not pred(hi):
            lo, hi = hi, 2.0 * hi
    return bisect_bracket(
        lambda r: 1.0 if pred(r) else -1.0,
        lo,
        hi,
        -1.0,
        lambda lo, hi: hi - lo <= 1.5e-3 * lo,
    )


@pytest.mark.parametrize(
    "k, domain",
    [(1, Ball(1.0)), (2, Ball(1.0)), (1, Annulus(0.1, 1.0))],
)
def test_rstar_equals_old_predicate_loop(k, domain):
    # Equal within the 1.5e-3 relative width both searches stop at, and
    # within the same width (the benchmark's RSTAR_REL_TOL) of the time
    # map's k min T over the width ratio: 2.0e-7, 2.7e-6 and 7.6e-5 off.
    spec = ProblemSpec(p=1.8, dim=1, domain=domain, g=Nonlinearity(q=3.0))
    cfg = SolverConfig(d_grid_size=150)
    got = rstar(k, spec, cfg)
    assert got == pytest.approx(_old_rstar(k, spec, cfg), rel=1.5e-3)
    width = 1.0 - spec.domain.r_inner if isinstance(domain, Annulus) else 1.0
    assert got == pytest.approx(k * _least_time(1.8, 3.0)[0] / width, rel=1.5e-3)


def test_rstar_shot_budget(monkeypatch):
    # The benchmark's sweep configuration: the search in R and the
    # confirming scan take at most 220 shots (211 with one Brent search
    # over d per radius, 329 with golden section there, 539 by bisection
    # in R).
    cfg = SolverConfig(
        d_grid_size=150, rel_tol=1e-9, abs_tol=1e-11, residual_tol=1e-6
    )
    shots = []
    real_shoot = solver.shoot

    def counted(*args, **kwargs):
        shots.append(args[0])
        return real_shoot(*args, **kwargs)

    monkeypatch.setattr(solver, "shoot", counted)
    rstar(1, ball(p=1.8, q=3.0), cfg)
    assert len(shots) <= 220


def test_a_problem_compiles_one_shot_field(monkeypatch):
    # The field depends on p, N and g alone: every shot of a two-sided
    # solve, and every shot at every radius of rstar, shares one.  A
    # fresh cache, so that fields compiled by earlier tests do not count.
    monkeypatch.setattr(radial, "_make_field", lru_cache(maxsize=8)(radial._make_field.__wrapped__))
    compiled = []
    compile_field = radial.compile_field

    def spy(reads, body, **consts):
        if reads == ("u", "v"):
            compiled.append(body)
        return compile_field(reads, body, **consts)

    monkeypatch.setattr(radial, "compile_field", spy)
    cfg = SolverConfig(d_grid_size=40)
    find_solutions(ball(q=15.0), cfg, max_zeros=1, sides=("lower", "upper"))
    assert compiled == [radial._SHOT_N1]
    compiled.clear()
    rstar(1, ProblemSpec(p=1.8, dim=2, domain=Ball(1.0), g=Nonlinearity(q=3.0)), cfg)
    assert compiled == [radial._SHOT_N]


def test_rstar_below_the_threshold_up_to_r_cap_is_a_search_error():
    # The threshold of p = 1.8, q = 3 lies near R = 3.42.
    with pytest.raises(SearchError, match="no threshold for 1-zero solutions"):
        rstar(1, ball(p=1.8, q=3.0), SolverConfig(d_grid_size=40), r_cap=2.0)


class _FakeEnd:
    def __init__(self, theta_end):
        self.theta_end = theta_end


def test_rstar_rejects_two_humps(monkeypatch):
    # theta_end peaks at d = 0.3 and, a little lower, at d = 0.8; its
    # maximum reaches 2 pi_p at R = 1.5.  The search over d follows
    # one hump, and the confirming scan sees both.
    pip = pi_p(1.8)

    def fake_shoot(d, spec, cfg=None, *, profile=True):
        hump = max(math.exp(-50.0 * (d - 0.3) ** 2),
                   0.9 * math.exp(-50.0 * (d - 0.8) ** 2))
        return _FakeEnd(2.0 * pip * spec.r_outer / 1.5 * hump)

    monkeypatch.setattr(solver, "shoot", fake_shoot)
    with pytest.raises(SearchError, match="not single-peaked"):
        rstar(1, ball(p=1.8, q=3.0), SolverConfig(d_grid_size=40))


def _hump_search(monkeypatch, theta, fails_below=0.0):
    """_max_theta_end over a fake theta_end; the max and the d shot."""
    shots = []

    def fake_shoot(d, spec, cfg=None, *, profile=True):
        shots.append(d)
        if d < fails_below:
            raise NumericsError("fake shot failed")
        return _FakeEnd(theta(d))

    monkeypatch.setattr(solver, "shoot", fake_shoot)
    got = solver._max_theta_end(ball(p=1.8, q=3.0), SolverConfig())
    return got, shots


def test_max_theta_end_finds_a_skewed_hump(monkeypatch):
    # sin(pi d^1.5) peaks at d = 2^(-2/3); golden section took 30 shots.
    def theta(d):
        return math.sin(math.pi * d ** 1.5)

    got, shots = _hump_search(monkeypatch, theta)
    assert len(shots) <= 20
    assert got == max(map(theta, shots))
    best = max(shots, key=theta)
    assert abs(best - 2.0 ** (-2.0 / 3.0)) <= 1e-6


def test_max_theta_end_steps_past_failed_shots(monkeypatch):
    # Every shot below d = 0.3 fails and counts as -inf; the parabola
    # through such a point is never taken, and the hump at 0.31 is found.
    def theta(d):
        return math.exp(-20.0 * (d - 0.31) ** 2)

    got, shots = _hump_search(monkeypatch, theta, fails_below=0.3)
    assert any(d < 0.3 for d in shots)
    assert not math.isnan(got)
    best = max((d for d in shots if d >= 0.3), key=theta)
    assert got == theta(best)
    assert abs(best - 0.31) <= 1e-6


def test_rstar_runs_one_scan_and_routes_every_shot(monkeypatch):
    counts = {"shoot": 0, "scan": 0, "kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "shoot", counted("shoot", solver.shoot))
    monkeypatch.setattr(
        solver, "theta_scan", counted("scan", solver.theta_scan)
    )
    monkeypatch.setattr(
        radial, "end_state", counted("kernel", radial.end_state)
    )
    rstar(1, ball(p=1.8, q=3.0), SolverConfig(d_grid_size=40))
    assert counts["scan"] == 1
    assert counts["shoot"] == counts["kernel"] > 40


@pytest.mark.parametrize("r_cap", [math.nan, -5.0, 0.0, math.inf])
def test_rstar_rejects_a_bad_r_cap_before_any_shot(r_cap, monkeypatch):
    monkeypatch.setattr(solver, "shoot", None)
    want = f"r_cap must be a finite number > 0.0, got {r_cap!r}"
    with pytest.raises(SpecError, match=re.escape(want)):
        rstar(1, ball(p=1.8, q=3.0), SolverConfig(d_grid_size=40), r_cap=r_cap)


def test_upper_scan_survives_startup_overflow():
    # At q = 200, d**199 overflows for the top upper-grid nodes; those
    # shots are gaps, not a crash.  N = 2 scans the whole upper grid
    # (N = 1 ends it just past d0, below every such node).
    cfg = SolverConfig(d_grid_size=40)
    spec = ball(dim=2, q=200.0)
    scan = theta_scan(spec, cfg, "upper")
    assert [d for d, _ in scan] == d_grid(cfg, "upper")
    assert math.isnan(scan[-1][1])
    assert not math.isnan(scan[len(scan) // 2][1])
    with pytest.raises(NumericsError, match="start-up state not finite"):
        shoot(D_MAX_UPPER, spec, cfg, profile=False)


@pytest.mark.parametrize(
    "spec",
    [
        ball(q=15.0),
        ProblemSpec(p=1.5, dim=1, domain=Annulus(0.5, 2.0), g=Nonlinearity(4.0, r_exp=2.0)),
        ball(dim=2, q=15.0),
    ],
    ids=["ball", "annulus", "N2"],
)
def test_upper_scan_of_n1_ends_at_its_first_node_past_d0(spec, monkeypatch):
    # F(d0) = F(0) for F(u) = u^q/q - u^r/r: d0 = (q/r)^(1/(q-r)).  N = 1
    # keeps the nodes below d0 and the first one at or above it; N = 2
    # scans the whole grid.
    shots = []
    monkeypatch.setattr(solver, "_theta_end", lambda d, spec, cfg: shots.append(d) or 0.0)
    cfg = SolverConfig(d_grid_size=40)
    grid = d_grid(cfg, "upper")
    q, r = spec.g.q, spec.g.r_exp_for(spec.p)
    d0 = (q / r) ** (1.0 / (q - r))
    scan = [d for d, _ in theta_scan(spec, cfg, "upper")]
    assert scan == shots
    if spec.dim == 1:
        past = [d for d in grid if d >= d0]
        assert scan == [d for d in grid if d < d0] + past[:1] and len(past) > 1
    else:
        assert scan == grid
    assert [d for d, _ in theta_scan(spec, cfg, "lower")] == d_grid(cfg, "lower")


@pytest.mark.parametrize(
    "q, ds", [(30.0, [0.9437589]), (100.0, [0.8788142, 0.9525024])], ids=["q30", "q100"]
)
def test_n3_lower_census_meets_the_linear_bound(q, ds, caplog):
    # The paper's setting, p = 2 on the unit ball of R^3: a lower solution
    # with j crossings exists for each j with q - 2 > lambda_{j+1}, where
    # lambda = 20.19, 59.68, 118.90, ... are the radial Neumann eigenvalues.
    # The lower side finds exactly those j.  No oracle covers N = 3 yet,
    # so the d are pinned to this solver's own values.
    spec = ball(dim=3, q=q)
    max_zeros = 4
    bound = [
        j for j in range(1, max_zeros + 1) if q - 2.0 > eigenvalue(j + 1, spec).lam
    ]
    with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
        recs = find_solutions(spec, CFG, max_zeros=max_zeros, sides=("lower",))
    assert [rec.zeros for rec in recs] == bound
    assert [rec.d for rec in recs] == pytest.approx(ds, abs=1e-7)
    assert not any("rejecting candidate" in msg for msg in caplog.messages)


@pytest.mark.parametrize(
    "spec, max_zeros",
    [
        (ProblemSpec(p=1.5, dim=1, domain=Ball(20.0), g=Nonlinearity(q=20.0)), 4),
        (ball(q=400.0), 3),
        (ball(p=3.0, q=4.0), 3),
    ],
    ids=["p1.5-R20-q20", "q400", "p3-q4"],
)
def test_upper_records_and_rejections_equal_those_of_the_uncut_grid(
    spec, max_zeros, caplog, monkeypatch
):
    # No positive N = 1 solution starts above d0, so the nodes cut there
    # bracket only candidates that validation would reject.  p = 1.5
    # rejects candidates just below d0 and near d = 1, q = 400 one near
    # d = 1, and p = 3 none.
    def solve():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
            records = find_solutions(spec, CFG, max_zeros, ("upper",))
        return records, list(caplog.messages)

    cut = solve()
    monkeypatch.setattr(solver, "_zero_energy_level", lambda spec: math.inf)
    assert cut == solve() and cut[0]


def test_find_solutions_validates_arguments():
    with pytest.raises(SpecError):
        find_solutions(ball(), CFG, max_zeros=0)
    with pytest.raises(SpecError):
        find_solutions(ball(), CFG, sides=("sideways",))


@pytest.mark.parametrize(
    "sides", [(), ("lower", "lower"), ("upper", "lower", "upper")]
)
def test_find_solutions_rejects_repeated_or_no_sides(sides, monkeypatch):
    # Rejected before any scan: a repeated side would scan twice and
    # report every root twice.
    monkeypatch.setattr(solver, "_records_for_side", None)
    with pytest.raises(SpecError, match="distinct sides"):
        find_solutions(ball(), CFG, max_zeros=1, sides=sides)


def test_find_solutions_rejects_a_bare_string_for_sides(monkeypatch):
    # A string is a sequence of one-letter sides; it would be reported
    # as the unknown side 'l' instead of the missing tuple.
    monkeypatch.setattr(solver, "_records_for_side", None)
    with pytest.raises(SpecError, match=r"tuple .*'lower'"):
        find_solutions(ball(), CFG, max_zeros=1, sides="lower")


@pytest.mark.parametrize(
    "spec, grid",
    [
        (ball(q=100.0), 400),
        (ball(q=1000.0), 200),
        (ball(p=3.0, dim=3, q=4.0), 200),
        (ProblemSpec(p=1.5, dim=2, domain=Ball(3.0), g=Nonlinearity(q=3.0)), 200),
        (
            ProblemSpec(
                p=2.5, dim=2, domain=Annulus(0.5, 2.0), g=Nonlinearity(q=6.0)
            ),
            200,
        ),
    ],
)
def test_coarse_scan_gives_the_full_scan_roots(spec, grid, monkeypatch):
    # The same search with the scan tolerances lowered to cfg's is the
    # full-accuracy scan: its records must be equal, field for field.
    # The two runs' scans are compared too: same gaps, and a coarse
    # angle error well inside the re-shooting margin.
    cfg = SolverConfig(d_grid_size=grid)
    scans = []

    def recorded(spec, cfg, side):
        scan = theta_scan(spec, cfg, side)
        scans.append(scan)
        return scan

    monkeypatch.setattr(solver, "theta_scan", recorded)
    coarse = find_solutions(spec, cfg, sides=("lower", "upper"))
    monkeypatch.setattr(solver, "SCAN_REL_TOL", cfg.rel_tol)
    monkeypatch.setattr(solver, "SCAN_ABS_TOL", cfg.abs_tol)
    full = find_solutions(spec, cfg, sides=("lower", "upper"))
    assert full and coarse == full

    worst = 0.0
    for coarse_scan, full_scan in zip(scans[:2], scans[2:]):
        assert [d for d, _ in coarse_scan] == [d for d, _ in full_scan]
        gaps = [math.isnan(t) for _, t in coarse_scan]
        assert gaps == [math.isnan(t) for _, t in full_scan]
        worst = max(
            [worst]
            + [abs(a - b) for (_, a), (_, b) in zip(coarse_scan, full_scan)
               if not math.isnan(a)]
        )
    assert 0.0 < worst <= SCAN_MARGIN * spec.pi_p / 4.0


def test_only_nodes_near_a_target_are_shot_again(monkeypatch):
    # Lower side at p = 2: the targets are 2 pi, 3 pi and 4 pi.  One node
    # lands inside the margin below 2 pi, one just outside it, one
    # collapses; nothing crosses a target, so no bisection follows.
    cfg = SolverConfig(d_grid_size=40)
    grid = d_grid(cfg)
    margin = SCAN_MARGIN * math.pi
    inside, outside, gap = grid[10], grid[20], grid[30]
    calls = []

    def fake_shoot(d, spec, cfg=None, *, profile=True):
        calls.append((d, cfg))
        if d == gap:
            raise NearConstantShotError(0.5, 1e-13)
        if d == inside:
            return _FakeEnd(2.0 * math.pi - 0.5 * margin)
        if d == outside:
            return _FakeEnd(2.0 * math.pi - 1.5 * margin)
        return _FakeEnd(1.5 * math.pi)

    monkeypatch.setattr(solver, "shoot", fake_shoot)
    assert find_solutions(ball(), cfg, max_zeros=3, sides=("lower",)) == []
    scan_cfg = SolverConfig(d_grid_size=40, rel_tol=1e-7, abs_tol=1e-9)
    assert calls == [(d, scan_cfg) for d in grid] + [(inside, cfg)]


def test_annulus_solutions_exist_when_wide_enough():
    # A comfortably wide annulus carries one-zero solutions for p < 2.
    spec = ProblemSpec(
        p=1.8, dim=2, domain=Annulus(0.5, 5.0), g=Nonlinearity(q=3.0)
    )
    recs = find_solutions(spec, CFG_COARSE, max_zeros=1, sides=("lower",))
    assert len(recs) >= 1
    for rec in recs:
        assert rec.summary.min_u > 0.0
        assert rec.zeros == 1


def _solve_with_failing_shots(monkeypatch, caplog, fails):
    """Roots of the q = 50 problem with and without ``solver.shoot``
    raising :class:`IntegrationError` where ``fails(d, profile)``.
    """
    cfg = SolverConfig(d_grid_size=100)
    clean = find_solutions(ball(q=50.0), cfg, max_zeros=2)
    real = solver.shoot

    def shoot_or_fail(d, spec, cfg=None, *, profile=True):
        if fails(clean, d, profile):
            raise IntegrationError("injected failure", d)
        return real(d, spec, cfg, profile=profile)

    monkeypatch.setattr(solver, "shoot", shoot_or_fail)
    with caplog.at_level(logging.WARNING, logger="plapshoot.solver"):
        return clean, find_solutions(ball(q=50.0), cfg, max_zeros=2)


def test_a_failed_bisection_shot_skips_only_its_bracket(monkeypatch, caplog):
    # Every shot off the scan grid within 0.01 of the one-zero root
    # fails: that bracket is logged and skipped, the two-zero root kept.
    grid = set(d_grid(SolverConfig(d_grid_size=100)))
    clean, recs = _solve_with_failing_shots(
        monkeypatch,
        caplog,
        lambda clean, d, profile: d not in grid and abs(d - clean[0].d) < 0.01,
    )
    assert [rec.zeros for rec in clean] == [1, 2]
    assert recs == clean[1:]
    assert any("while bisecting a bracket" in msg for msg in caplog.messages)


def test_a_failed_validation_shot_drops_its_candidate(monkeypatch, caplog):
    # The full shot at the two-zero root fails: that candidate is dropped
    # with a warning, the one-zero root kept.
    clean, recs = _solve_with_failing_shots(
        monkeypatch, caplog, lambda clean, d, profile: profile and d == clean[1].d
    )
    assert [rec.zeros for rec in clean] == [1, 2]
    assert recs == clean[:1]
    assert any(
        msg.startswith(f"full shot failed at candidate d={clean[1].d:.17g}")
        for msg in caplog.messages
    )


def _ivp(**kw):
    base = dict(rhs=lambda r, y: y, r_start=0.0, r_end=1.0, y0=(1.0,))
    return IvpSpec(**{**base, **kw})


# Every count and number a caller passes, each as a call that takes
# the value to pass.
_BOOL_INPUTS = {
    "d_grid_size": lambda v: SolverConfig(d_grid_size=v),
    "rel_tol": lambda v: SolverConfig(rel_tol=v),
    "abs_tol": lambda v: SolverConfig(abs_tol=v),
    "residual_tol": lambda v: SolverConfig(residual_tol=v),
    "eps0": lambda v: SolverConfig(eps0=v),
    "dim": lambda v: ProblemSpec(p=2.0, dim=v, domain=Ball(1.0)),
    "eigenvalue k": lambda v: eigenvalue(v, ProblemSpec(p=2.0, dim=1, domain=Ball(1.0))),
    "max_zeros": lambda v: find_solutions(ball(), CFG, max_zeros=v),
    "rstar k": lambda v: rstar(v, ball(p=1.5), CFG_COARSE),
    "onset zeros": lambda v: bifurcation_onset(ball(), v, CFG),
    "ball radius": lambda v: Ball(v),
    "r_inner": lambda v: Annulus(v, 1.0),
    "r_outer": lambda v: Annulus(0.5, v),
    "q": lambda v: Nonlinearity(q=v),
    "r_exp": lambda v: Nonlinearity(q=5.0, r_exp=v),
    "p": lambda v: ProblemSpec(p=v, dim=1, domain=Ball(1.0)),
    "domain": lambda v: ProblemSpec(p=2.0, dim=1, domain=v),
    "g": lambda v: ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=v),
    "phi_p p": lambda v: phi_p(0.5, v),
    "phi_p_inv p": lambda v: phi_p_inv(0.5, v),
    "pi_p p": lambda v: pi_p(v),
    "PTrigContext p": lambda v: PTrigContext(v),
    "get_context p": lambda v: get_context(v),
    "shoot d": lambda v: shoot(v, ball(), CFG),
    "startup_state d": lambda v: startup_state(v, ball(), 1e-8),
    "startup_state eps0": lambda v: startup_state(0.5, ball(), v),
    "eigen_angle lam": lambda v: eigen_angle(v, ball()),
    "eigenfunction lam": lambda v: eigenfunction(v, ball()),
    "rstar r_cap": lambda v: rstar(1, ball(p=1.5), CFG_COARSE, r_cap=v),
    "branch_sweep value": lambda v: branch_sweep(ball(), "q", [12.0, v], CFG),
    "onset q_lo": lambda v: bifurcation_onset(ball(), 1, CFG, q_lo=v),
    "onset q_hi": lambda v: bifurcation_onset(ball(), 1, CFG, q_hi=v),
    "IvpSpec r_start": lambda v: _ivp(r_start=v),
    "IvpSpec r_end": lambda v: _ivp(r_end=v),
    "IvpSpec rel_tol": lambda v: _ivp(rel_tol=v),
    "IvpSpec abs_tol": lambda v: _ivp(abs_tol=v),
}


@pytest.mark.parametrize("call", _BOOL_INPUTS.values(), ids=_BOOL_INPUTS)
def test_a_bool_is_neither_a_count_nor_a_number(call, monkeypatch):
    # isinstance(True, int) holds, yet no count or number takes True
    # for 1; nor a numeric string, NaN, an infinity or an int past the
    # float range.  Each is refused before any integration.
    monkeypatch.setattr(solver, "shoot", None)
    monkeypatch.setattr(odeint, "_run", None)
    for value in (True, "3", math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(SpecError, match="must be"):
            call(value)
