"""Root searches over the shooting parameter.

A non-constant solution with j interior zeros corresponds to a center
value ``d`` whose shot lands with terminal angle exactly ``(j+1)``
half-periods (starting below the constant state) or ``j`` half-periods
(starting above).  This module scans the terminal angle over a grid of
``d``, brackets the target levels, bisects each bracket down to a
width of ``BISECT_TOL_D``, and re-validates every candidate with a full-accuracy
shot before reporting it.  Scan and bisection shots read only the end
state, so they run the end-state kernel; the validation shot samples
the profile.

Brackets read only which side of each target a scan node lies on, so
:func:`find_solutions` scans at the coarse tolerances ``SCAN_REL_TOL``
and ``SCAN_ABS_TOL`` and shoots again, at the configured ones, only the
nodes within ``SCAN_MARGIN`` half-periods of a target.  The coarse error
is far below that margin, so the brackets, and the roots bisected from
them at the configured tolerances, are those of a full-accuracy scan.

For N = 1 the upper scan ends just past d0, where F(d0) = F(0): no
positive solution starts above it (see :func:`theta_scan`).

Shots that collapse onto the constant state are recorded as gaps in
the scan rather than failures: near ``d = 1`` the phase-plane radius
legitimately falls under the floor (most visibly for p > 2), and the
scan simply cannot bracket inside such a gap.

:func:`rstar` (p < 2) needs no search in the outer radius: it minimises
R_k(d), the radius at which the angle of the shot from d first reaches
(k+1) pi_p, over the lower d range by Brent's search of
:func:`_min_over_d`, on dense shots that stop at the target.  One scan
at the radius found confirms it: the angle must have one peak over the
grid, counting only steps larger than the phase tolerance, and stay
below the target.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, replace

from . import radial
from .config import SolverConfig
from .errors import NumericsError, SearchError, SpecError, check_count, check_number
from .odeint import bisect_bracket, crossings
from .ptrig import pi_p
from .radial import ProblemSpec, ShotSummary, shoot

logger = logging.getLogger(__name__)

_SIDES = ("lower", "upper")

# Scan range on each side of the constant state, and the share of the
# lower grid spaced geometrically toward d = 1.
D_MIN = 1e-4
D_MAX = 1.0 - 1e-6
D_MIN_UPPER = 1.0 + 1e-6
D_MAX_UPPER = 50.0
REFINE_FRACTION = 0.5

# Bisection stops once a bracket in d is this narrow; a validated root's
# terminal angle lies within this many half-periods of its target.
BISECT_TOL_D = 1e-12
PHASE_TOL_FACTOR = 1e-8

# Scan tolerances of find_solutions (never tighter than the configured
# ones), and the margin in half-periods, well above the coarse angle
# error, within which a coarse node is shot again.
SCAN_REL_TOL = 1e-7
SCAN_ABS_TOL = 1e-9
SCAN_MARGIN = 1.0 / 64.0


@dataclass(frozen=True)
class SolutionRecord:
    """One validated non-constant solution found by shooting.

    ``residual`` is the terminal flux relative to the largest flux along
    the shot, so it measures how well the outer Neumann condition is
    met independently of the solution's scale.  The record keeps no
    profile: ``shoot(rec.d, spec, cfg)`` runs the validation shot again
    and returns its trajectory, with a summary equal to ``summary``.
    """

    d: float
    side: str
    zeros: int
    theta_end: float
    residual: float
    summary: ShotSummary


def d_grid(cfg: SolverConfig, side: str = "lower") -> list[float]:
    """Scan grid for the chosen side of the constant state.

    The lower grid mixes uniform coverage of ``(D_MIN, D_MAX)`` with
    points spaced geometrically toward ``d = 1``, where the terminal
    angle moves fastest, ``1 - d`` from 0.5 down to ``1 - D_MAX``; the
    upper grid is geometric in ``d - 1``.  A grid of at least 16 points
    gives each part at least 8.
    """
    if side not in _SIDES:
        raise SpecError(f"side must be one of {_SIDES}, got {side!r}")
    if side == "upper":
        lo = D_MIN_UPPER - 1.0
        hi = D_MAX_UPPER - 1.0
        n = cfg.d_grid_size
        step = (math.log(hi) - math.log(lo)) / (n - 1)
        return [1.0 + math.exp(math.log(lo) + step * i) for i in range(n)]
    n_geo = round(cfg.d_grid_size * REFINE_FRACTION)
    n_uni = cfg.d_grid_size - n_geo
    pts = {D_MIN + (D_MAX - D_MIN) * i / (n_uni - 1) for i in range(n_uni)}
    gap_near = 1.0 - D_MAX
    step = (math.log(0.5) - math.log(gap_near)) / (n_geo - 1)
    pts.update(1.0 - math.exp(math.log(gap_near) + step * i) for i in range(n_geo))
    return sorted(pts)


def _theta_end(d: float, spec: ProblemSpec, cfg: SolverConfig) -> float:
    """End-state terminal angle from ``d``; NaN if the shot fails."""
    try:
        return shoot(d, spec, cfg, profile=False).theta_end
    except NumericsError:
        return math.nan


def _zero_energy_level(spec: ProblemSpec) -> float:
    """The d above 1 with F(d) = F(0), where F(u) = u^q/q - u^r/r.

    That is d0 = (q/r)^(1/(q-r)), here with ``log1p``, which keeps its
    digits as r approaches q.
    """
    spec._require_g()
    q = spec.g.q
    r = spec.g.r_exp_for(spec.p)
    return math.exp(math.log1p((q - r) / r) / (q - r))


def theta_scan(
    spec: ProblemSpec, cfg: SolverConfig | None = None, side: str = "lower"
) -> list[tuple[float, float]]:
    """Terminal angle over the scan grid, as ``(d, theta_end)`` pairs.

    One end-state shot (``shoot(..., profile=False)``) per grid point,
    in grid order; shots that collapse or fail give NaN.

    For N = 1 the upper grid ends at its first node at or above d0 of
    :func:`_zero_energy_level`.  There the energy (p-1)/p |u'|^p + F(u)
    is conserved, on a ball or an annulus, so a shot from d > d0 has
    F(d) > F(0) and reaches u = 0: no positive solution starts there.
    The first node past d0 stays, so that the cell across d0 still
    brackets the roots just below it.  For N > 1 the energy only falls,
    and the whole grid is scanned.
    """
    cfg = cfg or SolverConfig()
    grid = d_grid(cfg, side)
    if side == "upper" and spec.dim == 1:
        grid = grid[: bisect_left(grid, _zero_energy_level(spec)) + 1]
    return [(d, _theta_end(d, spec, cfg)) for d in grid]


def _brackets(
    scan: list[tuple[float, float]], target: float
) -> list[tuple[float, float, float, float]]:
    # Sign changes between consecutive valid scan nodes; NaN nodes break
    # adjacency because the angle is unknown across a collapsed region.
    out = []
    for (d_a, t_a), (d_b, t_b) in zip(scan, scan[1:]):
        if math.isnan(t_a) or math.isnan(t_b):
            continue
        if (t_a - target) * (t_b - target) < 0.0:
            out.append((d_a, d_b, t_a, t_b))
    return out


def _bisect_on_angle(
    spec: ProblemSpec,
    cfg: SolverConfig,
    d_lo: float,
    d_hi: float,
    t_lo: float,
    target: float,
) -> float:
    def side(d: float) -> float:
        try:
            return shoot(d, spec, cfg, profile=False).theta_end - target
        except NumericsError as exc:
            raise SearchError(
                f"shot failed at d={d!r} while bisecting a bracket"
            ) from exc

    return bisect_bracket(
        side, d_lo, d_hi, t_lo - target, lambda lo, hi: hi - lo <= BISECT_TOL_D
    )


def _validated_record(
    spec: ProblemSpec,
    cfg: SolverConfig,
    d_root: float,
    side: str,
    zeros: int,
    target: float,
    phase_tol: float,
) -> SolutionRecord | None:
    try:
        traj, summ = shoot(d_root, spec, cfg)
    except NumericsError as exc:
        logger.warning("full shot failed at candidate d=%.17g: %s", d_root, exc)
        return None
    v_scale = max(abs(v) for v in traj.v)
    residual = abs(summ.v_end) / v_scale if v_scale > 0.0 else math.inf
    problems = []
    if abs(summ.theta_end - target) > phase_tol:
        problems.append(
            f"terminal angle off target by {abs(summ.theta_end - target):.3e}"
        )
    if summ.zeros != zeros:
        problems.append(f"zero count {summ.zeros} != {zeros}")
    if not summ.min_u > 0.0:
        problems.append(f"profile not positive (min u = {summ.min_u:.3e})")
    if residual > cfg.residual_tol:
        problems.append(f"flux residual {residual:.3e}")
    if not summ.max_u - summ.min_u > 1e-6:
        problems.append("profile indistinguishable from constant")
    if problems:
        logger.warning(
            "rejecting candidate d=%.17g (side=%s, zeros=%d): %s",
            d_root,
            side,
            zeros,
            "; ".join(problems),
        )
        return None
    return SolutionRecord(
        d=d_root,
        side=side,
        zeros=zeros,
        theta_end=summ.theta_end,
        residual=residual,
        summary=summ,
    )


def _scan_for_targets(
    spec: ProblemSpec, cfg: SolverConfig, side: str, targets: list[float]
) -> list[tuple[float, float]]:
    """``theta_scan`` at the coarse tolerances, re-shot at ``cfg``'s near a target."""
    coarse = replace(
        cfg,
        rel_tol=max(cfg.rel_tol, SCAN_REL_TOL),
        abs_tol=max(cfg.abs_tol, SCAN_ABS_TOL),
    )
    scan = theta_scan(spec, coarse, side)
    if coarse == cfg:
        return scan
    margin = SCAN_MARGIN * pi_p(spec.p)
    return [
        (d, _theta_end(d, spec, cfg))
        if any(abs(t - target) <= margin for target in targets)
        else (d, t)
        for d, t in scan
    ]


def _records_for_side(
    spec: ProblemSpec,
    cfg: SolverConfig,
    side: str,
    zero_counts: list[int],
) -> list[SolutionRecord]:
    pip = pi_p(spec.p)
    phase_tol = PHASE_TOL_FACTOR * pip
    targets = [(j + 1) * pip if side == "lower" else j * pip for j in zero_counts]
    scan = _scan_for_targets(spec, cfg, side, targets)
    records = []
    for j, target in zip(zero_counts, targets):
        for d_a, d_b, t_a, _ in _brackets(scan, target):
            try:
                d_root = _bisect_on_angle(spec, cfg, d_a, d_b, t_a, target)
            except SearchError as exc:
                logger.warning("%s", exc)
                continue
            rec = _validated_record(
                spec, cfg, d_root, side, j, target, phase_tol
            )
            if rec is not None:
                records.append(rec)
    return records


def find_solutions(
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    max_zeros: int = 3,
    sides: tuple[str, ...] = ("lower",),
) -> list[SolutionRecord]:
    """All validated solutions with 1..max_zeros interior zeros.

    Scans each requested side once, then brackets and bisects every
    target angle; ``sides`` must be a nonempty tuple of side names
    without repeats.
    Candidates that fail re-validation (wrong zero count, poor Neumann
    residual, loss of positivity) are logged and dropped rather than
    reported.  Records are sorted by zero count, then side, then ``d``.
    """
    cfg = cfg or SolverConfig()
    check_count(max_zeros, 1, "max_zeros")
    if isinstance(sides, str):
        raise SpecError(
            f"sides must be a tuple of side names such as ('lower',),"
            f" got the string {sides!r}"
        )
    for side in sides:
        if side not in _SIDES:
            raise SpecError(f"side must be one of {_SIDES}, got {side!r}")
    if not sides or len(set(sides)) != len(sides):
        raise SpecError(f"need one or more distinct sides, got {sides!r}")
    records = []
    for side in sides:
        records.extend(
            _records_for_side(spec, cfg, side, list(range(1, max_zeros + 1)))
        )
    records.sort(key=lambda rec: (rec.zeros, rec.side, rec.d))
    return records


def _min_over_d(f) -> float:
    """Min of ``f(d)`` over [D_MIN, D_MAX] by Brent's bounded search (Brent 1973, ch. 5).

    x is the best d so far, w the second best and v the previous w.  Each step
    goes to the vertex of the parabola through the three, or by golden section
    into the larger part of [a, b] when that vertex is unsafe or one of the three
    is inf, a failed shot.  It stops once x lies within half of 1e-6 of both ends.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    tol = 2.5e-7
    a, b = D_MIN, D_MAX
    x = w = v = a + golden * (b - a)
    f_x = f_w = f_v = f(x)
    step = last = 0.0
    while max(x - a, b - x) > 2.0 * tol:
        before, last = last, step
        mid = 0.5 * (a + b)
        p = q = 0.0
        if abs(before) > tol and math.inf not in (f_x, f_w, f_v):
            r = (x - w) * (f_x - f_v)
            q = (x - v) * (f_x - f_w)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
        if abs(p) < abs(0.5 * q * before) and q * (a - x) < p < q * (b - x):
            step = p / q
            if min(x + step - a, b - x - step) < 2.0 * tol:
                step = math.copysign(tol, mid - x)
        else:
            last = (a if x >= mid else b) - x
            step = golden * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        f_u = f(u)
        if f_u <= f_x:
            a, b = (x, b) if u >= x else (a, x)
            v, f_v, w, f_w, x, f_x = w, f_w, x, f_x, u, f_u
        else:
            a, b = (u, b) if u < x else (a, u)
            if f_u <= f_w or w == x:
                v, f_v, w, f_w = w, f_w, u, f_u
            elif f_u <= f_v or v in (x, w):
                v, f_v = u, f_u
    return f_x


def rstar(
    k: int, spec: ProblemSpec, cfg: SolverConfig | None = None, r_cap: float = 1e4
) -> float:
    """Smallest outer radius at which k-zero solutions appear (p < 2).

    There the terminal angle of shots near the constant state flattens
    out, and the threshold is the least over d of R_k(d), where the angle
    of the shot from d first reaches (k+1) pi_p, by the Brent search of
    :func:`_min_over_d` over shots that start where those of ``spec`` do
    and stop there (``integrate`` with ``until``) or at max(R, r_cap),
    where R_k(d) = inf, as for a failed shot.  An N = 1 annulus keeps its
    radius ratio: its equation is autonomous, so R_k(d) is the width
    reached over one minus that ratio.  An annulus with N > 1 is a
    :class:`SpecError`.  A scan at R* must show one peak, counting only
    steps above the phase tolerance, and no node above the target by more
    than it, or :class:`SearchError` is raised, as it is when no shot
    reaches the target.
    """
    cfg = cfg or SolverConfig()
    check_count(k, 1, "zero count")
    check_number(r_cap, "r_cap", above=0.0)
    if spec.c1 != 0.0:
        raise SpecError(
            "threshold radius requires a vanishing phase limit (p < 2);"
            f" this problem has c1={spec.c1!r}"
        )
    if spec.dim > 1 and not spec.is_ball:
        raise SpecError(f"threshold radius on an annulus needs N = 1, got N={spec.dim!r}")
    target = (k + 1) * spec.pi_p
    r_in = 0.0 if spec.is_ball else spec.domain.r_inner
    scale = 1.0 - r_in / spec.r_outer
    r_max = max(spec.r_outer, r_cap)

    def reach(d: float) -> float:
        # R_k(d), through radial's integrate, which the benchmark's tracer wraps.
        try:
            ivp = replace(radial._shot_start(d, spec, cfg), r_end=r_in + scale * r_max)
            hits = crossings(radial.integrate(ivp, until=target), 2, [target])
        except NumericsError:
            return math.inf
        return (hits[0][0] - r_in) / scale if hits else math.inf

    r_hat = _min_over_d(reach)
    if r_hat == math.inf:
        raise SearchError(f"no threshold for {k}-zero solutions up to outer radius {r_max!r}")
    scan = theta_scan(spec.with_outer_radius(r_hat), cfg)
    phase_tol = PHASE_TOL_FACTOR * spec.pi_p
    ts = [-math.inf] + [t for _, t in scan if not math.isnan(t)] + [-math.inf]
    rises = [b > a for a, b in zip(ts, ts[1:]) if abs(b - a) > phase_tol]
    peaks = sum(up and not nxt for up, nxt in zip(rises, rises[1:]))
    if peaks != 1 or max(ts) > target + phase_tol:
        raise SearchError(f"theta_end at R={r_hat!r} is not single-peaked")
    return r_hat
