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

Shots that collapse onto the constant state are recorded as gaps in
the scan rather than failures: near ``d = 1`` the phase-plane radius
legitimately falls under the floor (most visibly for p > 2), and the
scan simply cannot bracket inside such a gap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .config import SolverConfig
from .errors import NumericsError, SearchError, SpecError
from .odeint import bisect_bracket, grow_bracket, illinois_bracket
from .ptrig import pi_p
from .radial import ProblemSpec, ShotSummary, Trajectory, shoot

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
    met independently of the solution's scale.
    """

    d: float
    side: str
    zeros: int
    theta_end: float
    residual: float
    trajectory: Trajectory
    summary: ShotSummary


def d_grid(cfg: SolverConfig, side: str = "lower") -> list[float]:
    """Scan grid for the chosen side of the constant state.

    The lower grid mixes uniform coverage of ``(D_MIN, D_MAX)`` with
    points spaced geometrically toward ``d = 1``, where the terminal
    angle moves fastest; the upper grid is geometric in ``d - 1``.
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
    pts: set[float] = set()
    if n_uni >= 2:
        for i in range(n_uni):
            pts.add(D_MIN + (D_MAX - D_MIN) * i / (n_uni - 1))
    if n_geo >= 2:
        gap_near = 1.0 - D_MAX
        gap_far = min(0.5, 1.0 - D_MIN)
        step = (math.log(gap_far) - math.log(gap_near)) / (n_geo - 1)
        for i in range(n_geo):
            pts.add(1.0 - math.exp(math.log(gap_near) + step * i))
    return sorted(pts)


def _theta_end(
    d: float, spec: ProblemSpec, cfg: SolverConfig, failed: float = math.nan
) -> float:
    """End-state terminal angle from ``d``; ``failed`` if the shot fails."""
    try:
        return shoot(d, spec, cfg, profile=False).theta_end
    except NumericsError:
        return failed


def theta_scan(
    spec: ProblemSpec, cfg: SolverConfig | None = None, side: str = "lower"
) -> list[tuple[float, float]]:
    """Terminal angle over the scan grid, as ``(d, theta_end)`` pairs.

    One end-state shot (``shoot(..., profile=False)``) per grid point,
    in grid order; shots that collapse or fail give NaN.
    """
    cfg = cfg or SolverConfig()
    return [(d, _theta_end(d, spec, cfg)) for d in d_grid(cfg, side)]


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
        trajectory=traj,
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
    if not (isinstance(max_zeros, int) and max_zeros >= 1):
        raise SpecError(f"max_zeros must be an integer >= 1, got {max_zeros!r}")
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


def _max_theta_end(spec: ProblemSpec, cfg: SolverConfig) -> float:
    """Golden-section max of theta_end over d; failed shots count as -inf."""
    a, b = D_MIN, D_MAX
    x = a + (math.sqrt(5.0) - 1.0) / 2.0 * (b - a)
    t_x = _theta_end(x, spec, cfg, -math.inf)
    while b - a > 1e-6:
        y = a + b - x
        t_y = _theta_end(y, spec, cfg, -math.inf)
        if t_y > t_x:
            a, b = (x, b) if y > x else (a, x)
            x, t_x = y, t_y
        else:
            a, b = (a, y) if y > x else (y, b)
    return t_x


def rstar(
    k: int,
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    r_cap: float = 1e4,
) -> float:
    """Smallest outer radius at which k-zero solutions appear.

    Only meaningful in the regime where the terminal angle of shots
    near the constant state flattens out (p < 2): there, solutions with
    k interior zeros exist precisely beyond a threshold radius.  The
    domain shape of ``spec`` is kept (annuli keep their radius ratio).
    g(R) = max_d theta_end(d; R) - (k+1) pi_p, the maximum taken by
    golden section, is bracketed from the radius R of ``spec`` within
    [1e-6 R, max(R, r_cap)] and closed in on by Illinois steps to a
    relative width of 1.5e-3; the end with the smaller |g| is returned.
    That assumes one peak in d, which a scan at the returned R confirms
    (one local maximum, none of its nodes above the golden one), or
    :class:`SearchError` is raised, as it is when g keeps its sign.
    """
    cfg = cfg or SolverConfig()
    if not (isinstance(k, int) and k >= 1):
        raise SpecError(f"zero count must be an integer >= 1, got {k!r}")
    if not (math.isfinite(r_cap) and r_cap > 0.0):
        raise SpecError(f"r_cap must be finite and > 0, got {r_cap!r}")
    if spec.c1 != 0.0:
        raise SpecError(
            "threshold radius requires a vanishing phase limit (p < 2);"
            f" this problem has c1={spec.c1!r}"
        )
    target = (k + 1) * pi_p(spec.p)

    def g(r_outer: float) -> float:
        return _max_theta_end(spec.with_outer_radius(r_outer), cfg) - target

    r0 = spec.r_outer
    bracket = grow_bracket(g, r0, 1e-6 * r0, max(r0, r_cap))
    if bracket is None:
        raise SearchError(
            f"no threshold for {k}-zero solutions between outer radii"
            f" {1e-6 * r0!r} and {max(r0, r_cap)!r}"
        )
    r_hat = illinois_bracket(g, *bracket, 0.0, lambda a, b: b - a <= 1.5e-3 * a)[0]
    spec_hat = spec.with_outer_radius(r_hat)
    scan = theta_scan(spec_hat, cfg)
    ts = [-math.inf] + [t for _, t in scan if not math.isnan(t)] + [-math.inf]
    rises = [b > a for a, b in zip(ts, ts[1:]) if a != b]
    peaks = sum(up and not nxt for up, nxt in zip(rises, rises[1:]))
    if peaks != 1 or max(ts) > _max_theta_end(spec_hat, cfg):
        raise SearchError(f"theta_end at R={r_hat!r} is not single-peaked")
    return r_hat
