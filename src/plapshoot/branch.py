"""Solution branches under parameter sweeps, and where they begin.

A branch is the set of roots ``d`` of the angle condition followed as
one parameter (the reaction exponent q or the outer radius R) varies.
:func:`branch_sweep` tabulates every validated solution across a sweep
and flags apparent folds, where the root jumps by more than a branch
would move continuously.  :func:`bifurcation_onset` locates, for the
p = 2 family, the exponent at which a branch with a given zero count
detaches from the constant solution; at that point the phase limit
``f'(1)`` crosses the corresponding Neumann eigenvalue, so the onset
has an independent eigenvalue characterization to test against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .config import SolverConfig
from .errors import SearchError, SpecError
from .odeint import illinois_bracket
from .radial import Nonlinearity, ProblemSpec
from .solver import _records_for_side, _theta_end, find_solutions

logger = logging.getLogger(__name__)

# A root moving more than this between adjacent sweep values is not
# treated as continuous branch motion.
_FOLD_JUMP = 0.2

_PARAMS = ("q", "R")


@dataclass(frozen=True)
class BranchPoint:
    """One solution on one branch at one parameter value."""

    param: float
    d: float
    side: str
    zeros: int
    theta_end: float
    residual: float
    fold: bool


@dataclass
class BranchTable:
    """All branch points of a sweep, sorted by (zeros, side, param, d)."""

    param_name: str
    rows: list[BranchPoint]
    metadata: dict = field(default_factory=dict)

    def group(self, zeros: int, side: str) -> list[BranchPoint]:
        """Points of one branch family, in sweep order."""
        return [
            row
            for row in self.rows
            if row.zeros == zeros and row.side == side
        ]


def _spec_with_param(spec: ProblemSpec, name: str, value: float) -> ProblemSpec:
    if name == "q":
        g = Nonlinearity(q=value, r_exp=spec.g.r_exp)
        return ProblemSpec(p=spec.p, dim=spec.dim, domain=spec.domain, g=g)
    return spec.with_outer_radius(value)


def branch_sweep(
    spec: ProblemSpec,
    param_name: str,
    values: list[float],
    cfg: SolverConfig | None = None,
    max_zeros: int = 3,
    sides: tuple[str, ...] = ("lower", "upper"),
) -> BranchTable:
    """Solve the problem at every parameter value and tabulate the roots.

    Values are processed in increasing order.  Within each branch
    family (fixed zero count and side), a point whose ``d`` is farther
    than 0.2 from every root at the previous parameter value is marked
    ``fold=True``: either a second root appeared (folded branch) or the
    branch moved discontinuously, and both deserve a closer look.
    """
    cfg = cfg or SolverConfig()
    if param_name not in _PARAMS:
        raise SpecError(f"param_name must be one of {_PARAMS}, got {param_name!r}")
    if not values:
        raise SpecError("parameter sweep needs at least one value")
    if any(not math.isfinite(v) for v in values):
        raise SpecError("parameter values must be finite")
    spec._require_g()

    rows: list[BranchPoint] = []
    prev_ds: dict[tuple[int, str], list[float]] = {}
    for value in sorted(values):
        recs = find_solutions(
            _spec_with_param(spec, param_name, value), cfg, max_zeros, sides
        )
        ds: dict[tuple[int, str], list[float]] = {}
        for rec in recs:
            family = (rec.zeros, rec.side)
            prev = prev_ds.get(family, [])
            fold = bool(prev) and all(abs(rec.d - pd) > _FOLD_JUMP for pd in prev)
            rows.append(
                BranchPoint(
                    param=value,
                    d=rec.d,
                    side=rec.side,
                    zeros=rec.zeros,
                    theta_end=rec.theta_end,
                    residual=rec.residual,
                    fold=fold,
                )
            )
            ds.setdefault(family, []).append(rec.d)
        prev_ds.update(ds)
    rows.sort(key=lambda row: (row.zeros, row.side, row.param, row.d))
    return BranchTable(
        param_name=param_name,
        rows=rows,
        metadata={
            "p": spec.p,
            "dim": spec.dim,
            "domain": repr(spec.domain),
            "g": spec.g.label(),
            "param_name": param_name,
            "n_values": len(values),
            "max_zeros": max_zeros,
            "sides": list(sides),
        },
    )


def bifurcation_onset(
    spec: ProblemSpec,
    zeros: int,
    cfg: SolverConfig | None = None,
    q_lo: float | None = None,
    q_hi: float | None = None,
) -> float:
    """Exponent q at which the branch with this zero count appears.

    Requires a finite nonzero phase limit, so p = 2: only there does
    the branch detach at a finite exponent.  Illinois steps close in on
    the sign change of h(q) = theta_end(1 - 1e-5; q) - (zeros+1) pi_p,
    the angle of one shot near the constant state, to a relative width
    of 1e-9, and return the end with the smaller |h|.  A solve at
    q (1 + 1e-3) must give a validated solution and one at q (1 - 1e-3)
    none, or :class:`SearchError` is raised, as it is when h does not
    change sign between the endpoints.
    """
    cfg = cfg or SolverConfig()
    spec._require_g()
    if not (isinstance(zeros, int) and zeros >= 1):
        raise SpecError(f"zero count must be an integer >= 1, got {zeros!r}")
    c1 = spec.c1
    if not (math.isfinite(c1) and c1 != 0.0):
        raise SpecError(
            "onset in q requires a finite nonzero phase limit (p = 2);"
            f" this problem has c1={c1!r}"
        )
    floor = spec.g.r_exp_for(spec.p)
    lo = q_lo if q_lo is not None else floor + 0.05
    hi = q_hi if q_hi is not None else 200.0
    if not floor < lo < hi:
        raise SpecError(f"need {floor} < q_lo < q_hi, got ({lo!r}, {hi!r})")
    target = (zeros + 1) * spec.pi_p

    def h(q: float) -> float:
        spec_q = _spec_with_param(spec, "q", q)
        return _theta_end(1.0 - 1e-5, spec_q, cfg) - target

    h_lo, h_hi = h(lo), h(hi)
    if not h_lo < 0.0:
        raise SearchError(f"{zeros}-zero branch already exists at q_lo={lo}")
    if not h_hi > 0.0:
        raise SearchError(f"no {zeros}-zero branch up to q_hi={hi}")
    q_star = illinois_bracket(
        h, lo, hi, h_lo, h_hi, 0.0, lambda a, b: b - a <= 1e-9 * a
    )[0]
    above, below = (
        _records_for_side(_spec_with_param(spec, "q", q), cfg, "lower", [zeros])
        for q in (q_star * (1.0 + 1e-3), q_star * (1.0 - 1e-3))
    )
    if not above or below:
        raise SearchError(f"onset q={q_star!r} not confirmed by solves")
    return q_star
