"""Adaptive explicit Runge-Kutta integrator with dense output.

Implements the Dormand-Prince 5(4) pair with a PI step-size controller
and a quartic interpolant on every accepted step.  The integrator is
deliberately self-contained and operates on plain float tuples: the
systems in this package are tiny (two to four components), the right
hand sides are scalar math, and repeated runs must be bit-for-bit
deterministic across processes.

Every Dormand-Prince path of the package runs one step loop,
:func:`_march`, and supplies only the stage sums of a trial step:
:func:`integrate` the generic ones, keeping a dense interpolant per
accepted step, and :func:`end_state` unrolled ones, keeping only the end
state.  :func:`_end_trial` generates those from the tableau, once per
kind of field: the scan and bisection shots of ``plapshoot.radial`` and
the eigenvalue angles of ``plapshoot.eigen`` are its two kinds.

The dense output is what profiles and events build on: event
location (:func:`crossings`) and profile sampling both evaluate the
stored interpolants rather than re-integrating.  Shots that need a
profile (validated solutions, the ``shoot`` command), eigenfunction
profiles and the p-trig table run :func:`integrate`.
Events, eigenvalues and the sweeps in R and q close in on a sign change
with :func:`illinois_bracket`, a safeguarded regula falsi, after
:func:`grow_bracket` where no bracket is given; only the roots in ``d``
still bisect, with :func:`bisect_bracket`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .errors import IntegrationError, SpecError

RhsFunc = Callable[[float, tuple[float, ...]], Sequence[float]]

# Dormand-Prince 5(4) tableau.  Stage seven evaluates the right hand
# side at the accepted endpoint, so it doubles as stage one of the next
# step (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Difference between the fifth and fourth order weights.
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# Interpolant weights: column j of row i multiplies stage i in the
# coefficient of x**(j+1) of the scaled dense polynomial.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423),
)
_P_COLS = tuple(zip(*_P))

# PI controller constants (classic dopri5 settings).  A step is
# divided by a factor in [_FAC_LO, _FAC_HI]: it grows by at most 10
# and shrinks by at most 5.
_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_LO = 1.0 / 10.0
_FAC_HI = 1.0 / 0.2

# Steps after which bisect_bracket and illinois_bracket give up.  A
# bracket of ordinary width reaches adjacent doubles in about 60 halvings.
_BISECT_MAX_ITERS = 200

# crossings closes in to this width relative to max(1, |r|).
_CROSSING_TOL = 1e-12


@dataclass(frozen=True)
class IvpSpec:
    """Initial value problem on a forward interval.

    ``rhs(r, y)`` must return one derivative per component of ``y`` and
    must be free of side effects; the integrator may evaluate it at
    trial points that are later discarded.
    """

    rhs: RhsFunc
    r_start: float
    r_end: float
    y0: tuple[float, ...]
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (math.isfinite(self.r_start) and math.isfinite(self.r_end)):
            raise SpecError("integration interval must be finite")
        if not self.r_end > self.r_start:
            raise SpecError(
                f"need r_end > r_start, got [{self.r_start}, {self.r_end}]"
            )
        if len(self.y0) == 0 or not all(math.isfinite(c) for c in self.y0):
            raise SpecError("initial state must be non-empty and finite")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise SpecError("tolerances must be positive")
        if self.max_steps < 1:
            raise SpecError("max_steps must be at least 1")


@dataclass
class DenseSolution:
    """Accepted mesh plus a quartic interpolant on every interval.

    ``cells[i]`` is ``(rs[i], h, *ys[i], *q_0, *q_1, ...)`` with ``h =
    rs[i+1] - rs[i]`` and ``q_d`` the four polynomial weights of
    component ``d`` on ``[rs[i], rs[i+1]]``.  Inside the interval, with
    ``x = (r - rs[i]) / h``, component ``d`` is ``y[d] + h * x * (q[0] +
    x * (q[1] + x * (q[2] + x * q[3])))``: that is :meth:`eval`, and
    ``plapshoot.ptrig`` unpacks the cells and writes it out inline.
    Instances are built by :func:`integrate` and treated as immutable
    afterwards.
    """

    rs: list[float]
    ys: list[tuple[float, ...]]
    cells: list[tuple[float, ...]]
    n_rhs_evals: int = field(default=0, compare=False)

    @property
    def r_start(self) -> float:
        return self.rs[0]

    @property
    def r_end(self) -> float:
        return self.rs[-1]

    @property
    def y_end(self) -> tuple[float, ...]:
        return self.ys[-1]

    @property
    def n_steps(self) -> int:
        return len(self.rs) - 1

    def eval(self, r: float) -> tuple[float, ...]:
        """Interpolated state at ``r``, which must lie on the mesh span.

        Stored knots are returned exactly; a slack of a few ulp beyond
        either end is clamped rather than rejected so that callers can
        feed back endpoint values they obtained from floating point
        arithmetic.
        """
        rs = self.rs
        if r == rs[-1]:
            return self.ys[-1]
        slack = 1e-12 * max(1.0, abs(rs[0]), abs(rs[-1]))
        if not rs[0] - slack <= r <= rs[-1] + slack:
            raise SpecError(
                f"r={r!r} outside solution range [{rs[0]!r}, {rs[-1]!r}]"
            )
        r = min(max(r, rs[0]), rs[-1])
        cell = self.cells[min(bisect_right(rs, r), len(self.cells)) - 1]
        r_lo, h = cell[0], cell[1]
        x = (r - r_lo) / h
        dim = len(self.ys[0])
        out = []
        for d in range(dim):
            q0, q1, q2, q3 = cell[2 + dim + 4 * d : 6 + dim + 4 * d]
            out.append(cell[2 + d] + h * x * (q0 + x * (q1 + x * (q2 + x * q3))))
        return tuple(out)


def _dot(w, k, d: int) -> float:
    """Sum of ``w[j] * k[j][d]`` over the weights ``w``, left to right.

    Not the builtin ``sum``, which compensates its rounding from Python
    3.12 on: the trial steps of :func:`end_state` add left to right, and
    every path must take the same steps to the last bit on every version.
    """
    acc = 0.0
    for j in range(len(w)):
        acc += w[j] * k[j][d]
    return acc


def _rms(xs, scale) -> float:
    """Root mean square of ``xs[d] / scale[d]``, added left to right."""
    acc = 0.0
    for x, sc in zip(xs, scale):
        acc += (x / sc) ** 2
    return math.sqrt(acc / len(xs))


def _error_norm(err, y_old, y_new, rel_tol, abs_tol) -> float:
    acc = 0.0
    for d in range(len(err)):
        scale = abs_tol + rel_tol * max(abs(y_old[d]), abs(y_new[d]))
        q = err[d] / scale
        acc += q * q
    return math.sqrt(acc / len(err))


def _call_rhs(rhs, r, y, dim) -> tuple[float, ...]:
    f = tuple(rhs(r, y))
    if len(f) != dim:
        raise SpecError(
            f"rhs returned {len(f)} components for a state of dimension {dim}"
        )
    return f


def _initial_step(ivp: IvpSpec, f0) -> float:
    """Cheap two-evaluation guess for the first step size.

    Costs one rhs evaluation at a probe point.  If the guess underflows
    or the probe is not finite (or raises :class:`IntegrationError`),
    the first step is 1e-6 of the interval instead.
    """
    y0 = ivp.y0
    dim = len(y0)
    span = ivp.r_end - ivp.r_start
    scale = [ivp.abs_tol + ivp.rel_tol * abs(c) for c in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = (math.nan,)  # a failed probe
    if h0 > 0.0:
        y1 = tuple(y0[d] + h0 * f0[d] for d in range(dim))
        try:
            f1 = _call_rhs(ivp.rhs, ivp.r_start + h0, y1, dim)
        except IntegrationError:
            pass
    if not all(math.isfinite(c) for c in f1):
        # The guess underflowed or the probe point exploded; start
        # conservatively instead.
        return 1e-6 * span
    d2 = _rms([f1[d] - f0[d] for d in range(dim)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _march(ivp: IvpSpec, trial, keep=None) -> tuple[tuple[float, ...], int, int]:
    """The Dormand-Prince step loop over ``ivp``: every path runs this.

    ``trial(r, h, y, k1)`` makes one trial step of size ``h`` from the
    state ``y`` at ``r``, whose slope is ``k1``, and returns ``(err,
    y_new, k7, evals)``: the scaled error norm (``inf`` when a stage or
    the endpoint was not finite), the endpoint, its slope, and the rhs
    evaluations made.  Each accepted step calls ``keep(r_new, y_new)``
    when given, while ``trial``'s stages are still those of the step.
    Returns ``(y_end, n_steps, n_rhs_evals)``.

    Raises :class:`IntegrationError` when the rhs is not finite at the
    start, the step budget is spent or the step size underflows.
    """
    r = ivp.r_start
    r_end = ivp.r_end
    y = ivp.y0
    k1 = _call_rhs(ivp.rhs, r, y, len(y))
    if not all(math.isfinite(c) for c in k1):
        raise IntegrationError("right hand side not finite at the start", r)
    h = _initial_step(ivp, k1)
    n_evals = 2
    max_steps = ivp.max_steps
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


def integrate(ivp: IvpSpec) -> DenseSolution:
    """Integrate ``ivp`` over its full interval.

    Raises :class:`IntegrationError` when the step budget runs out or
    the right hand side stops returning finite values; the exception
    carries the last abscissa that held a valid state.
    """
    rhs = ivp.rhs
    dim = len(ivp.y0)
    rel_tol = ivp.rel_tol
    abs_tol = ivp.abs_tol
    k = [()] * 7

    def trial(r, h, y, k1):
        # Stages 2..6, then the candidate endpoint and its slope (k7).
        # A non-finite value anywhere means the trial step left the
        # region where the right hand side makes sense; the step loop
        # shrinks it and retries rather than give up.
        k[0] = k1
        for s in range(1, 6):
            a = _A[s]
            ys_stage = tuple(y[d] + h * _dot(a, k, d) for d in range(dim))
            ks = _call_rhs(rhs, r + _C[s] * h, ys_stage, dim)
            if not all(math.isfinite(c) for c in ks):
                return math.inf, None, None, s
            k[s] = ks
        a = _A[6]
        y_new = tuple(y[d] + h * _dot(a, k, d) for d in range(dim))
        if not all(math.isfinite(c) for c in y_new):
            return math.inf, None, None, 5
        k7 = _call_rhs(rhs, r + h, y_new, dim)
        if not all(math.isfinite(c) for c in k7):
            return math.inf, None, None, 6
        k[6] = k7
        err_vec = tuple(h * _dot(_E, k, d) for d in range(dim))
        return _error_norm(err_vec, y, y_new, rel_tol, abs_tol), y_new, k7, 6

    rs = [ivp.r_start]
    ys = [ivp.y0]
    cells: list[tuple[float, ...]] = []

    def keep(r, y):
        # Freeze the interpolant for this interval.
        r_lo = rs[-1]
        cells.append(
            (r_lo, r - r_lo, *ys[-1],
             *(_dot(col, k, d) for d in range(dim) for col in _P_COLS))
        )
        rs.append(r)
        ys.append(y)

    n_evals = _march(ivp, trial, keep)[2]
    return DenseSolution(rs=rs, ys=ys, cells=cells, n_rhs_evals=n_evals)


@lru_cache(maxsize=None)
def _end_trial(dim: int, reads: int, scalar: bool):
    """The trial step of :func:`end_state`, generated from the tableau.

    Returns ``make(field, rel_tol, abs_tol)``, which returns the
    ``trial`` that :func:`_march` expects for a ``dim``-component state
    whose field reads its first ``reads`` components.  The source is
    written from ``_A``, ``_C`` and ``_E`` with the tableau's entries as
    literals: each sum adds its nonzero terms left to right in tableau
    order, as :func:`integrate` does, so both take the same steps to the
    last bit (a dropped zero term can change only the sign of a zero).
    Stage states are formed only for the components the field reads.
    With ``scalar`` (one component) the field returns its slope as a
    float, not a tuple.  Compiled once per kind, on first use.
    """
    ds = range(dim)

    def tup(names):
        return f"({', '.join(names)},)"

    def names(prefix):
        return [f"{prefix}{d}" for d in ds]

    def finite(vals):
        return " and ".join(f"isfinite({v})" for v in vals)

    def summed(weights, d):
        return " + ".join(f"{w!r} * k{j + 1}_{d}" for j, w in enumerate(weights) if w)

    def stage(s, args):
        # Slope k_s at r + c_s h; on a non-finite one, give up after s - 1
        # evaluations.  k7 is kept whole: it is the next step's k1.
        ks = names(f"k{s}_")
        call = f"field(r + {_C[s - 1]!r} * h, {', '.join(args)})"
        if scalar:
            out = [f"{ks[0]} = {call}"]
        elif s < 7:
            out = [f"{tup(ks)} = {call}"]
        else:
            out = [f"k7 = {call}", f"{tup(ks)} = k7"]
        return out + [f"if not ({finite(ks)}):", f"    return inf, None, None, {s - 1}"]

    body = [f"{tup(names('y'))} = y", f"{tup(names('k1_'))} = k1"]
    for s in range(2, 7):
        body += stage(s, [f"y{d} + h * ({summed(_A[s - 1], d)})" for d in range(reads)])
    body += [f"n{d} = y{d} + h * ({summed(_A[6], d)})" for d in ds]
    body += [f"if not ({finite(names('n'))}):", "    return inf, None, None, 5"]
    body += stage(7, names("n")[:reads])
    body += [
        f"q{d} = h * ({summed(_E, d)})"
        f" / (abs_tol + rel_tol * max(abs(y{d}), abs(n{d})))"
        for d in ds
    ]
    norm = " + ".join(f"q{d} * q{d}" for d in ds)
    k7 = "(k7_0,)" if scalar else "k7"
    body.append(f"return sqrt(({norm}) / {dim}), {tup(names('n'))}, {k7}, 6")
    source = (
        "def make(field, rel_tol, abs_tol):\n    def trial(r, h, y, k1):\n"
        + "".join(f"        {line}\n" for line in body)
        + "    return trial\n"
    )
    namespace = {"isfinite": math.isfinite, "inf": math.inf, "sqrt": math.sqrt}
    exec(source, namespace)
    return namespace["make"]


def end_state(
    ivp: IvpSpec, field, reads: int, scalar: bool = False
) -> tuple[tuple[float, ...], int, int]:
    """End of ``ivp`` by Dormand-Prince 5(4), keeping no dense output.

    ``field(r, *y[:reads])`` is ``ivp.rhs`` with the state unpacked, and
    with ``scalar`` it returns the one slope as a float.  Runs
    :func:`_march` with the trial step of :func:`_end_trial`, so it
    takes the steps :func:`integrate` takes and raises what it raises.
    Returns ``(y_end, n_steps, n_rhs_evals)``.
    """
    trial = _end_trial(len(ivp.y0), reads, scalar)(field, ivp.rel_tol, ivp.abs_tol)
    return _march(ivp, trial)


def grow_bracket(
    side: Callable[[float], float], x0: float, x_min: float, x_max: float
) -> tuple[float, float, float, float] | None:
    """Bracket the sign change of an increasing ``side``, starting at ``x0``.

    Doubles x while ``side(x) < 0`` and halves it while ``side(x) >= 0``,
    clamped to ``[x_min, x_max]``.  Returns ``(lo, hi, side(lo),
    side(hi))``, the arguments :func:`illinois_bracket` takes first, or
    ``None`` once a clamped end still has the wrong sign.
    """
    lo = hi = min(max(x0, x_min), x_max)
    f_lo = f_hi = side(hi)
    while f_hi < 0.0:
        if hi >= x_max:
            return None
        lo, f_lo = hi, f_hi
        hi = min(2.0 * hi, x_max)
        f_hi = side(hi)
    while f_lo >= 0.0:
        if lo <= x_min:
            return None
        hi, f_hi = lo, f_lo
        lo = max(0.5 * lo, x_min)
        f_lo = side(lo)
    return lo, hi, f_lo, f_hi


def bisect_bracket(
    side: Callable[[float], float],
    lo: float,
    hi: float,
    side_lo: float,
    done: Callable[[float, float], bool],
) -> float:
    """Bisect ``[lo, hi]`` on the sign of ``side`` and return the midpoint.

    ``side_lo`` is ``side`` at ``lo``, or any number of the same sign:
    only signs are compared, so ``side`` may rise or fall across the
    bracket.  The endpoint whose sign ``side(mid)`` shares moves to
    ``mid``.  The search stops when ``done(lo, hi)`` holds, when ``lo``
    and ``hi`` are adjacent doubles, or after 200 halvings; an exact
    zero of ``side`` is returned at once.

    Its one caller, :func:`plapshoot.solver._bisect_on_angle`, keeps it
    because the benchmark's tests pin that search at 498 shots, 2 of
    them collapsed, on the seed-0 solve.
    """
    lo_negative = side_lo < 0.0
    for _ in range(_BISECT_MAX_ITERS):
        if done(lo, hi):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        s_mid = side(mid)
        if s_mid == 0.0:
            return mid
        if (s_mid < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def illinois_bracket(
    side: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    f_tol: float,
    done: Callable[[float, float], bool],
) -> tuple[float, float]:
    """Find a sign change of ``side`` in ``[lo, hi]`` by Illinois steps.

    ``f_lo`` and ``f_hi`` are the values of ``side`` at ``lo`` and ``hi``,
    of opposite signs.  Each step is a regula falsi step, or the midpoint
    when the secant point is not strictly inside the bracket.  When the
    same end is kept twice in a row, the weight it enters the secant
    with is halved (Dowell and Jarratt, BIT 11, 1971); the weights are
    kept apart from the values, which stay what ``side`` returned.

    Returns ``(x, side(x))`` as soon as ``|side(x)| <= f_tol``.  When
    ``done(lo, hi)`` holds, when ``lo`` and ``hi`` are adjacent doubles,
    or after 200 steps, it returns the endpoint with the smaller
    ``|side|`` and that value: an endpoint and not the midpoint, so that
    a jump in ``side`` ends at the sign change, as bisection does.
    """
    w_lo, w_hi = f_lo, f_hi
    kept = 0  # -1 after lo was kept, +1 after hi was kept
    lo_negative = f_lo < 0.0
    for _ in range(_BISECT_MAX_ITERS):
        if done(lo, hi):
            break
        x = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x <= lo or x >= hi:
                break
        fx = side(x)
        if abs(fx) <= f_tol:
            return x, fx
        if (fx < 0.0) == lo_negative:
            lo, f_lo, w_lo = x, fx, fx
            if kept == 1:
                w_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, w_hi = x, fx, fx
            if kept == -1:
                w_lo *= 0.5
            kept = -1
    if abs(f_lo) <= abs(f_hi):
        return lo, f_lo
    return hi, f_hi


def crossings(
    sol: DenseSolution,
    component: int,
    levels: Sequence[float],
) -> list[tuple[float, float, int]]:
    """Locate where one solution component crosses the given levels.

    Returns ``(r, level, direction)`` triples sorted by ``r``, with
    ``direction`` +1 for an upward crossing and -1 for a downward one.
    Each mesh interval is searched per level by :func:`illinois_bracket`
    on the dense interpolant, down to a width of 1e-12 times
    ``max(1, |r|)``, so crossings are found even where accepted steps
    are long, as long as the component meets each level at most once
    per step.  A crossing sitting exactly on an interior knot is
    reported once.
    """
    if not 0 <= component < len(sol.ys[0]):
        raise SpecError(f"component {component} out of range")
    out: list[tuple[float, float, int]] = []
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
            tol = _CROSSING_TOL * max(1.0, abs(rs[i + 1]))
            r, _ = illinois_bracket(
                lambda r: sol.eval(r)[component] - level,
                rs[i], rs[i + 1], ga, gb, 0.0, lambda lo, hi: hi - lo <= tol,
            )
            out.append((r, level, 1 if ga < 0 else -1))
    out.sort(key=lambda t: t[0])
    return out
