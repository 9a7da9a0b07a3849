"""Adaptive explicit Runge-Kutta integrator with dense output.

Implements the Dormand-Prince 5(4) pair with a PI step-size controller
and a quartic interpolant on every accepted step.  The integrator is
deliberately self-contained and operates on plain float tuples: the
systems in this package are tiny (two to four components), the right
hand sides are scalar math, and repeated runs must be bit-for-bit
deterministic across processes.

Every Dormand-Prince path of the package runs one step loop, a march
that :func:`_end_trial` generates per field from the tableau, with the
body of the field pasted into every stage and the PI controller around
them, so that no step calls a function for its slope or its trial.  A
field is written once, as a body of statements, and
:func:`compile_field` turns it into the callable of :class:`IvpSpec`,
which carries the march that :func:`end_state` runs, keeping only the
end state; :func:`_run` starts both.  The shots of ``plapshoot.radial``
(one body for N = 1, one for N > 1) and the eigenvalue angles of
``plapshoot.eigen`` are written so.  Before a body is compiled, once
per folded text, :func:`_fold` folds out the constants equal to 1
(``x ** k``, ``k * x`` and ``copysign(abs(x) ** k, x)`` become ``x``),
to 0 (``x * y ** k`` becomes ``x``) and to an even integer
(``abs(x) ** k`` becomes ``x ** k``): exact for every double, so that a
shot at p = 2 pays for none of its unit exponents and no ``abs`` in its
stages, and the eigenvalue angle at N = 1 for none of its weights
``r ** 0``.  Squares stay ``x ** 2.0``, which differs from ``x * x`` in
the last bit for some doubles.  :func:`integrate` runs the dense
variant of the march, which also appends each accepted step and its
interpolant weights to the solution, for the one-line body that calls
``IvpSpec.rhs``.

The dense output is what profiles and events build on: event
location (:func:`crossings`) and profile sampling both evaluate the
stored interpolants rather than re-integrating.  Shots that need a
profile (validated solutions, the ``shoot`` command), eigenfunction
profiles, the p-trig table and the shots of ``rstar``, which ``until``
stops where their angle reaches its target, run :func:`integrate`.
Events, eigenvalues and the sweep in q close in on a sign change with
:func:`illinois_bracket`, a safeguarded regula falsi, after :func:`grow_bracket`
where no bracket is given; only the roots in ``d`` still bisect, with :func:`bisect_bracket`.
"""

from __future__ import annotations

import ast
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .errors import IntegrationError, SpecError, check_number

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

# Step attempts, accepted or rejected, after which a march gives up.
MAX_STEPS = 1_000_000


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

    def __post_init__(self):
        check_number(self.r_start, "r_start")
        check_number(self.r_end, "r_end", above=self.r_start)
        if len(self.y0) == 0 or not all(math.isfinite(c) for c in self.y0):
            raise SpecError("initial state must be non-empty and finite")
        check_number(self.rel_tol, "rel_tol", above=0.0)
        check_number(self.abs_tol, "abs_tol", above=0.0)


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


def _rms(xs, scale) -> float:
    """Root mean square of ``xs[d] / scale[d]``, added left to right."""
    acc = 0.0
    for x, sc in zip(xs, scale):
        acc += (x / sc) ** 2
    return math.sqrt(acc / len(xs))


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
    or the probe is not finite (or raises :class:`IntegrationError`), or
    a scaled value squares past the float range (``abs_tol`` below about
    1e-155), the first step is 1e-6 of the interval instead.
    """
    y0 = ivp.y0
    dim = len(y0)
    span = ivp.r_end - ivp.r_start
    scale = [ivp.abs_tol + ivp.rel_tol * abs(c) for c in y0]
    try:
        d0 = _rms(y0, scale)
        d1 = _rms(f0, scale)
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = (math.nan,)  # a failed probe
        if h0 > 0.0:
            y1 = tuple(y0[d] + h0 * f0[d] for d in range(dim))
            f1 = _call_rhs(ivp.rhs, ivp.r_start + h0, y1, dim)
        if all(math.isfinite(c) for c in f1):
            d2 = _rms([f1[d] - f0[d] for d in range(dim)], scale) / h0
            if max(d1, d2) <= 1e-15:
                h1 = max(1e-6, h0 * 1e-3)
            else:
                h1 = (0.01 / max(d1, d2)) ** 0.2
            return min(100 * h0, h1, span)
    except (IntegrationError, OverflowError):
        pass
    # The guess underflowed, the probe point exploded or a square
    # overflowed; start conservatively instead.
    return 1e-6 * span


def _run(ivp: IvpSpec, march, *dense) -> tuple[tuple[float, ...], int, int]:
    """``march`` over ``ivp`` after the start-up that every path shares.

    The start-up takes the slope at the start, two rhs evaluations with
    the probe of :func:`_initial_step`, and raises
    :class:`IntegrationError` when that slope is not finite.
    ``MAX_STEPS`` is read here, at each call.
    """
    k1 = _call_rhs(ivp.rhs, ivp.r_start, ivp.y0, len(ivp.y0))
    if not all(math.isfinite(c) for c in k1):
        raise IntegrationError("right hand side not finite at the start", ivp.r_start)
    h = _initial_step(ivp, k1)
    y, n_steps, n_evals = march(
        ivp.r_start, ivp.r_end, ivp.y0, k1, h, ivp.rel_tol, ivp.abs_tol, MAX_STEPS, *dense
    )
    return y, n_steps, n_evals + 2


def integrate(ivp: IvpSpec, until: float = math.inf) -> DenseSolution:
    """Integrate ``ivp`` until its last component reaches ``until``, or over its interval.

    Runs the dense march that :func:`_end_trial` generates for the
    one-line body that calls ``ivp.rhs``, so every stage calls
    ``ivp.rhs`` and the steps are those of :func:`end_state`, up to the
    first accepted step whose last component is at least ``until`` (no
    step if the start is, or ``until`` is NaN).  The number of components
    ``ivp.rhs`` returns is checked, with :class:`SpecError`, at the start
    and at the first-step probe only; a later stage that returns the
    wrong number raises the ``ValueError`` of the tuple unpacking.

    Raises :class:`IntegrationError` when the step budget runs out or
    the right hand side stops returning finite values; the exception
    carries the last abscissa that held a valid state.
    """
    dim = len(ivp.y0)
    reads = tuple(f"y{d}" for d in range(dim))
    body = f"{''.join(f'f{d}, ' for d in range(dim))}= field(r, ({', '.join(reads)},))"
    march = _end_trial(reads, (body,), ("field",), dense=True)(field=ivp.rhs).march
    rs = [ivp.r_start]
    ys = [ivp.y0]
    cells: list[tuple[float, ...]] = []
    n_evals = _run(ivp, march, rs, ys, cells, until)[2]
    return DenseSolution(rs=rs, ys=ys, cells=cells, n_rhs_evals=n_evals)


# A slope name of a field body, which each stage renames, and a read of
# the radius, which a stage may replace by its value.
_SLOPE = re.compile(r"\bf(\d+)\b")
_RADIUS = re.compile(r"(?<![\w.])r\b")


def compile_field(reads: Sequence[str], body: Sequence[str], **consts) -> RhsFunc:
    """The right hand side ``rhs(r, y)`` written once as ``body``.

    ``body`` is a sequence of statements.  It reads ``r``, the first
    ``len(reads)`` components of the state under the names ``reads``,
    ``inf``, the builtins and the names of ``consts``, which are bound
    here; it assigns one slope ``f0``, ``f1``, ... per component (one
    that assigns none, or skips one, is a :class:`SpecError`) and may
    raise.  A slope that overflows is set to inf: the step rejects a
    trial whose stage is not finite.  Names that begin with an
    underscore belong to the generated code, and ``copysign`` names
    :func:`math.copysign`.  ``rhs.march(r, r_end, y, k1, h, rel_tol,
    abs_tol, max_steps)``, the step loop of :func:`end_state` with the
    body pasted into every stage, steps from the state ``y`` at ``r``,
    whose slope is ``k1``, with the first step ``h``, and returns
    ``(y_end, n_steps, n_rhs_evals)``, its own evaluations only.
    :func:`_fold` first folds the constants equal to 1, to 0 or to an
    even integer out of the body with the same bits, and
    :func:`_end_trial` compiles both, once per folded text, on first use.
    """
    body = _fold(tuple(body), *_fold_classes(consts))
    return _end_trial(tuple(reads), body, tuple(consts))(**consts)


def _fold_classes(consts: dict) -> tuple[frozenset, frozenset, frozenset]:
    """The names of ``consts`` equal to 1, to an even integer and to 0.

    Only an ``int`` or a ``float`` counts, not a ``bool``.
    """
    numbers = [(name, value) for name, value in consts.items() if type(value) in (int, float)]
    return (
        frozenset([name for name, value in numbers if value == 1]),
        frozenset([name for name, value in numbers if value % 2 == 0]),
        frozenset([name for name, value in numbers if value == 0]),
    )


class _ExactFold(ast.NodeTransformer):
    """Rewrites an expression tree with the names in ``units`` equal to 1,
    those in ``evens`` equal to even integers and those in ``zeros`` to 0.
    """

    def __init__(self, units: frozenset, evens: frozenset, zeros: frozenset):
        self.units, self.evens, self.zeros = units, evens, zeros

    def visit_BinOp(self, node):
        self.generic_visit(node)
        match node:
            case ast.BinOp(x, ast.Pow(), ast.Name(k)) if k in self.units:
                return x
            case ast.BinOp(ast.Name(k), ast.Mult(), x) if k in self.units:
                return x
            case ast.BinOp(x, ast.Mult(), ast.BinOp(ast.Name(), ast.Pow(), ast.Name(k))):
                if k in self.zeros:
                    return x
            case ast.BinOp(ast.Call(ast.Name("abs"), [x], []), ast.Pow(), ast.Name(k)):
                if k in self.evens:
                    node.left = x
        return node

    def visit_Call(self, node):
        # The signed power copysign(abs(x) ** k, x).
        match node:
            case ast.Call(
                func=ast.Name("copysign"),
                args=[
                    ast.BinOp(ast.Call(ast.Name("abs"), [ast.Name(x)], []), ast.Pow(), ast.Name(k)),
                    ast.Name(y) as arg,
                ],
                keywords=[],
            ) if x == y and k in self.units:
                return arg
        self.generic_visit(node)
        return node


@lru_cache(maxsize=None)
def _fold(body: tuple, units: frozenset, evens: frozenset, zeros: frozenset) -> tuple:
    """``body`` with the constants named in ``units``, ``evens`` and ``zeros`` folded out.

    ``units`` name constants equal to 1: ``x ** k``, ``k * x`` and the
    signed power ``copysign(abs(x) ** k, x)`` become ``x``.  ``evens``
    name even integers: ``abs(x) ** k`` becomes ``x ** k``, as float
    ``**`` takes the absolute value of a negative base itself there.
    ``zeros`` name 0, 0.0 or -0.0: ``x * y ** k``, with ``y`` a name,
    becomes ``x``, as ``y ** k`` is 1.0 and raises nothing.  Each rewrite
    gives the bits of the expression it replaces, or raises what it
    raises, for every double, ±0.0, subnormals, ±inf and NaN included;
    only the sign of a NaN may differ, which no finiteness test sees.
    Squares are not multiplied out: ``x ** 2.0`` and ``x * x`` differ in
    the last bit for some doubles.
    """
    if not units and not evens and not zeros:
        return body
    tree = _ExactFold(units, evens, zeros).visit(ast.parse("\n".join(body)))
    return tuple(ast.unparse(tree).splitlines())


@lru_cache(maxsize=None)
def _end_trial(reads: tuple, body: tuple, consts: tuple, dense: bool = False):
    """Both forms of a field, generated from its body and the tableau.

    Returns ``make(**consts)``, which returns the callable of
    :func:`compile_field` with its march, for one component per slope of
    ``body``, once per text: bodies that :func:`compile_field` folds to
    the same text share a compile.  The march is the one Dormand-Prince
    step loop of the package: the step budget, the cut to
    ``r_end``, the underflow check, the seven stages of a trial step and
    the PI controller, with the state and the slope of the last stage
    (FSAL) kept in locals.  A non-finite error shrinks the step by 4, a
    rejected one by the error's fifth root, and the step after a
    rejection does not grow.  The stages are written from ``_A``, ``_C``
    and ``_E`` with the tableau's entries as literals: each sum adds its
    nonzero terms left to right in tableau order, and not by the builtin
    ``sum``, which compensates its rounding from Python 3.12 on, so that
    every version takes the same steps to the last bit.  Each stage sets
    the components the body reads, and ``r`` where the body reads it
    more than once (a single read takes the value in place), then runs
    the body with its slopes renamed to the stage's.  A value ``x`` is
    finite when ``x * 0.0`` is zero, and ``max`` is a conditional
    expression: the verdicts and bits of ``isfinite`` and ``max``,
    without a call.

    With ``dense``, the march is that of :func:`integrate`: it takes the
    lists ``rs``, ``ys`` and ``cells`` of a :class:`DenseSolution` and
    ``until`` as four more arguments and appends every accepted step to
    them, with the four interpolant weights per component of its cell
    summed from ``_P`` in the same way, while the last component is below ``until``.
    """
    named = [node for node in ast.walk(ast.parse("\n".join(body))) if isinstance(node, ast.Name)]
    radius_reads = sum(node.id == "r" for node in named)
    stored = [node.id for node in named if isinstance(node.ctx, ast.Store)]
    slopes = {int(name[1:]) for name in stored if _SLOPE.fullmatch(name)}
    dim = len(slopes)
    if not slopes or slopes != set(range(dim)):
        raise SpecError(f"a field body must assign the slopes f0, f1, ..., not {sorted(slopes)}")
    ds = range(dim)

    def tup(names):
        return f"({', '.join(names)},)"

    def names(prefix):
        return [f"{prefix}{d}" for d in ds]

    def shrink(h):
        return [f"    _h = {h}", "    _rejected = True", "    continue"]

    def reject(vals, evals):
        # A stage or endpoint that is not finite rejects the trial after
        # ``evals`` evaluations and shrinks the step by 4.
        test = " + ".join(f"{v} * 0.0" for v in vals) + " == 0.0"
        return [f"if not {test}:", f"    _evals += {evals}", *shrink("_h * 0.25")]

    def summed(weights, d):
        return " + ".join(f"{w!r} * _k{j + 1}_{d}" for j, w in enumerate(weights) if w)

    def stage(s, states):
        # Slope k_s at r + c_s h.
        r = f"_r + {_C[s - 1]!r} * _h"
        out = [f"r = {r}"] if radius_reads > 1 else []
        out += [f"{name} = {state}" for name, state in zip(reads, states)]
        for line in body:
            if radius_reads == 1:
                line = _RADIUS.sub(f"({r})", line)
            out.append(_SLOPE.sub(rf"_k{s}_\1", line))
        return out + reject(names(f"_k{s}_"), s - 1)

    loop = [
        "if _attempts >= _max_steps:",
        "    raise _fail(f'exceeded max_steps={_max_steps}', _r)",
        "_attempts += 1",
        "if _r_end - _r < _h:",
        "    _h = _r_end - _r",
        "if _h <= 1e-300 or _h <= abs(_r) * 1e-15:",
        "    raise _fail('step size underflow', _r)",
    ]
    for s in range(2, 7):
        loop += stage(s, [f"_y{d} + _h * ({summed(_A[s - 1], d)})" for d in range(len(reads))])
    loop += [f"_n{d} = _y{d} + _h * ({summed(_A[6], d)})" for d in ds]
    loop += reject(names("_n"), 5)
    loop += stage(7, names("_n"))
    loop.append("_evals += 6")
    for d in ds:
        loop += [
            f"_a{d} = abs(_y{d})",
            f"_b{d} = abs(_n{d})",
            f"_q{d} = _h * ({summed(_E, d)})"
            f" / (_abs_tol + _rel_tol * (_a{d} if _a{d} >= _b{d} else _b{d}))",
        ]
    norm = " + ".join(f"_q{d} * _q{d}" for d in ds)
    loop += [
        f"_err = _sqrt(({norm}) / {dim})",
        "if _err <= 1.0:",
        f"    _fac = (_err ** {_EXPO!r} / _facold ** {_BETA!r} if _err > 0 else {_FAC_LO!r})"
        f" / {_SAFETY!r}",
        f"    _fac = {_FAC_LO!r} if _fac < {_FAC_LO!r} else {_FAC_HI!r} if _fac > {_FAC_HI!r}"
        " else _fac",
    ]
    advance = "    _r = _r_end if _h >= (_r_end - _r) else _r + _h"
    if dense:
        cell = ["_r_lo", "_r - _r_lo", *names("_y")]
        cell += [summed(col, d) for d in ds for col in zip(*_P)]
        loop += [
            "    _r_lo = _r",
            advance,
            f"    _cells.append({tup(cell)})",
            "    _rs.append(_r)",
            f"    _ys.append({tup(names('_n'))})",
        ]
    else:
        loop.append(advance)
    loop += [f"    _y{d} = _n{d}" for d in ds] + [f"    _k1_{d} = _k7_{d}" for d in ds]
    loop += [
        "    _steps += 1",
        "    _h_next = _h / _fac",
        "    _h = min(_h_next, _h) if _rejected else _h_next",
        "    _facold = _err if _err > 0.0001 else 0.0001",
        "    _rejected = False",
        "elif _err < inf:",
        *shrink(f"_h / min({_FAC_HI!r}, _err ** {_EXPO!r} / {_SAFETY!r})"),
        "else:",
        *shrink("_h * 0.25"),
    ]
    rhs = [f"{name} = _y[{d}]" for d, name in enumerate(reads)] + list(body)
    args = "_r, _r_end, _y, _k1, _h, _rel_tol, _abs_tol, _max_steps"
    source = "".join(
        [
            f"def make({', '.join(consts)}):\n",
            "    def rhs(r, _y):\n",
            *(f"        {line}\n" for line in rhs),
            f"        return {tup(names('f'))}\n",
            f"    def march({args}{', _rs, _ys, _cells, _until' if dense else ''}):\n",
            f"        {tup(names('_y'))} = _y\n",
            f"        {tup(names('_k1_'))} = _k1\n",
            "        _facold = 0.0001\n",
            "        _rejected = False\n",
            "        _attempts = _steps = _evals = 0\n",
            f"        while _r < _r_end{f' and _y{dim - 1} < _until' if dense else ''}:\n",
            *(f"            {line}\n" for line in loop),
            f"        return {tup(names('_y'))}, _steps, _evals\n",
            "    rhs.march = march\n",
            "    return rhs\n",
        ]
    )
    namespace = {"inf": math.inf, "_sqrt": math.sqrt, "_fail": IntegrationError}
    exec(source, namespace)
    return namespace["make"]


def end_state(ivp: IvpSpec) -> tuple[tuple[float, ...], int, int]:
    """End of ``ivp`` by Dormand-Prince 5(4), keeping no dense output.

    Runs the march of ``ivp.rhs``, which :func:`compile_field` must have
    built, or :class:`SpecError` is raised; it takes the steps
    :func:`integrate` takes and raises what it raises.  Returns
    ``(y_end, n_steps, n_rhs_evals)``.
    """
    march = getattr(ivp.rhs, "march", None)
    if march is None:
        raise SpecError("end_state runs only a right hand side built by compile_field")
    return _run(ivp, march)


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

    Its one caller in the package, :func:`plapshoot.solver._bisect_on_angle`,
    keeps it because the benchmark's tests pin that search at 498 shots,
    2 of them collapsed, on the seed-0 solve.  ``_old_rstar`` in
    ``tests/test_solver.py`` uses it as the reference for ``rstar``.
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
    reported once.  A NaN level raises :class:`SpecError`.
    """
    if not 0 <= component < len(sol.ys[0]):
        raise SpecError(f"component {component} out of range")
    if any(math.isnan(level) for level in levels):
        raise SpecError(f"crossing levels must not be NaN, got {list(levels)!r}")
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
