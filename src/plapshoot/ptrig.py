"""Generalized trigonometric functions for the p-Laplacian.

The pair ``(cos_p, sin_p)`` is defined by the initial value problem

    C' = -phi_q(S),   S' = phi_p(C),   C(0) = 1,  S(0) = 0,

where ``phi_p(s) = |s|^(p-2) s`` and ``q = p/(p-1)`` is the conjugate
exponent.  The pair satisfies the pythagorean-type identity

    (p-1) |S|^q + |C|^p = 1

and is periodic with period ``2 pi_p``, where ``pi_p`` has a closed
form in terms of the sine function.  For p = 2 everything collapses to
the ordinary cosine and sine.

Evaluation goes through a cached per-exponent context: one quarter
period is tabulated once by the adaptive integrator and every angle is
folded into it by the reflection and antiperiodicity symmetries.  A
short series handles angles near zero where the table would lose
relative accuracy.  That look-up is written once, as :data:`LOOKUP`,
which :meth:`PTrigContext.pair` runs and the eigenvalue angle's march
pastes into its stages.  The inverse, from a point of the p-circle back
to its angle, reads the same table and the same series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, lru_cache

from .errors import NumericsError, SpecError, check_number
from .odeint import IvpSpec, compile_field, illinois_bracket, integrate

# Below this angle the truncated series is used instead of the table;
# its omitted terms are O(delta**(2q)) <= 1e-16 for the p range allowed.
_SERIES_CUTOFF = 1e-6

# How far the table's start and knots may lie off the p-circle.
_IDENTITY_TOL = 1e-9

# The statements that assign (c, s) = (cos_p(th), sin_p(th)), with the
# constants of PTrigContext.table.  th is folded into [0, pi_p/2] (fold
# arithmetic can land a few ulp outside, which is clamped), then read off
# the series of PTrigContext._series_pair or the cell of the table whose
# left end is the last knot at or below it.  An inf th, which fmod refuses,
# and a NaN, which fails every test and reaches the last cell, give NaN.
LOOKUP = (
    "try:",
    "    t = fmod(th, two_pi_p)",
    "except ValueError:",
    "    t = nan",
    "if t < 0.0:",
    "    t += two_pi_p",
    "sign = 1.0",
    "if t >= pi_p:",
    "    sign = -1.0",
    "    t -= pi_p",
    "sign_c = sign",
    "if t > half_pi_p:",
    "    t = pi_p - t",
    "    sign_c = -sign",
    "if t <= cutoff:",
    "    t = 0.0 if t < 0.0 else t",
    "    tq = t ** pp",
    "    c = 1.0 - tq / pp + (p - 1.0) * (pp - 1.0) * tq * tq / (2.0 * pp * pp * (pp + 1.0))",
    "    s = t - (p - 1.0) * tq * t / (pp * (pp + 1.0))",
    "elif t >= half_pi_p:",
    "    c, s = end",
    "else:",
    "    t0, h, c0, s0, c1, c2, c3, c4, s1, s2, s3, s4 = cells[bisect(knots, t) - 1]",
    "    x = (t - t0) / h",
    "    c = c0 + h * x * (c1 + x * (c2 + x * (c3 + x * c4)))",
    "    s = s0 + h * x * (s1 + x * (s2 + x * (s3 + x * s4)))",
    "c = sign_c * c",
    "s = sign * s",
)


def _pow_abs(x: float, e: float) -> float:
    """``|x|**e`` saturating to inf instead of raising on overflow."""
    try:
        return abs(x) ** e
    except OverflowError:
        return math.inf


def phi_p(s: float, p: float) -> float:
    """The odd power map ``|s|**(p-2) * s``.

    Written as ``sign(s) * |s|**(p-1)`` so that fractional exponents
    never see a negative base and p < 2 causes no blow-up at s = 0.
    """
    check_number(p, "exponent p", above=1.0)
    if s == 0.0:
        return 0.0
    return math.copysign(abs(s) ** (p - 1.0), s)


def phi_p_inv(s: float, p: float) -> float:
    """Inverse of :func:`phi_p`, which is the power map of the conjugate.

    From p of about 9.007e15 (just above 2**53) on, the conjugate
    p/(p-1) rounds to 1, which is no exponent; such a p is refused by name.
    """
    check_number(p, "exponent p", above=1.0)
    pc = p / (p - 1.0)
    if pc == 1.0:
        raise SpecError(
            f"exponent p={p!r} is too large: its conjugate p/(p-1) rounds to 1"
        )
    return phi_p(s, pc)


def pi_p(p: float) -> float:
    """Half-period of the generalized trigonometric pair.

    The sine is taken of pi over the larger of p and its conjugate p',
    as sin(pi/p) = sin(pi/p'): near p = 1, pi/p is close to pi, where the
    sine would lose its digits to cancellation.
    """
    check_number(p, "exponent p", above=1.0)
    sine = math.sin(math.pi / max(p, p / (p - 1.0)))
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * sine)


class PTrigContext:
    """Tabulated quarter period of ``(cos_p, sin_p)`` for one exponent.

    Holds ``p`` and its conjugate ``pprime = p/(p-1)``.  Build through
    :func:`get_context`, which caches per ``p``; direct construction
    integrates the defining system at tight tolerance and is
    comparatively expensive.  The table's series start and every knot
    must meet the p-circle identity to 1e-9, and its end must be
    ``cos_p = 0`` and ``sin_p`` at its maximum.  The knots miss the
    identity from p of about 200 on; the start misses it from about 3e3
    on, so no march runs there (from about 2e6 on it would crawl to
    ``max_steps``).
    :meth:`pair` runs :data:`LOOKUP`, with :meth:`table` bound, which
    folds an angle into the quarter period and evaluates the table's
    quartic there, as ``DenseSolution.eval`` would.  :meth:`angle` is
    its inverse over one period.
    """

    def __init__(self, p: float):
        check_number(p, "exponent p", above=1.0)
        self.p = p
        self.pprime = pp = p / (p - 1.0)
        self.pi_p = pi_p(p)
        self.half_pi_p = 0.5 * self.pi_p
        # Largest value of sin_p, attained at the quarter period.
        self.sin_p_max = (1.0 / (p - 1.0)) ** (1.0 / pp)

        def rhs(t, y):
            c, s = y
            return (
                -math.copysign(abs(s) ** (pp - 1.0), s),
                math.copysign(_pow_abs(c, p - 1.0), c),
            )

        start = self._series_pair(_SERIES_CUTOFF)
        if not self.identity_defect(*start) <= _IDENTITY_TOL:
            raise NumericsError(f"quarter-period table for p={p} failed its endpoint check at its start")
        self._quarter = integrate(
            IvpSpec(
                rhs=rhs,
                r_start=_SERIES_CUTOFF,
                r_end=self.half_pi_p,
                y0=start,
                rel_tol=1e-12,
                abs_tol=1e-14,
            )
        )
        c_end, s_end = self._quarter.y_end
        if abs(c_end) > 1e-9 or abs(s_end - self.sin_p_max) > 1e-9:
            raise NumericsError(
                f"quarter-period table for p={p} failed its endpoint check:"
                f" C={c_end:.3e}, S-S_max={s_end - self.sin_p_max:.3e}"
            )
        worst = max(self.identity_defect(c, s) for c, s in self._quarter.ys)
        if not worst <= _IDENTITY_TOL:
            raise NumericsError(
                f"quarter-period table for p={p} misses the p-circle identity by {worst:.3e}"
            )
        self._rs = self._quarter.rs
        # The knot values of -cos_p and sin_p, both rising over the
        # quarter, in which angle locates its cell.
        self._rising = (
            [-c for c, _ in self._quarter.ys],
            [s for _, s in self._quarter.ys],
        )

    def identity_defect(self, c: float, s: float) -> float:
        """How far ``(c, s)`` lies off the p-circle ``(p-1)|s|^p' + |c|^p = 1``."""
        return abs((self.p - 1.0) * _pow_abs(s, self.pprime) + _pow_abs(c, self.p) - 1.0)

    def _series_pair(self, t: float) -> tuple[float, float]:
        # Two-term expansions around the C = 1, S = 0 corner.
        p = self.p
        pp = self.pprime
        tq = t**pp
        c = 1.0 - tq / pp + (p - 1.0) * (pp - 1.0) * tq * tq / (
            2.0 * pp * pp * (pp + 1.0)
        )
        s = t - (p - 1.0) * tq * t / (pp * (pp + 1.0))
        return (c, s)

    def table(self) -> dict:
        """The constants of :data:`LOOKUP`, ``p`` and ``pp = p'`` among them."""
        return dict(
            fmod=math.fmod, bisect=bisect_right, nan=math.nan, p=self.p, pp=self.pprime,
            pi_p=self.pi_p, two_pi_p=2.0 * self.pi_p, half_pi_p=self.half_pi_p,
            cutoff=_SERIES_CUTOFF, knots=self._rs[:-1], cells=self._quarter.cells,
            end=self._quarter.y_end,
        )

    @cached_property
    def _look_up(self):
        return compile_field(("th",), LOOKUP + ("f0 = c", "f1 = s"), **self.table())

    def pair(self, theta: float) -> tuple[float, float]:
        """``(cos_p(theta), sin_p(theta))`` for any finite angle."""
        if not math.isfinite(theta):
            raise SpecError(f"angle must be finite, got {theta!r}")
        return self._look_up(0.0, (theta,))

    def angle(self, c: float, s: float) -> float:
        """The angle in ``[0, 2 pi_p]`` whose :meth:`pair` is ``(c, s)``.

        ``(c, s)`` is a point of the p-circle ``|c|^p + (p-1)|s|^p' = 1``.
        ``(|c|, |s|)`` gives an angle t in the first quarter, and the
        signs fold it into its quadrant by the symmetries :meth:`pair`
        uses.  t is read off the column that is steep there: ``sin_p``
        where ``|c| > 0.5`` and ``cos_p`` elsewhere.  Below the series
        cutoff the series is inverted; past it, the knot values locate
        the cell of the quarter table, and
        :func:`~plapshoot.odeint.illinois_bracket` closes in on
        :meth:`pair` inside it.  A value past the table's last knot
        gives the quarter period.
        """
        if not (math.isfinite(c) and math.isfinite(s)):
            raise SpecError(f"point must be finite, got ({c!r}, {s!r})")
        if abs(c) > 0.5:
            col, y = 1, abs(s)
        else:
            col, y = 0, -abs(c)
        knots = self._rising[col]
        i = bisect_right(knots, y) - 1
        if col == 1 and i < 0:
            # Below the first knot, the series cutoff: invert
            # s = t - a t^(p'+1) to the order the forward series keeps.
            pp = self.pprime
            t = y + (self.p - 1.0) * y ** (pp + 1.0) / (pp * (pp + 1.0))
        elif i >= len(knots) - 1:
            t = self.half_pi_p
        elif knots[i] == y:
            t = self._rs[i]
        else:
            sign = -1.0 if col == 0 else 1.0
            t = illinois_bracket(
                lambda t: sign * self.pair(t)[col] - y,
                self._rs[i],
                self._rs[i + 1],
                knots[i] - y,
                knots[i + 1] - y,
                0.0,
                lambda lo, hi: False,
            )[0]
        if c < 0.0:
            return self.pi_p + t if s < 0.0 else self.pi_p - t
        return 2.0 * self.pi_p - t if s < 0.0 else t


@lru_cache(maxsize=64)
def get_context(p: float) -> PTrigContext:
    """Shared per-exponent context; building one is the slow part."""
    check_number(p, "exponent p", above=1.0)
    return PTrigContext(float(p))
