"""Exception taxonomy shared across the package.

Validation problems (bad parameters, malformed domains) raise
:class:`SpecError`; failures of the numerical machinery at runtime raise
subclasses of :class:`NumericsError`.  The CLI maps the former to exit
code 2 and the latter to exit code 1.  :func:`check_count` and
:func:`check_number`, both built on :func:`is_number`, are the one rule
for the counts and numbers a caller passes in.
"""

from __future__ import annotations

import sys


class PlapshootError(Exception):
    """Base class for every error raised by this package."""


class SpecError(PlapshootError, ValueError):
    """A problem description or configuration value is invalid."""


class NumericsError(PlapshootError, ArithmeticError):
    """A numerical routine could not complete its contract."""


class IntegrationError(NumericsError):
    """The ODE integrator stopped before reaching the end of the interval.

    ``last_r`` records the largest abscissa that was reached with a valid
    state, so callers can report how far the integration got.
    """

    def __init__(self, message: str, last_r: float):
        super().__init__(f"{message} (integration reached r={last_r!r})")
        self.last_r = last_r


class NearConstantShotError(NumericsError):
    """A shot collapsed onto the constant equilibrium.

    Raised when the squared phase-plane radius drops below the collapse
    floor, at which point the phase angle is no longer trustworthy.  It
    carries ``r`` and ``rho_sq``; the caller that shot knows ``d``.
    """

    def __init__(self, r: float, rho_sq: float):
        super().__init__(
            f"shot collapsed near the constant state at r={r!r} (rho_sq={rho_sq:.3e})"
        )
        self.r = r
        self.rho_sq = rho_sq


class SearchError(NumericsError):
    """A bracketing or bisection search failed to isolate its target."""


def is_number(value, kind=(int, float)) -> bool:
    """``isinstance(value, kind)``, but false for a ``bool``.

    Python counts ``True`` and ``False`` as the integers 1 and 0; as a
    count or a tolerance they are a mistake, so the checks refuse them.
    """
    return isinstance(value, kind) and not isinstance(value, bool)


def check_count(value, least: int, what: str) -> None:
    """Raise :class:`SpecError` unless ``value`` is an integer in range.

    The range runs from ``least`` to ``sys.maxsize``: every count bounds
    a ``range`` or a list.
    """
    if not (is_number(value, int) and least <= value <= sys.maxsize):
        raise SpecError(
            f"{what} must be an integer in [{least}, {sys.maxsize}], got {value!r}"
        )


def check_number(value, what: str, above=None, least=None) -> None:
    """Raise :class:`SpecError` unless ``value`` is a finite number in range.

    A number is an ``int`` or ``float`` that is not a ``bool``
    (:func:`is_number`); it is finite if its magnitude is at most the
    largest float, which also refuses an ``int`` that would not convert
    to one.  It must lie above ``above`` and at least at ``least`` where
    either is given.
    """
    if not (
        is_number(value)
        and abs(value) <= sys.float_info.max
        and (above is None or value > above)
        and (least is None or value >= least)
    ):
        bound = f" > {above!r}" if above is not None else ""
        bound = f" >= {least!r}" if least is not None else bound
        raise SpecError(f"{what} must be a finite number{bound}, got {value!r}")
