"""Radial shooting for quasilinear Neumann problems on balls and annuli.

The equation under study is

    -(r^(N-1) phi_p(u'))' = r^(N-1) (g(u) - phi_p(u)),   u'(boundary) = 0,

written here as the first order system in ``(u, v)`` with the flux
``v = r^(N-1) phi_p(u')``.  A shot launches the solution from the
center value ``u = d`` with zero slope and integrates outward.  On a
ball the center ``r = 0`` is a singular point of the system, so shots
start at a small ``eps0 > 0`` from a series expansion; on an annulus
they start exactly at the inner boundary.

Alongside ``(u, v)`` every shot carries the phase angle ``theta`` of
the point ``(u - 1, v)`` measured in generalized polar coordinates
around the constant equilibrium ``u = 1``:

    u - 1 = rho^(2/p) cos_p(theta),     v = -rho^(2/p') sin_p(theta),
    rho^2 = |u - 1|^p + (p - 1) |v|^p'.

The angle never decreases, increases by one half-period per interior
zero of ``u - 1``, and its terminal value is the quantity every root
search in this package brackets and closes in on.

Shots come in two kinds.  ``shoot(d, spec, cfg)`` integrates with the
generic dense :func:`~plapshoot.odeint.integrate` and returns a sampled
:class:`Trajectory` with a :class:`ShotSummary` (zero radii included);
validated solutions, the ``plapshoot shoot`` command and anything that
plots a profile take this kind.  ``shoot(d, spec, cfg, profile=False)``
runs :func:`_shot_end`, which keeps only the end state through
:func:`~plapshoot.odeint.end_state`, the stage sums generated from the
Dormand-Prince tableau for this three-component system, and returns a
:class:`ShotEnd`; the scan and the bisection in :mod:`plapshoot.solver`
take this kind.  Both kinds step through
:func:`~plapshoot.odeint._march`, the one step loop of the package, and
the same states, so they give the same terminal angle to the last bit.

Both kinds evaluate one field, built once per shot by
:func:`_make_field`.  It calls the reaction closure of
:meth:`Nonlinearity.f_for`, the one definition of ``f`` in the package,
writes its powers inline, and for N = 1 skips the flux weight
``r^(N-1) = 1``; every value it returns is the one the formulas above
give, to the last bit.  A start-up state already under the collapse
floor is caught by the field's first evaluation, like any later one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .config import SolverConfig
from .errors import IntegrationError, NearConstantShotError, SpecError
from .odeint import IvpSpec, crossings, end_state, integrate
from .ptrig import PExponent, phi_p_inv, pi_p

# A shot has collapsed onto the constant state once the squared
# phase-plane radius falls below this floor: the angle is then no longer
# trustworthy.
RHO_FLOOR = 1e-12

# Size of the uniform grid added to a profiled shot's accepted mesh, so
# that plots stay faithful where steps are long.
PROFILE_NODES = 400


@dataclass(frozen=True)
class Ball:
    """Ball of radius ``radius`` centered at the origin."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise SpecError(f"ball radius must be positive, got {self.radius!r}")

    @property
    def r_outer(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Annulus:
    """Annulus with inner radius ``r_inner`` and outer radius ``r_outer``."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        ok = (
            math.isfinite(self.r_inner)
            and math.isfinite(self.r_outer)
            and 0.0 < self.r_inner < self.r_outer
        )
        if not ok:
            raise SpecError(
                f"need 0 < r_inner < r_outer, got ({self.r_inner!r}, "
                f"{self.r_outer!r})"
            )


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term ``g`` of the problem, described by its exponents.

    ``g(s) = s^(q-1) + s^(p-1) - s^(r-1)`` with ``p <= r < q``; unset
    ``r_exp`` means r = p, the paper's pure power ``g(s) = s^(q-1)``.
    Then ``f(s) = g(s) - s^(p-1) = s^(q-1) - s^(r-1)`` vanishes exactly
    at the constant state ``s = 1`` and has the sign of ``s - 1``
    elsewhere, which is what keeps the phase angle monotone.
    :meth:`f_for` is the one definition of ``f``: it returns ``f`` for
    one exponent p as a closure, which a shot's field binds once.
    """

    q: float
    r_exp: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise SpecError(f"exponent q must be finite and > 1, got {self.q!r}")
        if self.r_exp is not None and not (
            math.isfinite(self.r_exp) and self.r_exp > 1.0
        ):
            raise SpecError(
                f"exponent r must be finite and > 1, got {self.r_exp!r}"
            )

    def r_exp_for(self, p: float) -> float:
        """The exponent r of ``f``: ``r_exp``, or p for the pure power."""
        return p if self.r_exp is None else self.r_exp

    def validate_for(self, p: float) -> None:
        r = self.r_exp_for(p)
        if not p <= r < self.q:
            raise SpecError(
                f"reaction needs p <= r < q (r = p for a pure power), got"
                f" p={p!r}, r={r!r}, q={self.q!r}"
            )

    def f_for(self, p: float) -> Callable[[float], float]:
        """``f(s) = g(s) - s^(p-1) = s^(q-1) - s^(r-1)`` as a function of s.

        The exponents ``q - 1`` and ``r - 1`` are bound in the closure.
        ``f`` is extended by zero to ``s <= 0``.  Overflow saturates to
        +inf (the top exponent dominates), which the integrator treats
        as a step into forbidden territory.
        """
        qm1 = self.q - 1.0
        rm1 = self.r_exp_for(p) - 1.0

        def f(s: float) -> float:
            if s <= 0.0:
                return 0.0
            try:
                return s**qm1 - s**rm1
            except OverflowError:
                return math.inf

        return f

    def fprime_at_one(self, p: float) -> float:
        return self.q - self.r_exp_for(p)

    def label(self) -> str:
        if self.r_exp is None:
            return f"pow:{self.q:g}"
        return f"combo:{self.q:g},{self.r_exp:g}"


@dataclass(frozen=True)
class ProblemSpec:
    """One radial Neumann problem: exponent, dimension, domain, reaction.

    ``g`` may be ``None`` for purely linear work (the eigenvalue solver
    ignores the reaction); shooting requires it.
    """

    p: float
    dim: int
    domain: Ball | Annulus
    g: Nonlinearity | None = None
    exponent: PExponent = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "exponent", PExponent(self.p))
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise SpecError(f"dimension must be an integer >= 1, got {self.dim!r}")
        if self.g is not None:
            self.g.validate_for(self.p)

    @property
    def is_ball(self) -> bool:
        return isinstance(self.domain, Ball)

    @property
    def r_outer(self) -> float:
        return self.domain.r_outer

    @property
    def pi_p(self) -> float:
        return pi_p(self.p)

    @property
    def c1(self) -> float:
        """Phase-limit coefficient of shots approaching the constant state.

        Equals ``f'(1)`` when p = 2; degenerates to 0 for p < 2 and to
        infinity for p > 2, which is what separates the three
        existence regimes.
        """
        self._require_g()
        if self.p > 2.0:
            return math.inf
        if self.p < 2.0:
            return 0.0
        return self.g.fprime_at_one(self.p)

    def _require_g(self) -> None:
        if self.g is None:
            raise SpecError("this operation needs a nonlinearity g")

    def with_outer_radius(self, r_outer: float) -> "ProblemSpec":
        """Same problem on the domain rescaled to the given outer radius.

        Balls keep their shape; annuli keep their radius ratio.
        """
        if isinstance(self.domain, Ball):
            dom: Ball | Annulus = Ball(r_outer)
        else:
            ratio = self.domain.r_inner / self.domain.r_outer
            dom = Annulus(ratio * r_outer, r_outer)
        return ProblemSpec(p=self.p, dim=self.dim, domain=dom, g=self.g)


@dataclass
class Trajectory:
    """Sampled radial profile of one shot.

    Nodes are the union of the integrator's accepted mesh and a uniform
    grid, so plots stay faithful even where steps are long.  Columns
    are ``array('d')``, a quarter of the memory of a list of floats.
    ``rho_sq`` is not stored: each read computes it algebraically from
    ``(u, v)`` and the exponent ``p`` at every node.
    """

    r: array
    u: array
    v: array
    theta: array
    p: float

    @property
    def rho_sq(self) -> array:
        p = self.p
        pp = p / (p - 1.0)  # PExponent.pprime
        return array("d", (_rho_sq(u, v, p, pp) for u, v in zip(self.u, self.v)))


@dataclass(frozen=True)
class ShotSummary:
    """Scalar outcome of one shot."""

    d: float
    theta_start: float
    theta_end: float
    u_end: float
    v_end: float
    zeros: int
    zero_radii: tuple[float, ...]
    min_u: float
    max_u: float
    n_steps: int


class ShotEnd(NamedTuple):
    """End state of one shot, all that a scan or a bisection reads.

    Immutable like the dataclasses here, but a named tuple, which takes
    a tenth of the time of a frozen dataclass to define at import.
    """

    d: float
    theta_end: float
    u_end: float
    v_end: float
    n_steps: int
    n_rhs_evals: int


def startup_state(d: float, spec: ProblemSpec, eps0: float) -> tuple[float, float, float]:
    """State ``(u, v, theta)`` at the start of a shot from ``u = d``.

    On a ball this is the series expansion at ``r = eps0``: the flux
    grows like ``-f(d) r^N / N`` and the angle leaves its anchor
    (one half-period below ``d = 1``, zero above) at rate set by the
    leading phase-plane drift.  On an annulus the boundary condition is
    imposed exactly at the inner radius and ``eps0`` is ignored.
    """
    spec._require_g()
    if not (math.isfinite(d) and d >= 0.0):
        raise SpecError(f"shot value d must be finite and >= 0, got {d!r}")
    if d == 1.0:
        raise SpecError("d = 1 is the constant solution; shots need d != 1")
    pip = spec.pi_p
    anchor = pip if d < 1.0 else 0.0
    if not spec.is_ball:
        return (d, 0.0, anchor)
    if not 0.0 < eps0 < spec.r_outer / 2.0:
        raise SpecError(f"eps0 must lie in (0, R/2), got {eps0!r}")
    p = spec.p
    pp = spec.exponent.pprime
    n = spec.dim
    fd = spec.g.f_for(p)(d)
    v = -fd * eps0**n / n
    u = d - phi_p_inv(fd / n, p) * eps0**pp / pp
    theta = anchor + fd * math.copysign(1.0, d - 1.0) * eps0**n / (
        n * abs(d - 1.0) ** (p - 1.0)
    )
    return (u, v, theta)


def _pow_abs(x: float, e: float) -> float:
    """``|x|**e`` saturating to inf instead of raising on overflow."""
    try:
        return abs(x) ** e
    except OverflowError:
        return math.inf


def _make_field(spec: ProblemSpec, d: float):
    """Right hand side of a shot as ``field(r, u, v) -> (u', v', theta')``.

    The angle does not feed back into the system, so it is not an
    argument.  For N = 1 the flux weight ``r^(N-1)`` is 1.0, so the field
    skips the products with it and reuses ``|v|^p'`` of ``rho^2`` in the
    angle's rate; both are exact.  ``|u - 1|^p`` and ``|v|^p'`` saturate
    to inf like :func:`_pow_abs`.  An overflow in a power of
    ``|v| / r^(N-1)`` returns a non-finite triple at once: the formula
    would give a non-finite component too, and every caller tests only
    whether all three are finite.
    """
    p = spec.p
    pp = spec.exponent.pprime
    pm1 = p - 1.0
    ppm1 = pp - 1.0
    nm1 = spec.dim - 1
    f = spec.g.f_for(p)
    copysign = math.copysign
    inf = math.inf

    def field(r, u, v):
        if nm1:
            rn = r**nm1
            w = v / rn
        else:
            w = v
        fu = f(u)
        um1 = u - 1.0
        try:
            vpp = abs(v) ** pp
            rho2 = abs(um1) ** p + pm1 * vpp
        except OverflowError:
            vpp = _pow_abs(v, pp)
            rho2 = _pow_abs(um1, p) + pm1 * vpp
        if rho2 < RHO_FLOOR:
            raise NearConstantShotError(d, r, rho2)
        try:
            du = copysign(abs(w) ** ppm1, w) if w != 0.0 else 0.0
            if nm1:
                return (du, -rn * fu, rn * (pm1 * abs(w) ** pp + um1 * fu) / rho2)
        except OverflowError:
            return (inf, inf, inf)
        return (du, -fu, (pm1 * vpp + um1 * fu) / rho2)

    return field


def _rho_sq(u: float, v: float, p: float, pp: float) -> float:
    return _pow_abs(u - 1.0, p) + (p - 1.0) * _pow_abs(v, pp)


def _shot_start(d: float, spec: ProblemSpec, cfg: SolverConfig):
    """Initial value problem of one shot, and its field.

    Raises :class:`SpecError` if the start-up radius is so small that
    its flux weight ``r^(N-1)`` underflows to 0, and
    :class:`IntegrationError` if the start-up state is not finite
    (``f(d)`` overflows at large ``d`` and ``q``).  A start-up state
    already under the collapse floor raises
    :class:`NearConstantShotError` at the field's first evaluation, in
    the step loop of either kind of shot.
    """
    if spec.is_ball:
        eps0 = cfg.eps0_for(spec.r_outer)
        r0 = eps0
    else:
        eps0 = 0.0
        r0 = spec.domain.r_inner
    if r0 ** (spec.dim - 1) == 0.0:
        raise SpecError(
            f"start-up radius {r0!r} too small: r^(N-1) underflows to 0 for"
            f" N={spec.dim}"
        )
    y0 = startup_state(d, spec, eps0)
    if not all(math.isfinite(c) for c in y0):
        raise IntegrationError("start-up state not finite", r0)
    field = _make_field(spec, d)
    ivp = IvpSpec(
        rhs=lambda r, y: field(r, y[0], y[1]),
        r_start=r0,
        r_end=spec.r_outer,
        y0=y0,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
    )
    return ivp, field


def _shot_end(d: float, spec: ProblemSpec, cfg: SolverConfig) -> ShotEnd:
    """End state of one shot, by :func:`~plapshoot.odeint.end_state`.

    The field reads ``u`` and ``v``, not the angle, so the generated
    trial step forms no stage values of the angle.
    """
    ivp, field = _shot_start(d, spec, cfg)
    (u, v, th), n_steps, n_evals = end_state(ivp, field, 2)
    return ShotEnd(d, th, u, v, n_steps, n_evals)


def shoot(
    d: float,
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    *,
    profile: bool = True,
) -> tuple[Trajectory, ShotSummary] | ShotEnd:
    """Integrate one shot from ``u = d`` across the whole domain.

    Returns the sampled profile and its summary, or with
    ``profile=False`` only the :class:`ShotEnd` that :func:`_shot_end`
    computes, with the same terminal angle, end state and step count.
    Raises :class:`NearConstantShotError` if the phase-plane radius
    collapses below ``RHO_FLOOR`` along the way, and
    :class:`IntegrationError` if the integrator gives up.
    """
    cfg = cfg or SolverConfig()
    if not profile:
        return _shot_end(d, spec, cfg)
    ivp, _ = _shot_start(d, spec, cfg)
    sol = integrate(ivp)
    y0 = ivp.y0

    # Node set: accepted mesh plus a uniform grid for plotting.
    span = sol.r_end - sol.r_start
    rs = set(sol.rs).union(
        sol.r_start + span * i / (PROFILE_NODES - 1)
        for i in range(1, PROFILE_NODES - 1)
    )
    nodes_r = array("d")
    nodes_u = array("d")
    nodes_v = array("d")
    nodes_th = array("d")
    for r in sorted(rs):
        u, v, th = sol.eval(r)
        nodes_r.append(r)
        nodes_u.append(u)
        nodes_v.append(v)
        nodes_th.append(th)
    traj = Trajectory(nodes_r, nodes_u, nodes_v, nodes_th, spec.p)

    # The angle is monotone, so interior zeros of u - 1 are counted by
    # how many odd quarter-period levels the angle sweeps through.
    pip = spec.pi_p
    th_start = y0[2]
    th_end = sol.y_end[2]
    half = 0.5 * pip
    m_lo = math.ceil((th_start - half) / pip)
    m_hi = math.floor((th_end - half) / pip)
    zero_radii: list[float] = []
    if m_hi >= m_lo:
        levels = [half + m * pip for m in range(m_lo, m_hi + 1)]
        zero_radii = [hit[0] for hit in crossings(sol, 2, levels)]
    summary = ShotSummary(
        d=d,
        theta_start=th_start,
        theta_end=th_end,
        u_end=sol.y_end[0],
        v_end=sol.y_end[1],
        zeros=len(zero_radii),
        zero_radii=tuple(zero_radii),
        min_u=min(nodes_u),
        max_u=max(nodes_u),
        n_steps=sol.n_steps,
    )
    return traj, summary
