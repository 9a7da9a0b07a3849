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

On a ball a shot's angle starts at its anchor (a half-period below
``d = 1``, zero above) plus the exact generalised polar angle of the
start-up state, which lies within a quarter period of the anchor (see
:func:`startup_state`).

Shots come in two kinds.  ``shoot(d, spec, cfg)`` integrates with the
dense :func:`~plapshoot.odeint.integrate` and returns a sampled
:class:`Trajectory` with a :class:`ShotSummary` (zero radii included);
validated solutions, the ``plapshoot shoot`` command and anything that
plots a profile take this kind.  ``shoot(d, spec, cfg, profile=False)``
keeps only the end state through :func:`~plapshoot.odeint.end_state`
and returns a :class:`ShotEnd`; the scan and the bisection in
:mod:`plapshoot.solver` take this kind.  Both kinds run the one step
loop of the package, the march that ``odeint`` generates from the
Dormand-Prince tableau, the dense one with a call of the field's
callable in each stage and the other with the field's body pasted in,
so they give the same terminal angle to the last bit.

Both kinds evaluate one field, written once as a body of statements,
``_SHOT_N1`` for N = 1 and ``_SHOT_N`` for N > 1, and compiled once per
problem by :func:`_make_field` into the right hand side of every shot's
:class:`~plapshoot.odeint.IvpSpec`: the callable that the dense kind
calls in each stage, carrying the march with the body pasted in that
the other kind runs.  The bodies paste :data:`REACTION`, the one
definition of ``f`` in the package, which :meth:`Nonlinearity.f_for`
compiles as well; they write their powers inline, and for N = 1 skip
the flux weight ``r^(N-1) = 1``.  At p = 2 the exponents ``p - 1``,
``p' - 1`` and, for the pure power, ``r - 1`` are 1, and
:func:`~plapshoot.odeint.compile_field` folds them out of the body, the
signed power ``|v|^(p'-1) sgn(v)`` included; ``p`` and ``p'`` are 2,
so ``|v|^p'`` and ``|u - 1|^p`` become ``v ** pp`` and ``um1 ** p``,
with no ``abs``.  They stay powers, since a square by multiplication
may differ in its last bit.  Every slope is the one the formulas above
give, to the last bit.  A start-up state already under the collapse
floor is caught by the field's first evaluation, like any later one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

from .config import SolverConfig
from .errors import IntegrationError, NearConstantShotError, SpecError
from .errors import check_count, check_number
from .odeint import IvpSpec, RhsFunc, compile_field, crossings, end_state, integrate
from .ptrig import _pow_abs, get_context, phi_p_inv, pi_p

# A shot has collapsed onto the constant state once the squared
# phase-plane radius falls below this floor: the angle is then no longer
# trustworthy.
RHO_FLOOR = 1e-12

# Size of the uniform grid added to a profiled shot's accepted mesh, so
# that plots stay faithful where steps are long.
PROFILE_NODES = 400


# The reaction f(u) = u^(q-1) - u^(r-1) as statements that assign ``fu``,
# with ``qm1 = q - 1`` and ``rm1 = r - 1``: Nonlinearity.f_for compiles
# them and the shot fields paste them.
REACTION = (
    "if u <= 0.0:",
    "    fu = 0.0",
    "else:",
    "    try:",
    "        fu = u ** qm1 - u ** rm1",
    "    except OverflowError:",
    "        fu = inf",
)

# The shot's phase-plane radius, and the collapse test on it.
_RHO = (
    "um1 = u - 1.0",
    "try:",
    "    vpp = abs(v) ** pp",
    "    rho2 = abs(um1) ** p + pm1 * vpp",
    "except OverflowError:",
    "    vpp = pow_abs(v, pp)",
    "    rho2 = pow_abs(um1, p) + pm1 * vpp",
    "if rho2 < rho_floor:",
    "    raise collapsed(r, rho2)",
)

# The shot's field (u', v', theta') for N = 1, where the flux weight
# r^(N-1) is 1.0 and w = v (_SHOT_N there makes a q = 100 solve 25 % slower), ...
_SHOT_N1 = REACTION + _RHO + (
    "try:",
    "    f0 = copysign(abs(v) ** ppm1, v) if v != 0.0 else 0.0",
    "except OverflowError:",
    "    f0 = inf",
    "f1 = -fu",
    "f2 = (pm1 * vpp + um1 * fu) / rho2",
)

# ... and for N > 1, with rn = r^(N-1) and w = v / rn = phi_p(u').
_SHOT_N = ("rn = r ** nm1", "w = v / rn") + REACTION + _RHO + (
    "try:",
    "    f0 = copysign(abs(w) ** ppm1, w) if w != 0.0 else 0.0",
    "    f2 = rn * (pm1 * abs(w) ** pp + um1 * fu) / rho2",
    "except OverflowError:",
    "    f0 = f2 = inf",
    "f1 = -rn * fu",
)


@dataclass(frozen=True)
class Ball:
    """Ball of radius ``radius`` centered at the origin."""

    radius: float

    def __post_init__(self):
        check_number(self.radius, "ball radius", above=0.0)

    @property
    def r_outer(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Annulus:
    """Annulus with inner radius ``r_inner`` and outer radius ``r_outer``."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        check_number(self.r_inner, "r_inner", above=0.0)
        check_number(self.r_outer, "r_outer", above=self.r_inner)


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term ``g`` of the problem, described by its exponents.

    ``g(s) = s^(q-1) + s^(p-1) - s^(r-1)`` with ``p <= r < q``; unset
    ``r_exp`` means r = p, the paper's pure power ``g(s) = s^(q-1)``.
    Then ``f(s) = g(s) - s^(p-1) = s^(q-1) - s^(r-1)`` vanishes exactly
    at the constant state ``s = 1`` and has the sign of ``s - 1``
    elsewhere, which is what keeps the phase angle monotone.
    :data:`REACTION` is the one definition of ``f``: :meth:`f_for`
    compiles it for one exponent p, and a shot's field pastes it.
    """

    q: float
    r_exp: float | None = None

    def __post_init__(self):
        check_number(self.q, "exponent q", above=1.0)
        if self.r_exp is not None:
            check_number(self.r_exp, "exponent r", above=1.0)

    def r_exp_for(self, p: float) -> float:
        """The exponent r of ``f``: ``r_exp``, or p for the pure power."""
        return p if self.r_exp is None else self.r_exp

    @lru_cache(maxsize=8)
    def f_for(self, p: float) -> Callable[[float], float]:
        """``f(s) = g(s) - s^(p-1) = s^(q-1) - s^(r-1)`` as a function of s.

        Compiled from :data:`REACTION`, the text the shot fields paste,
        on first use; every ball shot reads it, and the last few
        reactions and exponents in use keep theirs.
        ``f`` is extended by zero to ``s <= 0``.  Overflow saturates to
        +inf (the top exponent dominates), which the integrator treats
        as a step into forbidden territory.
        """
        rhs = compile_field(("u",), REACTION + ("f0 = fu",), **self.exponents(p))
        return lambda s: rhs(0.0, (s,))[0]

    def exponents(self, p: float) -> dict[str, float]:
        """The constants of :data:`REACTION`: ``qm1 = q - 1``, ``rm1 = r - 1``."""
        return {"qm1": self.q - 1.0, "rm1": self.r_exp_for(p) - 1.0}

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

    def __post_init__(self):
        check_number(self.p, "exponent p", above=1.0)
        check_count(self.dim, 1, "dimension")
        if not isinstance(self.domain, (Ball, Annulus)):
            raise SpecError(f"domain must be a Ball or an Annulus, got {self.domain!r}")
        if not isinstance(self.g, (Nonlinearity, type(None))):
            raise SpecError(f"g must be a Nonlinearity or None, got {self.g!r}")
        if self.g is not None:
            r = self.g.r_exp_for(self.p)
            if not self.p <= r < self.g.q:
                raise SpecError(
                    f"reaction needs p <= r < q (r = p for a pure power), got"
                    f" p={self.p!r}, r={r!r}, q={self.g.q!r}"
                )

    @property
    def is_ball(self) -> bool:
        return isinstance(self.domain, Ball)

    @property
    def r_outer(self) -> float:
        return self.domain.r_outer

    @property
    def pprime(self) -> float:
        """The conjugate exponent ``p' = p/(p-1)``."""
        return self.p / (self.p - 1.0)

    @property
    def pi_p(self) -> float:
        return pi_p(self.p)

    def start_radius(self, cfg: SolverConfig) -> float:
        """Radius at which shots and eigenvalue integrations start.

        On an annulus the inner radius, and :class:`SpecError` if
        ``cfg.eps0`` is given.  On a ball, whose center is a singular
        point, ``cfg.eps0``, by default ``1e-8`` times the outer radius R;
        :class:`SpecError` unless it lies below R/2.
        """
        if not self.is_ball:
            if cfg.eps0 is not None:
                raise SpecError(
                    f"eps0 sets the start-up radius of a ball; an annulus"
                    f" starts at its inner radius {self.domain.r_inner!r}"
                )
            return self.domain.r_inner
        r = self.r_outer
        eps0 = cfg.eps0 if cfg.eps0 is not None else 1e-8 * r
        if not eps0 < r / 2.0:
            raise SpecError(
                f"startup radius {eps0!r} too large for outer radius {r!r}"
            )
        return eps0

    def describe(self) -> dict:
        """``p``, ``dim``, ``domain`` and, when set, ``g``, as JSON values."""
        doc = {"p": self.p, "dim": self.dim, "domain": repr(self.domain)}
        if self.g is not None:
            doc["g"] = self.g.label()
        return doc

    @property
    def c1(self) -> float:
        """Phase-limit coefficient of shots approaching the constant state.

        Equals ``f'(1) = q - r`` when p = 2; degenerates to 0 for p < 2
        and to infinity for p > 2, which is what separates the three
        existence regimes.
        """
        self._require_g()
        if self.p > 2.0:
            return math.inf
        if self.p < 2.0:
            return 0.0
        return self.g.q - self.g.r_exp_for(self.p)

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
        return replace(self, domain=dom)


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
        pp = p / (p - 1.0)  # ProblemSpec.pprime
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

    On a ball ``u`` and ``v`` are the series expansion at ``r = eps0``:
    the flux grows like ``-f(d) r^N / N``.  The angle is the anchor (one
    half-period below ``d = 1``, zero above) plus the exact generalised
    polar angle of ``(|u - 1|, |v|)``, from
    :meth:`~plapshoot.ptrig.PTrigContext.angle`.  A state with ``v = 0``
    starts at the anchor, and so does one that is not finite (where
    ``phi_p^-1(f(d)/N)`` overflows; its shot fails).  A state with
    ``u = 1`` starts a quarter period past the anchor.
    On an annulus the boundary condition is imposed exactly at the
    inner radius and ``eps0`` is ignored.
    """
    spec._require_g()
    check_number(d, "shot value d", least=0.0)
    if d == 1.0:
        raise SpecError("d = 1 is the constant solution; shots need d != 1")
    pip = spec.pi_p
    anchor = pip if d < 1.0 else 0.0
    if not spec.is_ball:
        return (d, 0.0, anchor)
    check_number(eps0, "eps0", above=0.0)
    if not eps0 < spec.r_outer / 2.0:
        raise SpecError(f"eps0 must lie in (0, R/2), got {eps0!r}")
    p = spec.p
    pp = spec.pprime
    n = spec.dim
    fd = spec.g.f_for(p)(d)
    v = -fd * eps0**n / n
    try:
        u = d - phi_p_inv(fd / n, p) * eps0**pp / pp
    except OverflowError:
        # |f(d)/N|^(p'-1) overflows for p < 2 at moderate d: saturate.
        u = d - math.copysign(math.inf, fd)
    if v == 0.0 or not (math.isfinite(u) and math.isfinite(v)):
        return (u, v, anchor)
    if u == 1.0:
        return (u, v, anchor + 0.5 * pip)
    # The point (c, s) of the p-circle on the ray through (|u-1|, |v|),
    # from lr = log((p-1) |v|^p' / |u-1|^p): |c|^p = 1 / (1 + e^lr) and
    # (p-1) |s|^p' = 1 / (1 + e^-lr).  No power here can overflow.
    lr = math.log(p - 1.0) + pp * math.log(abs(v)) - p * math.log(abs(u - 1.0))
    if lr > 0.0:
        log1p_r = lr + math.log1p(math.exp(-lr))
    else:
        log1p_r = math.log1p(math.exp(lr))
    c = math.exp(-log1p_r / p)
    s = math.exp((lr - log1p_r - math.log(p - 1.0)) / pp)
    return (u, v, anchor + get_context(p).angle(c, s))


@lru_cache(maxsize=8)
def _make_field(p: float, dim: int, g: Nonlinearity) -> RhsFunc:
    """Right hand side ``(u', v', theta')`` of every shot with this p, N and g.

    The angle does not feed back into the system, so the body does not
    read it.  For N = 1 the flux weight ``r^(N-1)`` is 1.0, so the body
    skips the products with it and reuses ``|v|^p'`` of ``rho^2`` in the
    angle's rate; both are exact.  ``|u - 1|^p`` and ``|v|^p'`` saturate
    to inf like :func:`_pow_abs`.  An overflow in a power of ``|v| /
    r^(N-1)`` sets those slopes to inf: the formula would give a
    non-finite component too, and every caller tests only whether all
    three are finite.
    """
    pp = p / (p - 1.0)  # ProblemSpec.pprime
    return compile_field(
        ("u", "v"), _SHOT_N1 if dim == 1 else _SHOT_N,
        p=p, pp=pp, pm1=p - 1.0, ppm1=pp - 1.0, nm1=dim - 1,
        **g.exponents(p), rho_floor=RHO_FLOOR,
        collapsed=NearConstantShotError, pow_abs=_pow_abs, copysign=math.copysign,
    )


def _rho_sq(u: float, v: float, p: float, pp: float) -> float:
    return _pow_abs(u - 1.0, p) + (p - 1.0) * _pow_abs(v, pp)


def _shot_start(d: float, spec: ProblemSpec, cfg: SolverConfig):
    """Initial value problem of one shot, with its field as the right hand side.

    Raises :class:`SpecError` if the start-up radius is so small that
    its flux weight ``r^(N-1)`` underflows to 0, and
    :class:`IntegrationError` if the start-up state is not finite
    (``f(d)`` overflows at large ``d`` and ``q``).  A start-up state
    already under the collapse floor raises
    :class:`NearConstantShotError` at the field's first evaluation, in
    the step loop of either kind of shot.
    """
    r0 = spec.start_radius(cfg)
    if r0 ** (spec.dim - 1) == 0.0:
        raise SpecError(
            f"start-up radius {r0!r} too small: r^(N-1) underflows to 0 for"
            f" N={spec.dim}"
        )
    y0 = startup_state(d, spec, r0)
    if not all(math.isfinite(c) for c in y0):
        raise IntegrationError("start-up state not finite", r0)
    return IvpSpec(
        rhs=_make_field(spec.p, spec.dim, spec.g),
        r_start=r0,
        r_end=spec.r_outer,
        y0=y0,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
    )


def shoot(
    d: float,
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    *,
    profile: bool = True,
) -> tuple[Trajectory, ShotSummary] | ShotEnd:
    """Integrate one shot from ``u = d`` across the whole domain.

    Returns the sampled profile and its summary, or with
    ``profile=False`` only the :class:`ShotEnd`, with the same terminal
    angle, end state and step count.  That kind runs
    :func:`~plapshoot.odeint.end_state`: the field reads ``u`` and ``v``,
    not the angle, so the generated march forms no stage values of the
    angle.
    Raises :class:`NearConstantShotError` if the phase-plane radius
    collapses below ``RHO_FLOOR`` along the way, and
    :class:`IntegrationError` if the integrator gives up.
    """
    ivp = _shot_start(d, spec, cfg or SolverConfig())
    if not profile:
        (u, v, th), n_steps, n_evals = end_state(ivp)
        return ShotEnd(d, th, u, v, n_steps, n_evals)
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
