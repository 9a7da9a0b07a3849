"""Spans and counts at the package's public boundaries, taken from outside.

The tracer replaces public names in the modules that call them (for
example ``solver.shoot``, which is what the scan and the bisection look
up) with wrappers that open a span, call the original and close the
span.  Nothing under ``src/`` changes, the arithmetic is untouched, and
:meth:`Tracer.uninstall` puts every original back.  A name that is
missing is skipped, so a boundary that a later version removes reports
zero instead of failing.

Spans (name, start, end, parent, job id) are kept in memory.  The right
hand side of every integration is counted and timed by wrapping
``IvpSpec.rhs`` on its way into ``integrate``; ``PTrigContext.pair`` is
counted and timed without spans, because it runs about 10^5 times per
eigenvalue.
"""

from __future__ import annotations

import dataclasses
import logging
from time import perf_counter

from plapshoot import branch, eigen, errors, ptrig, radial, solver


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error", "d",
                 "rhs_n", "rhs_s", "steps", "results")
    COLUMNS = ("name", "start", "end", "parent", "job", "error", "d", "rhs_evals", "steps")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.error = None
        self.d = None
        self.rhs_n = 0
        self.rhs_s = 0.0
        self.steps = 0
        self.results = 0

    def as_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job,
                self.error, self.d, self.rhs_n, self.steps]


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Installs wrappers on the package and collects spans and counts."""

    def __init__(self):
        self.job = None
        self._patches: list[tuple[object, str, object]] = []
        self._warnings = _WarningCounter()
        self.reset()

    def reset(self) -> None:
        """Forget every span and count collected so far."""
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pair_n = 0
        self.pair_s = 0.0
        self._warnings.count = 0

    @property
    def warnings(self) -> int:
        """WARNING records from the ``plapshoot.solver`` logger."""
        return self._warnings.count

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def _spanned(self, name: str, fn, record_d=False, count_results=False):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if record_d:
                span.d = args[0]
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            if count_results:
                span.results = len(out)
            self._close(span)
            return out

        return wrapper

    def _integrate(self, fn):
        def wrapper(ivp, *args, **kwargs):
            span = self._open("odeint.integrate")
            rhs = ivp.rhs

            def counted(r, y):
                t0 = perf_counter()
                try:
                    return rhs(r, y)
                finally:
                    span.rhs_s += perf_counter() - t0
                    span.rhs_n += 1

            try:
                sol = fn(dataclasses.replace(ivp, rhs=counted), *args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            span.steps = sol.n_steps
            self._close(span)
            return sol

        return wrapper

    def _pair(self, fn):
        def wrapper(ctx, theta):
            t0 = perf_counter()
            try:
                return fn(ctx, theta)
            finally:
                self.pair_s += perf_counter() - t0
                self.pair_n += 1

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced boundary; missing names are skipped."""
        span = self._spanned
        for mod in (radial, eigen, ptrig):
            self._patch(mod, "integrate", self._integrate)
        self._patch(radial, "crossings", lambda f: span("odeint.crossings", f))
        self._patch(solver, "shoot", lambda f: span("radial.shot", f, record_d=True))
        self._patch(solver, "theta_scan", lambda f: span("solver.scan", f))
        self._patch(solver, "find_solutions", lambda f: span("solver.find_solutions", f, count_results=True))
        self._patch(solver, "rstar", lambda f: span("solver.rstar", f))
        self._patch(branch, "bifurcation_onset", lambda f: span("branch.onset", f))
        self._patch(eigen, "eigenvalue", lambda f: span("eigen.eigenvalue", f))
        self._patch(eigen, "eigen_angle", lambda f: span("eigen.angle", f))
        self._patch(ptrig.PTrigContext, "__init__", lambda f: span("ptrig.context_build", f))
        self._patch(ptrig.PTrigContext, "pair", self._pair)
        logging.getLogger("plapshoot.solver").addHandler(self._warnings)

    def uninstall(self) -> None:
        """Put every original name back."""
        logging.getLogger("plapshoot.solver").removeHandler(self._warnings)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _ancestors(spans: list[Span], span: Span):
    i = span.parent
    while i is not None:
        yield spans[i]
        i = spans[i].parent


def _under(spans: list[Span], span: Span, name: str) -> bool:
    return any(a.name == name for a in _ancestors(spans, span))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer collected since its reset.

    Self time of a shot is its duration minus the ``integrate`` calls it
    made, so it holds start-up, profile sampling and zero location.
    """
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(group):
        return sum(s.end - s.start for s in group)

    integ = named("odeint.integrate")
    done = [s for s in integ if s.error is None]
    shots = named("radial.shot")
    scan_shots = [s for s in shots if _under(spans, s, "solver.scan")]
    refine_shots = [s for s in shots if not _under(spans, s, "solver.scan")]
    shot_integ = [s for s in integ if s.parent is not None and spans[s.parent].name == "radial.shot"]
    scans = named("solver.scan")
    angles = named("eigen.angle")
    eigenvalues = named("eigen.eigenvalue")
    roots = sum(s.results for s in named("solver.find_solutions"))
    collapsed = sum(s.error == errors.NearConstantShotError.__name__ for s in shots)
    failed = sum(s.error is not None for s in shots) - collapsed
    rhs_evals = sum(s.rhs_n for s in integ)
    rhs_s = sum(s.rhs_s for s in integ)
    steps = sum(s.steps for s in done)
    return {
        "odeint.integrate_calls": len(integ),
        "odeint.steps": steps,
        "odeint.rhs_evals": rhs_evals,
        "odeint.integrate_s": dur(integ),
        "odeint.rhs_s": rhs_s,
        "odeint.self_s": dur(integ) - rhs_s,
        "odeint.evals_per_step": _ratio(sum(s.rhs_n for s in done), steps),
        "odeint.crossings_s": dur(named("odeint.crossings")),
        "odeint.aborted_evals": sum(s.rhs_n for s in integ if s.error is not None),
        "radial.shots": len(shots),
        "radial.shots_collapsed": collapsed,
        "radial.shots_failed": failed,
        "radial.useful_shot_frac": _ratio(len(shots) - collapsed - failed, len(shots)),
        "radial.shot_s": dur(shots),
        "radial.shot_self_s": dur(shots) - dur(shot_integ),
        "radial.evals_per_shot": _ratio(sum(s.rhs_n for s in shot_integ), len(shots)),
        "solver.scans": len(scans),
        "solver.scan_shots": len(scan_shots),
        "solver.scan_s": dur(scans),
        "solver.refine_shots": len(refine_shots),
        "solver.refine_s": dur(refine_shots),
        "solver.roots": roots,
        "solver.rejected": tracer.warnings,
        "solver.refine_shots_per_root": _ratio(len(refine_shots), roots),
        "solver.rstar_scans": sum(_under(spans, s, "solver.rstar") for s in scans),
        "solver.rstar_s": dur(named("solver.rstar")),
        "branch.onset_scans": sum(_under(spans, s, "branch.onset") for s in scans),
        "branch.onset_s": dur(named("branch.onset")),
        "eigen.eigenvalue_calls": len(eigenvalues),
        "eigen.angle_calls": len(angles),
        "eigen.angles_per_eigenvalue": _ratio(
            sum(_under(spans, s, "eigen.eigenvalue") for s in angles), len(eigenvalues)
        ),
        "eigen.angle_s": dur(angles),
        "ptrig.pair_calls": tracer.pair_n,
        "ptrig.pair_s": tracer.pair_s,
    }


def shot_counts_by_side(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Shots and collapsed shots with d < 1 ("lower") and d > 1 ("upper")."""
    out = {"lower": {"shots": 0, "collapsed": 0}, "upper": {"shots": 0, "collapsed": 0}}
    for s in tracer.spans:
        if s.name != "radial.shot":
            continue
        side = out["lower" if s.d < 1.0 else "upper"]
        side["shots"] += 1
        side["collapsed"] += s.error == errors.NearConstantShotError.__name__
    return out
