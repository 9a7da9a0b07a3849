"""Benchmark workloads: inputs from a seed, the jobs of one pass, and checks.

Each workload is a short list of jobs that run back to back on one
thread.  Seed 0 gives the canonical inputs, for which reference answers
are known; other seeds jitter parameters only inside ranges where an
oracle still holds, and narrowly enough that the work done per pass
stays nearly the same.

Jobs call the package through module attributes (``solver.find_solutions``
and so on), so wrappers installed by :mod:`tracer` are the functions
that run.  Checks only read attributes of the answers, which lets the
tests feed them fabricated wrong answers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from plapshoot import branch, eigen, solver
from plapshoot.config import SolverConfig
from plapshoot.ptrig import pi_p
from plapshoot.radial import Ball, Nonlinearity, ProblemSpec

# The acceptance suite's solve configuration, and the configuration of
# the sweep jobs (coarser grid and integrator, relaxed flux residual).
SOLVE_CFG = SolverConfig(d_grid_size=400, rel_tol=1e-10, abs_tol=1e-12)
SWEEP_CFG = SolverConfig(
    d_grid_size=150, rel_tol=1e-9, abs_tol=1e-11, residual_tol=1e-6
)

# Seed-0 roots, by side, for zero counts 1, 2 and 3.
Q100_REFS = {
    "lower": (0.680362307359273, 0.9225406007231804, 0.9867878511745662),
    "upper": (1.0347301863057945, 1.023064671962235, 1.0092165629175731),
}
RSTAR_REF = 3.423828125

ROOT_TOL = 1e-8
RESIDUAL_TOL = 1e-7
EIGEN_REL_TOL = 1e-6
ONSET_REL_TOL = 1e-2
RSTAR_REL_TOL = 1.5e-3

Check = tuple[str, bool]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and README.md say why each exists.

    ``inputs(seed)`` returns a dict of plain values; ``contexts(inputs)``
    the exponents whose p-trig contexts the jobs use; ``jobs(inputs)``
    the ``(job_id, thunk)`` pairs of one pass; ``check(inputs, answers)``
    labelled pass/fail checks on the answers of one pass.
    """

    name: str
    inputs: Callable[[int], dict]
    contexts: Callable[[dict], tuple[float, ...]]
    jobs: Callable[[dict], list[tuple[str, Callable[[], object]]]]
    check: Callable[[dict, dict], list[Check]]


def _jitter(seed: int, centre: float, half_width: float, rng: random.Random) -> float:
    return centre if seed == 0 else rng.uniform(centre - half_width, centre + half_width)


def _check_solutions(inputs: dict, answers: dict) -> list[Check]:
    """Zero counts, reference roots (seed 0 only), residual and positivity."""
    checks: list[Check] = []
    refs = inputs["refs"]
    for side in inputs["sides"]:
        recs = answers[side]
        counts = [rec.zeros for rec in recs]
        checks.append((f"{side}: zero counts {counts} == [1, 2, 3]", counts == [1, 2, 3]))
        for rec in recs:
            tag = f"{side} j={rec.zeros}"
            on_side = rec.d < 1.0 if side == "lower" else rec.d > 1.0
            checks.append((f"{tag}: d={rec.d!r} on the {side} side", rec.side == side and on_side))
            checks.append((f"{tag}: residual {rec.residual:.2e}", rec.residual <= RESIDUAL_TOL))
            checks.append((f"{tag}: min u {rec.summary.min_u:.3e} > 0", rec.summary.min_u > 0.0))
            if side in refs:
                ref = refs[side][rec.zeros - 1]
                checks.append((f"{tag}: d={rec.d!r} vs reference {ref!r}", abs(rec.d - ref) <= ROOT_TOL))
    return checks


def _solve_jobs(inputs: dict):
    spec = ProblemSpec(
        p=inputs["p"], dim=1, domain=Ball(1.0), g=Nonlinearity(q=inputs["q"])
    )
    return [
        (side, lambda side=side: solver.find_solutions(spec, SOLVE_CFG, 3, (side,)))
        for side in inputs["sides"]
    ]


def _solve_q100_inputs(seed: int) -> dict:
    # 2 + 9 pi^2 < q < 2 + 16 pi^2 keeps exactly three lower-side roots.
    rng = random.Random(seed)
    return {
        "p": 2.0,
        "q": _jitter(seed, 100.0, 2.0, rng),
        "sides": ("lower", "upper"),
        "refs": Q100_REFS if seed == 0 else {},
    }


def _sweep_inputs(seed: int) -> dict:
    # rstar does not depend on the starting radius, and the onset does
    # not depend on the exponent of the spec (the predicate replaces it)
    # or on q_hi.  A jittered q_hi stays in [45, 49], where the onset
    # bisection always takes the same number of halvings.
    rng = random.Random(seed)
    return {
        "rstar_p": 1.8,
        "rstar_q": 3.0,
        "rstar_r0": _jitter(seed, 1.0, 0.05, rng),
        "onset_q": _jitter(seed, 15.0, 3.0, rng),
        "onset_q_lo": 2.1,
        "onset_q_hi": 50.0 if seed == 0 else rng.uniform(45.0, 49.0),
    }


def _sweep_jobs(inputs: dict):
    rstar_spec = ProblemSpec(
        p=inputs["rstar_p"],
        dim=1,
        domain=Ball(inputs["rstar_r0"]),
        g=Nonlinearity(q=inputs["rstar_q"]),
    )
    onset_spec = ProblemSpec(
        p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=inputs["onset_q"])
    )
    return [
        ("rstar", lambda: solver.rstar(1, rstar_spec, SWEEP_CFG)),
        (
            "onset",
            lambda: branch.bifurcation_onset(
                onset_spec,
                1,
                SWEEP_CFG,
                q_lo=inputs["onset_q_lo"],
                q_hi=inputs["onset_q_hi"],
            ),
        ),
    ]


def _check_sweep(inputs: dict, answers: dict) -> list[Check]:
    onset_ref = 2.0 + math.pi**2
    onset = answers["onset"]
    r_star = answers["rstar"]
    return [
        (f"onset {onset!r} within 1% of 2 + pi^2", abs(onset - onset_ref) <= ONSET_REL_TOL * onset_ref),
        (f"rstar {r_star!r} vs {RSTAR_REF!r}", abs(r_star - RSTAR_REF) <= RSTAR_REL_TOL * RSTAR_REF),
    ]


def _eigen_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "ladders": (
            (_jitter(seed, 1.5, 0.02, rng), 1, (2, 3, 4)),
            (_jitter(seed, 3.0, 0.05, rng), 1, (2, 3, 4)),
            (_jitter(seed, 2.5, 0.05, rng), 3, (2, 3)),
        )
    }


def _eigen_jobs(inputs: dict):
    jobs = []
    for p, dim, ks in inputs["ladders"]:
        spec = ProblemSpec(p=p, dim=dim, domain=Ball(1.0))
        for k in ks:
            jobs.append((f"p={p!r} N={dim} k={k}", lambda k=k, spec=spec: eigen.eigenvalue(k, spec)))
    return jobs


def _check_eigen(inputs: dict, answers: dict) -> list[Check]:
    """N=1: the closed form ((k-1) pi_p)^p; N>1: strictly increasing in k."""
    checks: list[Check] = []
    for p, dim, ks in inputs["ladders"]:
        lams = [answers[f"p={p!r} N={dim} k={k}"].lam for k in ks]
        if dim == 1:
            for k, lam in zip(ks, lams):
                ref = ((k - 1) * pi_p(p)) ** p
                checks.append((f"p={p!r} k={k}: {lam!r} vs {ref!r}", abs(lam - ref) <= EIGEN_REL_TOL * ref))
        else:
            ok = lams[0] > 0.0 and all(b > a for a, b in zip(lams, lams[1:]))
            checks.append((f"p={p!r} N={dim}: {lams} strictly increasing", ok))
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-q100",
            _solve_q100_inputs,
            lambda inputs: (),
            _solve_jobs,
            _check_solutions,
        ),
        Workload(
            "sweep",
            _sweep_inputs,
            lambda inputs: (),
            _sweep_jobs,
            _check_sweep,
        ),
        Workload(
            "eigen-ladder",
            _eigen_inputs,
            lambda inputs: tuple(p for p, _, _ in inputs["ladders"]),
            _eigen_jobs,
            _check_eigen,
        ),
    )
}


def run_pass(workload: Workload, inputs: dict) -> dict:
    """Run every job of one pass, untimed."""
    return {job_id: thunk() for job_id, thunk in workload.jobs(inputs)}


def fingerprint(answers: dict) -> tuple:
    """Exact bit pattern of a pass's answers, for determinism checks."""

    def one(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, list):
            return tuple(
                (r.side, r.zeros, r.d.hex(), r.theta_end.hex(), r.residual.hex())
                for r in x
            )
        return (x.k, x.lam.hex(), x.residual.hex())

    return tuple((job, one(x)) for job, x in answers.items())
