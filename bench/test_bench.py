"""Tests of the benchmark itself: every checker fails a wrong answer, and
tracing changes no answer.  From the root of a checkout::

    python3 -m pytest -q bench
"""

import signal
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plapshoot import eigen, radial, solver  # noqa: E402
from plapshoot.config import SolverConfig  # noqa: E402
from plapshoot.eigen import EigenResult  # noqa: E402
from plapshoot.ptrig import pi_p  # noqa: E402
from plapshoot.radial import Ball, Nonlinearity, ProblemSpec  # noqa: E402

import calibration  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_counts, shot_counts_by_side  # noqa: E402


@dataclass(frozen=True)
class FakeSummary:
    min_u: float


@dataclass(frozen=True)
class FakeRecord:
    d: float
    side: str
    zeros: int
    residual: float
    summary: FakeSummary


def failures(checks):
    return [label for label, ok in checks if not ok]


def solve_answers(refs):
    return {
        side: [FakeRecord(d, side, j, 1e-9, FakeSummary(0.5)) for j, d in enumerate(ds, 1)]
        for side, ds in refs.items()
    }


def test_solve_checker_accepts_the_reference_roots():
    inputs = wl.WORKLOADS["solve-q100"].inputs(0)
    assert failures(wl._check_solutions(inputs, solve_answers(wl.Q100_REFS))) == []


def test_solve_checker_fails_a_root_shifted_by_1e_6():
    inputs = wl.WORKLOADS["solve-q100"].inputs(0)
    answers = solve_answers(wl.Q100_REFS)
    answers["lower"][1] = replace(answers["lower"][1], d=answers["lower"][1].d + 1e-6)
    assert len(failures(wl._check_solutions(inputs, answers))) == 1


def test_solve_checker_fails_a_missing_zero_count():
    inputs = wl.WORKLOADS["solve-q100"].inputs(0)
    answers = solve_answers(wl.Q100_REFS)
    del answers["upper"][2]
    failed = failures(wl._check_solutions(inputs, answers))
    assert len(failed) == 1 and failed[0].startswith("upper: zero counts [1, 2]")


def test_solve_checker_without_references_still_checks_counts_residual_positivity():
    inputs = wl.WORKLOADS["solve-q100"].inputs(7)
    assert inputs["refs"] == {} and 98.0 <= inputs["q"] <= 102.0
    good = solve_answers({"lower": (0.6, 0.9, 0.98), "upper": (1.03, 1.02, 1.01)})
    assert failures(wl._check_solutions(inputs, good)) == []
    for bad in (
        replace(good["upper"][0], residual=1e-6),
        replace(good["upper"][0], summary=FakeSummary(-0.1)),
        replace(good["upper"][0], d=0.99),
    ):
        assert failures(wl._check_solutions(inputs, {**good, "upper": [bad] + good["upper"][1:]}))


def eigen_answers(inputs):
    answers = {}
    for p, dim, ks in inputs["ladders"]:
        for k in ks:
            lam = ((k - 1) * pi_p(p)) ** p if dim == 1 else 10.0 * k
            answers[f"p={p!r} N={dim} k={k}"] = EigenResult(k=k, lam=lam, residual=0.0)
    return answers


def test_eigen_checker_fails_an_eigenvalue_off_by_1e_5():
    inputs = wl.WORKLOADS["eigen-ladder"].inputs(0)
    answers = eigen_answers(inputs)
    assert failures(wl._check_eigen(inputs, answers)) == []
    job = "p=3.0 N=1 k=4"
    answers[job] = replace(answers[job], lam=answers[job].lam * (1.0 + 1e-5))
    failed = failures(wl._check_eigen(inputs, answers))
    assert len(failed) == 1 and failed[0].startswith("p=3.0 k=4")


def test_eigen_checker_fails_a_ladder_out_of_order():
    inputs = wl.WORKLOADS["eigen-ladder"].inputs(0)
    answers = eigen_answers(inputs)
    answers["p=2.5 N=3 k=3"] = EigenResult(k=3, lam=5.0, residual=0.0)
    assert len(failures(wl._check_eigen(inputs, answers))) == 1


def test_sweep_checker_fails_answers_outside_their_accuracy():
    inputs = wl.WORKLOADS["sweep"].inputs(0)
    good = {"rstar": wl.RSTAR_REF, "onset": 11.87}
    assert failures(wl._check_sweep(inputs, good)) == []
    assert len(failures(wl._check_sweep(inputs, {**good, "rstar": wl.RSTAR_REF * 1.002}))) == 1
    assert len(failures(wl._check_sweep(inputs, {**good, "onset": 12.1}))) == 1


def test_inputs_repeat_for_a_seed_and_seed_zero_is_canonical():
    for workload in wl.WORKLOADS.values():
        assert workload.inputs(3) == workload.inputs(3)
        assert workload.inputs(3) != workload.inputs(4)
    assert wl.WORKLOADS["solve-q100"].inputs(0)["q"] == 100.0
    assert wl.WORKLOADS["sweep"].inputs(0)["onset_q_hi"] == 50.0


def test_a_missing_boundary_reports_zero(monkeypatch):
    """A removed name is neither wrapped nor put back; its counts are zero
    while the boundaries that remain are still counted."""
    monkeypatch.delattr(radial, "crossings")
    original = eigen.integrate
    tracer = Tracer()
    tracer.install()
    try:
        assert all(attr != "crossings" for _, attr, _ in tracer._patches)
        eigen.eigenvalue(2, ProblemSpec(p=2.0, dim=1, domain=Ball(1.0)))
    finally:
        tracer.uninstall()
    assert not hasattr(radial, "crossings") and eigen.integrate is original
    counts = layer_counts(tracer)
    assert counts["odeint.crossings_s"] == 0
    assert counts["eigen.angle_calls"] > 0 and counts["odeint.rhs_evals"] > 0


def test_tracing_repeats_counts_and_restores_every_name():
    original = solver.shoot
    spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=15.0))
    cfg = SolverConfig(d_grid_size=16, rel_tol=1e-8, abs_tol=1e-10)
    counts = []
    tracer = Tracer()
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            solver.find_solutions(spec, cfg, 1, ("lower", "upper"))
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in layer_counts(tracer).items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["radial.shots"] > 32 and counts[0]["odeint.rhs_evals"] > 0
    assert solver.shoot is original


def test_traced_solve_is_bit_identical_and_matches_the_seed_counts():
    """Lower side of solve-q100 at seed 0: 498 shots, 2 collapsed.

    The counts are those of the seed commit's scan-and-bisect search; a
    change to the search algorithm changes them on purpose.
    """
    workload = wl.WORKLOADS["solve-q100"]
    inputs = {**workload.inputs(0), "sides": ("lower",)}
    untraced = wl.run_pass(workload, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_pass(workload, inputs)
    finally:
        tracer.uninstall()
    assert wl.fingerprint(traced) == wl.fingerprint(untraced)
    assert shot_counts_by_side(tracer)["lower"] == {"shots": 498, "collapsed": 2}


def test_calibration_sampler_counts_its_own_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler() as sampler:
        end = perf_counter() + 5 * calibration.INTERVAL_S
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert sampler.spent[0] == sum(w for w, _ in sampler.samples)
    assert calibration.scale([(calibration.REFERENCE_S, calibration.REFERENCE_S / 2)] * 3) == (1.0, 2.0)
    assert all(f > 0 for f in calibration.scale([]))
