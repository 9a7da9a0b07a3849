"""Benchmark of plapshoot: time to a validated answer, per workload.

Run from the root of a checkout::

    python3 bench/run.py --workload solve-q100 --seed 0 --seconds 30 --trace 0

One process, one thread, a closed loop: the jobs of a workload run back
to back, and passes over them repeat until about ``--seconds`` have
gone by.  Every answer is checked against its oracle after the timed
section.  The last line of stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` (checks made and failed) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a report with the seed, the
inputs, every pass time and ``check_fail_frac``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import calibration

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 25
SETUP_SAMPLES = 10

# Set-up as every CLI invocation pays it: import of the CLI module plus
# the p-trig contexts the workload needs, timed in a fresh interpreter.
SETUP_PROBE = """\
import sys
from time import perf_counter
t0 = perf_counter()
import plapshoot.cli
from plapshoot.ptrig import get_context
for p in sys.argv[1:]:
    get_context(float(p))
print(repr(perf_counter() - t0))
"""


def _import_package():
    """Import the package from this checkout's ``src``, or exit with an error."""
    if not (SRC / "plapshoot" / "__init__.py").is_file():
        sys.exit(f"error: no plapshoot package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import plapshoot

    if Path(plapshoot.__file__).resolve().parent != (SRC / "plapshoot").resolve():
        sys.exit(f"error: imported plapshoot from {plapshoot.__file__}, not {SRC}")


def setup_seconds(ps: tuple[float, ...]) -> list[tuple[float, float]]:
    """Set-up times over fresh interpreters, after one warm-up.

    Returns each time as measured and in reference seconds, scaled by
    calibration samples taken right after it: the host's speed changes
    every few tenths of a second, and a probe takes about a tenth.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *map(repr, ps)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples = [calibration.sample() for _ in range(SETUP_SAMPLES)]
        times.append((seconds, seconds * calibration.scale(samples)[0]))
    return times[1:]


def timed_passes(workload, inputs, seconds: float) -> list[tuple[float, float, list, dict]]:
    """Passes back to back until the next would end past ``seconds``
    by more than half a pass; always at least one.

    Returns ``(wall, cpu, samples, answers)`` of each pass: its time with
    the calibration samples' time taken out, and those samples.
    """
    jobs = workload.jobs(inputs)
    passes = []
    with calibration.Sampler() as sampler:
        start = perf_counter()
        while True:
            gc.collect()
            n0, spent_0 = len(sampler.samples), sampler.spent
            t0, c0 = perf_counter(), process_time()
            answers = {job_id: thunk() for job_id, thunk in jobs}
            t1, c1 = perf_counter(), process_time()
            n1, spent_1 = len(sampler.samples), sampler.spent
            wall = t1 - t0 - (spent_1[0] - spent_0[0])
            cpu = c1 - c0 - (spent_1[1] - spent_0[1])
            passes.append((wall, cpu, sampler.samples[n0:n1], answers))
            elapsed = t1 - start
            mean = elapsed / len(passes)
            if elapsed + 0.5 * mean > seconds:
                return passes


def check_passes(workload, inputs, answer_sets: list[dict]) -> list[tuple[str, bool]]:
    """Oracle checks on every pass, plus bit-identity with the first."""
    from workloads import fingerprint

    reference = fingerprint(answer_sets[0])
    checks = []
    for i, answers in enumerate(answer_sets):
        checks.extend((f"pass {i}: {label}", ok) for label, ok in workload.check(inputs, answers))
        checks.append((f"pass {i}: answers bit-identical to the reference pass", fingerprint(answers) == reference))
    return checks


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _metric_doc(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_untraced(workload, inputs, seconds: float, report: dict) -> tuple[list, dict]:
    from plapshoot.ptrig import get_context

    setup_runs = setup_seconds(workload.contexts(inputs))
    for p in workload.contexts(inputs):
        get_context(p)
    passes = timed_passes(workload, inputs, seconds)
    checks = check_passes(workload, inputs, [answers for *_, answers in passes])
    scales = [calibration.scale(samples) for _, _, samples, _ in passes]
    measured = {
        "wall_s": statistics.median(w for w, *_ in passes),
        "cpu_s": statistics.median(c for _, c, *_ in passes),
        "setup_s": statistics.median(raw for raw, _ in setup_runs),
    }
    values = {
        "wall_s": statistics.median(w * f for (w, *_), (f, _) in zip(passes, scales)),
        "cpu_s": statistics.median(c * f for (_, c, *_), (_, f) in zip(passes, scales)),
        "setup_s": statistics.median(scaled for _, scaled in setup_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report.update(
        measured={name: {"value": v, "unit": "s"} for name, v in measured.items()},
        pass_wall_s=[w for w, *_ in passes],
        pass_cpu_s=[c for _, c, *_ in passes],
        pass_samples=[len(samples) for _, _, samples, _ in passes],
        pass_scales=scales,
        setup_runs_s=[raw for raw, _ in setup_runs],
        setup_runs_scaled_s=[scaled for _, scaled in setup_runs],
    )
    return checks, _metric_doc(values, declared_units("end_to_end"))


def _timed(thunk, tracer=None) -> tuple[float, object]:
    """Wall time of one job in reference seconds, and its result, under
    ``tracer`` if one is given.

    The calibration samples run inside the job, so the spans of a traced
    job include their time, about 1% of it.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        with calibration.Sampler() as sampler:
            t0 = perf_counter()
            out = thunk()
            wall = perf_counter() - t0 - sampler.spent[0]
        return wall * calibration.scale(sampler.samples)[0], out
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_traced(workload, inputs, seed: int, report: dict) -> tuple[list, dict]:
    """Two rounds over the jobs.  In each, every job runs once untraced
    and once traced: untraced first in round one, traced first in round
    two, so that a drift in host speed cancels.  Job times are in
    reference seconds, as in the untraced run.

    Every answer must match round one's untraced answers bit for bit,
    and the two rounds must give the same counts.  Metrics come from
    round one.  ``trace.overhead_frac`` is the median over all jobs of
    both rounds of traced over untraced time, minus one.  The spans of
    the whole run go to ``.bench_out/``.
    """
    from plapshoot.ptrig import get_context
    from tracer import Span, Tracer, layer_counts, shot_counts_by_side

    tracer = Tracer()
    tracer.job = "setup"
    tracer.install()
    try:
        for p in workload.contexts(inputs):
            get_context(p)
    finally:
        tracer.uninstall()
    build_s = sum(s.end - s.start for s in tracer.spans if s.name == "ptrig.context_build")
    spans = [tracer.spans]

    answer_sets, rounds, ratios = [], [], []
    for traced_first in (False, True):
        tracer.reset()
        untraced, traced = {}, {}
        for job_id, thunk in workload.jobs(inputs):
            tracer.job = job_id
            times = {}
            for on in (traced_first, not traced_first):
                times[on], out = _timed(thunk, tracer if on else None)
                (traced if on else untraced)[job_id] = out
            ratios.append(times[True] / times[False])
        answer_sets += [untraced, traced]
        rounds.append((layer_counts(tracer), shot_counts_by_side(tracer)))
        spans.append(tracer.spans)

    checks = check_passes(workload, inputs, answer_sets)
    (layers_1, sides_1), (layers_2, _) = rounds
    counts_1 = {k: v for k, v in layers_1.items() if not k.endswith("_s")}
    counts_2 = {k: v for k, v in layers_2.items() if not k.endswith("_s")}
    checks.append(("traced rounds give identical counts", counts_1 == counts_2))

    values = dict(layers_1)
    values["ptrig.context_build_s"] = build_s
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    report.update(traced_over_untraced=ratios, shots_by_side=sides_1)

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "columns": Span.COLUMNS,
        "phases": [[s.as_row() for s in group] for group in spans],
    }))
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return checks, _metric_doc(values, declared_units("per_layer"))


def declared_units(kind: str) -> dict[str, str]:
    """Names and units of the ``kind`` metrics declared in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # workloads and tracer import plapshoot, so they (and the functions
    # above that use them) import it only once src/ is on the path.
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "inputs": {k: v for k, v in inputs.items() if k != "refs"},
              "src_lines": src_lines()}
    if args.trace:
        checks, metrics = run_traced(workload, inputs, args.seed, report)
    else:
        checks, metrics = run_untraced(workload, inputs, args.seconds, report)

    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"check failed: {label}", file=sys.stderr)
    report["check_fail_frac"] = {"value": len(failed) / len(checks), "unit": "1"}
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
