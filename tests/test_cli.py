"""End-to-end command line tests through plapshoot.cli.run."""

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

from plapshoot import cli, ptrig
from plapshoot.cli import build_parser, run
from plapshoot.config import SolverConfig
from plapshoot.eigen import eigenvalue
from plapshoot.ptrig import get_context, pi_p
from plapshoot.radial import (
    Annulus,
    Ball,
    Nonlinearity,
    ProblemSpec,
    ShotSummary,
    shoot,
)
from plapshoot.solver import find_solutions, rstar


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_ptrig_single_angle(capsys):
    doc = run_json(
        capsys, ["ptrig", "--p", "2", "--theta", str(math.pi / 3.0)]
    )
    assert doc["pi_p"] == pytest.approx(math.pi, abs=1e-14)
    assert doc["cos_p"] == pytest.approx(0.5, abs=1e-12)
    assert doc["sin_p"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert doc["identity_defect"] <= 1e-12


def test_ptrig_table_csv_stdout(capsys):
    rc = run(["ptrig", "--p", "3", "--table", "9", "--out", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["theta", "cos_p", "sin_p"]
    assert len(rows) == 10
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == 1.0
    # Half of the table span is one full antiperiod.
    mid = rows[5]
    assert float(mid[0]) == pytest.approx(pi_p(3.0), rel=1e-15)
    assert float(mid[1]) == pytest.approx(-1.0, abs=1e-9)
    assert abs(float(mid[2])) <= 1e-9


def test_ptrig_table_file_roundtrips_doubles(capsys, tmp_path):
    path = tmp_path / "trig.csv"
    doc = run_json(
        capsys, ["ptrig", "--p", "2.5", "--table", "33", "--out", str(path)]
    )
    assert doc["out"] == str(path)
    ctx = get_context(2.5)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 33
    for i, row in enumerate(rows):
        theta = 2.0 * ctx.pi_p * i / 32
        c, s = ctx.pair(theta)
        # 17 significant digits reproduce the exact doubles.
        assert float(row[0]) == theta
        assert float(row[1]) == c
        assert float(row[2]) == s


_TABLES = {
    "ptrig": ["ptrig", "--p", "3", "--table", "9"],
    "shoot": ["shoot", "--p", "2", "--g", "pow:15", "--d", "0.5"],
    "branch": [
        "branch", "--p", "2", "--g", "pow:15", "--start", "12", "--stop", "20",
        "--steps", "2", "--max-zeros", "1", "--sides", "lower", "--grid", "40",
    ],
}


@pytest.mark.parametrize("command", sorted(_TABLES))
def test_out_dash_prints_the_csv_that_out_file_writes(
    capsys, tmp_path, monkeypatch, command
):
    path = tmp_path / "table.csv"
    doc = run_json(capsys, _TABLES[command] + ["--out", str(path)])
    assert doc["out"] == str(path)
    # `-` once named a file: now it is stdout, with nothing but the CSV.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run(_TABLES[command] + ["--out", "-"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 2
    assert out == path.read_bytes().decode()
    assert list(cwd.iterdir()) == []


def test_ptrig_theta_with_out_exits_two(capsys, tmp_path):
    # A single angle makes no table; --out was once dropped here.
    path = tmp_path / "t.csv"
    assert run(["ptrig", "--p", "3", "--theta", "1", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--out needs --table" in err
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--out"])
def test_unwritable_branch_output_exits_two_before_the_sweep(capsys, tmp_path, monkeypatch, flag):
    # The path was once opened only after the sweep, whose work an
    # unwritable path then threw away.
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "branch_sweep", no_sweep)
    path = tmp_path / "missing" / "b.csv"
    assert run(_TABLES["branch"] + [flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


# The first radius of this sweep is -1, so it fails after the --out probe.
_FAILING_BRANCH = [
    "branch", "--p", "2", "--g", "pow:15", "--param", "R", "--start", "-1",
    "--stop", "12", "--steps", "2", "--grid", "20", "--max-zeros", "1",
]
_BAD_RADIUS = "error: ball radius must be a finite number > 0.0, got -1.0\n"


@pytest.mark.parametrize("flag", ["--out"])
def test_failed_branch_keeps_an_existing_output_file(capsys, tmp_path, flag):
    # The path is probed before the sweep; that probe once truncated it,
    # so a sweep that then failed left an empty file behind.
    path = tmp_path / "old"
    path.write_bytes(b"old,table\n")
    assert run(_FAILING_BRANCH + [flag, str(path)]) == 2
    assert capsys.readouterr().err == _BAD_RADIUS
    assert path.read_bytes() == b"old,table\n"


def test_failed_branch_leaves_no_new_output_file(capsys, tmp_path, monkeypatch):
    # The probe creates a new --out file; a failed sweep once left it
    # behind, empty.
    monkeypatch.chdir(tmp_path)
    assert run(_FAILING_BRANCH + ["--out", "new.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _BAD_RADIUS
    assert list(tmp_path.iterdir()) == []


def test_failed_branch_through_a_dangling_link_leaves_no_new_target(
    capsys, tmp_path, monkeypatch
):
    # The probe follows the link and creates its target; a failed sweep
    # once left that target behind, empty, and kept only the link.
    monkeypatch.chdir(tmp_path)
    os.symlink("target.csv", "link.csv")
    assert run(_FAILING_BRANCH + ["--out", "link.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _BAD_RADIUS
    assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]
    assert os.readlink("link.csv") == "target.csv"


_OUTPUTS = {
    "ptrig": _TABLES["ptrig"] + ["--out"],
    "shoot": _TABLES["shoot"] + ["--out"],
    "branch": _TABLES["branch"] + ["--out"],
}


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_unwritable_output_path_exits_two(capsys, tmp_path, command, where):
    # Each of these once ended in a FileNotFoundError or IsADirectoryError
    # traceback and exit 1, the code of a numerical failure.
    if where == "missing-parent":
        path, reason = tmp_path / "missing" / "x", "No such file or directory"
    else:
        path, reason = tmp_path, "Is a directory"
    assert run(_OUTPUTS[command] + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {path}: {reason}\n"


def test_a_reader_closing_stdout_stops_the_command_quietly():
    # Once a BrokenPipeError traceback: now exit 1 with nothing on stderr.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "plapshoot.cli", "ptrig", "--p", "2",
         "--table", "20000", "--out", "-"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline() == b"theta,cos_p,sin_p\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


class _FullStream(io.StringIO):
    """A stream on a full device: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_file_write_exits_two(capsys, tmp_path, monkeypatch):
    # Only a failed open was mapped; a failed write ended in a traceback.
    path = tmp_path / "x.csv"
    monkeypatch.setattr(cli, "_open_out", lambda *args: _FullStream())
    assert run(["ptrig", "--p", "2", "--table", "3", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {path}: No space left on device\n"


@pytest.mark.parametrize("argv", [["--theta", "1"], ["--table", "3", "--out", "-"]])
def test_a_failed_stdout_write_exits_two(capsys, tmp_path, monkeypatch, argv):
    # main points the descriptor of stdout at devnull, so that the flush
    # at exit does not fail again: here that of a scratch file.
    with open(tmp_path / "stdout", "w") as fh:
        stdout = _FullStream()
        stdout.fileno = fh.fileno
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "argv", ["plapshoot", "ptrig", "--p", "2", *argv])
        with pytest.raises(SystemExit) as stop:
            cli.main()
    assert stop.value.code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["--table", "3", "--out", "/dev/full"], None),
        (["--theta", "1"], "/dev/full"),
    ],
)
def test_a_full_device_stops_the_command_with_one_line(argv, stdout):
    # The flush at exit must not fail a second time ("Exception ignored").
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open(stdout or os.devnull, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "plapshoot.cli", "ptrig", "--p", "2", *argv],
            stdout=out,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
    where = "/dev/full" if stdout is None else "stdout"
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {where}: No space left on device\n".encode()


@pytest.mark.parametrize("command", [["ptrig", "--theta", "1"], ["eigen", "--k", "2"]])
def test_a_p_too_large_for_the_table_is_a_numerical_failure(capsys, command):
    # Once an OverflowError traceback out of the table's right hand side.
    assert run([command[0], "--p", "1e10", *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: quarter-period table for p=10000000000.0")
    assert "failed its endpoint check" in err


def test_a_table_off_the_p_circle_is_a_numerical_failure(capsys):
    # At p = 1000 the table's march drifts 4.8e-9 off the p-circle
    # identity, past the 1e-9 every knot must meet.
    assert run(["ptrig", "--p", "1000", "--theta", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "numerical failure: quarter-period table for p=1000.0 misses the p-circle identity by"
    )


@pytest.mark.parametrize("p", ["1e11", "1e12", "1e300"])
def test_a_p_past_the_table_series_fails_at_once(capsys, monkeypatch, p):
    # The series start misses the p-circle identity by more than 1e-9
    # from p of about 3e3 on, and has sin_p <= 0 from about 2e6 on; the
    # table's march from there once crawled to max_steps (3.95 s at 1e11,
    # about 5 s from 1e12 up).  Now no march runs.
    monkeypatch.setattr(ptrig, "integrate", None)
    start = time.perf_counter()
    assert run(["ptrig", "--p", p, "--theta", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"numerical failure: quarter-period table for p={float(p)!r}")
    assert "failed its endpoint check at its start" in err


def test_ptrig_requires_theta_or_table(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["ptrig", "--p", "2"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_ptrig_refuses_theta_with_table(capsys):
    # Given both, the table was once printed and --theta went unread.
    with pytest.raises(SystemExit) as exc:
        run(["ptrig", "--p", "3", "--theta", "1", "--table", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err


def test_ptrig_table_of_one_row_exits_two(capsys):
    assert run(["ptrig", "--p", "2", "--table", "1"]) == 2
    want = f"--table must be an integer in [2, {sys.maxsize}], got 1"
    assert want in capsys.readouterr().err


def test_eigen_tol_sets_both_tolerances(capsys, monkeypatch):
    configs = []

    def recorded(k, spec, cfg):
        configs.append(cfg)
        return eigenvalue(k, spec, cfg)

    monkeypatch.setattr(cli, "eigenvalue", recorded)
    run_json(capsys, ["eigen", "--p", "2", "--k", "2", "--tol", "1e-9"])
    [cfg] = configs
    assert cfg.rel_tol == 1e-9
    assert cfg.abs_tol == pytest.approx(1e-11, rel=1e-15)


@pytest.mark.parametrize("tol", ["1e-160", "1e-300"])
def test_eigen_tolerance_past_the_float_range_exits_one(capsys, tol):
    # abs_tol = tol / 100: squaring a slope scaled by it in the first
    # step guess overflows; that is a fallback step, not a traceback,
    # and the run then fails as numerics.
    assert run(["eigen", "--p", "2", "--k", "2", "--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: step size underflow" in err
    assert "Traceback" not in err


def test_eigen_cap_past_the_float_range_exits_two(capsys):
    assert run(["eigen", "--p", "2", "--k", "2", "--r", "1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: radius 1e-300 too small")
    assert "Traceback" not in err


def test_eigen_segment(capsys):
    doc = run_json(capsys, ["eigen", "--p", "2", "--k", "2"])
    assert doc["lambda"] == pytest.approx(math.pi**2, rel=1e-6)
    assert doc["residual"] <= 1e-8
    assert doc["k"] == 2


def test_eigen_annulus_flag(capsys):
    # N = 1 annulus of width 2: same spectrum as the length-2 segment.
    doc = run_json(
        capsys,
        ["eigen", "--p", "2.5", "--n", "1", "--annulus", "1", "3", "--k", "3"],
    )
    assert doc["lambda"] == pytest.approx(pi_p(2.5) ** 2.5, rel=1e-6)


def test_radius_and_annulus_are_exclusive(capsys):
    # Given both, the domain was once the annulus and --r went unread.
    with pytest.raises(SystemExit) as exc:
        run(["eigen", "--p", "2", "--k", "2", "--annulus", "1", "3", "--r", "5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_shoot_out_file_matches_library(capsys, tmp_path):
    path = tmp_path / "shot.csv"
    doc = run_json(
        capsys,
        ["shoot", "--p", "2", "--g", "pow:15", "--d", "0.5", "--out", str(path)],
    )
    assert doc["theta_end"] == pytest.approx(4.33954097003474, abs=1e-7)
    assert doc["zeros"] == 0

    spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=15.0))
    traj, summ = shoot(0.5, spec, SolverConfig())
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(traj.r)
    for row, r, u, v in zip(rows, traj.r, traj.u, traj.v):
        assert float(row[0]) == r
        assert float(row[1]) == u
        assert float(row[2]) == v
    assert doc["u_end"] == summ.u_end
    assert doc["n_steps"] == summ.n_steps


def test_shoot_collapsed_state_exits_one(capsys):
    rc = run(["shoot", "--p", "3", "--g", "pow:5", "--d", "0.99999"])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err


def test_bad_nonlinearity_exits_two(capsys):
    assert run(["shoot", "--p", "2", "--g", "pow", "--d", "0.5"]) == 2
    assert run(["shoot", "--p", "2", "--g", "cubic:3", "--d", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "pow:<q>" in err


def test_shoot_underflowing_start_up_radius_exits_two(capsys):
    argv = ["shoot", "--p", "2", "--n", "3", "--g", "pow:5", "--d", "0.5"]
    assert run(argv + ["--eps0", "1e-200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "start-up radius 1e-200 too small" in err
    assert "Traceback" not in err


def test_eigen_overflowing_start_up_weight_exits_two(capsys):
    argv = ["eigen", "--p", "1.1", "--n", "3", "--k", "2"]
    assert run(argv + ["--eps0", "1e-200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "start-up radius 1e-200 too small" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--k", "2"],
        ["shoot", "--g", "pow:5", "--d", "0.5"],
        ["solve", "--g", "pow:5"],
        ["branch", "--g", "pow:5", "--start", "4", "--stop", "5", "--steps", "2"],
        ["rstar", "--g", "pow:3", "--k", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_eps0_with_annulus_exits_two(capsys, argv):
    # An annulus starts at its inner radius; --eps0 was once dropped there.
    argv = argv + ["--p", "1.8", "--annulus", "0.5", "2", "--eps0", "5"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "an annulus starts at its inner radius 0.5" in err


_HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--k", _HUGE],
        ["solve", "--g", "pow:5", "--max-zeros", _HUGE],
        ["rstar", "--g", "pow:3", "--k", _HUGE],
        ["branch", "--g", "pow:5", "--start", "4", "--stop", "5", "--steps", _HUGE],
        ["ptrig", "--table", _HUGE],
    ],
    ids=lambda argv: argv[0],
)
def test_count_past_the_float_range_exits_two(capsys, argv):
    # Each of these once ended in a bare OverflowError.
    assert run(argv + ["--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be an integer in [" in err
    assert "Traceback" not in err


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["shoot", "--p", "2"])
    assert exc.value.code == 2


def test_bad_side_exits_two(capsys):
    rc = run(
        ["solve", "--p", "2", "--g", "pow:100", "--sides", "sideways"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "branch"])
@pytest.mark.parametrize("sides", [",", "lower,lower", " upper , upper"])
def test_repeated_or_no_sides_exit_two(capsys, command, sides):
    argv = [command, "--p", "2", "--g", "pow:15", "--sides", sides]
    if command == "branch":
        argv += ["--start", "12", "--stop", "20", "--steps", "2"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "distinct sides" in err


def test_sides_flag_is_split_once():
    parse = build_parser().parse_args
    base = ["--p", "2", "--g", "pow:15"]
    args = parse(["solve", *base, "--sides", " upper, ,lower"])
    assert args.sides == ("upper", "lower")
    assert parse(["solve", *base]).sides == ("lower", "upper")
    args = parse(["branch", *base, "--start", "1", "--stop", "2"])
    assert args.sides == ("lower", "upper")


def test_shoot_json_keys_are_the_problem_then_the_summary(capsys):
    doc = run_json(capsys, ["shoot", "--p", "2", "--g", "pow:15", "--d", "0.5"])
    problem = ["p", "dim", "domain", "g"]
    summary = [f.name for f in dataclasses.fields(ShotSummary)]
    assert list(doc) == problem + summary + ["header", "rows"]


def test_solve_reports_each_solution(capsys):
    doc = run_json(
        capsys,
        [
            "solve", "--p", "2", "--g", "pow:100",
            "--max-zeros", "1", "--sides", "lower", "--grid", "400",
        ],
    )
    assert doc["n_solutions"] == 1
    sol = doc["solutions"][0]
    assert sol["side"] == "lower"
    assert sol["zeros"] == 1
    assert sol["d"] == pytest.approx(0.680362, abs=1e-4)
    assert len(sol["zero_radii"]) == 1


def test_shoot_at_a_solved_d_prints_that_solution_profile(capsys):
    # solve reports each d; shoot --d with the same problem flags gives
    # the profile of the record's validation shot: the validation shot
    # and shoot share the tolerances and the start radius, --grid does
    # not enter a shot, and JSON floats round-trip exactly.
    problem = ["--p", "2", "--g", "pow:15"]
    search = ["--max-zeros", "1", "--sides", "lower,upper", "--grid", "100"]
    doc = run_json(capsys, ["solve", *problem, *search])
    spec = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=15.0))
    cfg = SolverConfig(d_grid_size=100)
    records = find_solutions(spec, cfg, max_zeros=1, sides=("lower", "upper"))
    assert [(s["side"], s["zeros"]) for s in doc["solutions"]] == [
        ("lower", 1), ("upper", 1),
    ]
    for sol, rec in zip(doc["solutions"], records, strict=True):
        assert sol["d"] == rec.d
        traj, summ = shoot(rec.d, spec, cfg)
        assert summ == rec.summary
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["r", "u", "v", "theta", "rho_sq"])
        for row in zip(traj.r, traj.u, traj.v, traj.theta, traj.rho_sq):
            writer.writerow([format(x, ".17g") for x in row])
        assert run(["shoot", *problem, "--d", repr(sol["d"]), "--out", "-"]) == 0
        assert capsys.readouterr().out == want.getvalue()


def test_branch_sweep_tabulates_the_lower_branch(capsys):
    doc = run_json(
        capsys,
        [
            "branch", "--p", "2", "--g", "pow:15", "--param", "q",
            "--start", "12", "--stop", "40", "--steps", "3",
            "--max-zeros", "1", "--sides", "lower", "--grid", "300",
        ],
    )
    assert doc["n_rows"] == 3
    assert doc["header"][0] == "q"
    ds = [row[1] for row in doc["rows"]]
    assert ds == sorted(ds, reverse=True)
    assert doc["metadata"]["sides"] == ["lower"]


def test_empty_branch_sweep_is_no_error(capsys):
    # The p = 2 onset of the one-crossing branch is at q = 2 + pi^2 ~ 11.87,
    # so a sweep over q in [3, 4] finds nothing; that was once bad usage.
    doc = run_json(
        capsys,
        [
            "branch", "--p", "2", "--g", "pow:3", "--start", "3", "--stop", "4",
            "--steps", "2", "--max-zeros", "1", "--sides", "lower",
            "--grid", "16",
        ],
    )
    assert doc["n_rows"] == 0
    assert doc["rows"] == []


def test_branch_rejects_short_sweep(capsys):
    rc = run(
        [
            "branch", "--p", "2", "--g", "pow:15",
            "--start", "12", "--stop", "40", "--steps", "1",
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("r_cap", ["nan", "-5"])
def test_rstar_bad_r_cap_exits_two(capsys, r_cap):
    argv = ["rstar", "--p", "1.8", "--g", "pow:3", "--k", "1", "--r-cap", r_cap]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"r_cap must be a finite number > 0.0, got {float(r_cap)!r}" in err


def test_solve_with_a_combined_nonlinearity(capsys):
    doc = run_json(
        capsys,
        [
            "solve", "--p", "2", "--g", "combo:15,3", "--grid", "100",
            "--max-zeros", "1", "--sides", "lower",
        ],
    )
    assert doc["g"] == "combo:15,3"
    assert [sol["zeros"] for sol in doc["solutions"]] == [1]


def test_solve_upper_side_at_large_q(capsys):
    # The start-up state overflows at the top of the upper grid; those
    # shots are scan gaps and the solve still succeeds.
    doc = run_json(
        capsys,
        [
            "solve", "--p", "2", "--g", "pow:400", "--sides", "upper",
            "--max-zeros", "1", "--grid", "40",
        ],
    )
    assert [sol["zeros"] for sol in doc["solutions"]] == [1]


def test_rstar_cli(capsys):
    doc = run_json(
        capsys,
        ["rstar", "--p", "1.8", "--g", "pow:3", "--k", "1", "--grid", "150"],
    )
    assert list(doc)[:4] == ["p", "dim", "domain", "g"]
    assert doc["rstar"] == pytest.approx(3.42, abs=0.1)
    assert doc["annulus_ratio"] is None


def test_rstar_rejects_bad_ratio(capsys):
    rc = run(
        [
            "rstar", "--p", "1.8", "--g", "pow:3", "--k", "1",
            "--annulus", "1.5", "1.0",
        ]
    )
    assert rc == 2
    assert "r_outer must be a finite number > 1.5, got 1.0" in capsys.readouterr().err


def test_rstar_on_an_annulus_above_one_dimension_exits_two(capsys):
    argv = ["rstar", "--p", "1.8", "--g", "pow:3", "--k", "1", "--n", "2", "--annulus", "0.1", "1"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "threshold radius on an annulus needs N = 1, got N=2" in err


def test_rstar_annulus_reports_its_ratio(capsys):
    doc = run_json(
        capsys,
        [
            "rstar", "--p", "1.8", "--g", "pow:3", "--k", "1",
            "--annulus", "0.1", "1", "--grid", "40",
        ],
    )
    assert doc["annulus_ratio"] == 0.1
    spec = ProblemSpec(
        p=1.8, dim=1, domain=Annulus(0.1, 1.0), g=Nonlinearity(q=3.0)
    )
    assert doc["rstar"] == rstar(1, spec, SolverConfig(d_grid_size=40))


def _flags(sp):
    # Flag slots in registration order, without the automatic -h/--help.
    return [
        o
        for a in sp._actions
        for o in a.option_strings
        if o not in ("-h", "--help")
    ]


def test_each_subcommand_takes_only_the_flags_it_reads():
    problem = ["--p", "--n", "--r", "--annulus", "--tol", "--eps0"]
    expected = {
        "ptrig": ["--p", "--out", "--theta", "--table"],
        "eigen": problem + ["--k"],
        "shoot": problem + ["--out", "--g", "--d"],
        "solve": problem + ["--grid", "--g", "--max-zeros", "--sides"],
        "branch": problem
        + [
            "--grid", "--out", "--g", "--param", "--start",
            "--stop", "--steps", "--max-zeros", "--sides",
        ],
        "rstar": problem + ["--grid", "--g", "--k", "--r-cap"],
    }
    sub = next(
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    got = {name: _flags(sp) for name, sp in sub.choices.items()}
    assert got == expected
    assert sum(len(flags) for flags in expected.values()) == 55
    assert len({f for flags in expected.values() for f in flags}) == 20


@pytest.mark.parametrize(
    "argv",
    [
        ["ptrig", "--p", "2", "--theta", "1", "--tol", "1e-9"],
        ["eigen", "--p", "2", "--k", "2", "--out", "x.csv"],
        ["shoot", "--p", "2", "--g", "pow:15", "--d", "0.5", "--grid", "40"],
        ["solve", "--p", "2", "--g", "pow:15", "--format", "csv"],
        ["rstar", "--p", "1.8", "--g", "pow:3", "--k", "1", "--format", "csv"],
        [
            "rstar", "--p", "1.8", "--g", "pow:3", "--k", "1",
            "--annulus-ratio", "0.1",
        ],
        # With the solve and rstar cases above, --format is unknown on
        # every subcommand: --out alone says where a table goes.
        _TABLES["ptrig"] + ["--format", "csv"],
        ["eigen", "--p", "2", "--k", "2", "--format", "csv"],
        _TABLES["shoot"] + ["--format", "csv"],
        _TABLES["branch"] + ["--format", "json"],
        # shoot --d at a reported d writes the profile solve --out once did.
        ["solve", "--p", "2", "--g", "pow:15", "--out", "x"],
        # branch --out FILE writes the points the plot once drew.
        _TABLES["branch"] + ["--svg", "x.svg"],
    ],
)
def test_removed_flags_are_unknown(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["solve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--max-zeros" in out
    assert "(default: 3)" in out
