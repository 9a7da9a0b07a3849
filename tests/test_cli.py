"""End-to-end command line tests through plapshoot.cli.run."""

import argparse
import csv
import dataclasses
import json
import math

import pytest

from plapshoot.cli import build_parser, run
from plapshoot.config import SolverConfig
from plapshoot.ptrig import get_context, pi_p
from plapshoot.radial import (
    Annulus,
    Ball,
    Nonlinearity,
    ProblemSpec,
    ShotSummary,
    shoot,
)
from plapshoot.solver import rstar


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
    rc = run(["ptrig", "--p", "3", "--table", "9", "--format", "csv"])
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


def test_ptrig_requires_theta_or_table(capsys):
    assert run(["ptrig", "--p", "2"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_solve_reports_and_dumps_profiles(capsys, tmp_path):
    prefix = tmp_path / "sol"
    doc = run_json(
        capsys,
        [
            "solve", "--p", "2", "--g", "pow:100",
            "--max-zeros", "1", "--sides", "lower",
            "--grid", "400", "--out", str(prefix),
        ],
    )
    assert doc["n_solutions"] == 1
    sol = doc["solutions"][0]
    assert sol["side"] == "lower"
    assert sol["zeros"] == 1
    assert sol["d"] == pytest.approx(0.680362, abs=1e-4)
    assert len(sol["zero_radii"]) == 1
    csv_path = tmp_path / "sol-lower-j1-0.csv"
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "u", "v", "theta", "rho_sq"]
    assert len(rows) > 100


def test_branch_sweep_with_svg(capsys, tmp_path):
    svg = tmp_path / "branch.svg"
    doc = run_json(
        capsys,
        [
            "branch", "--p", "2", "--g", "pow:15", "--param", "q",
            "--start", "12", "--stop", "40", "--steps", "3",
            "--max-zeros", "1", "--sides", "lower",
            "--grid", "300", "--svg", str(svg),
        ],
    )
    assert doc["n_rows"] == 3
    assert doc["header"][0] == "q"
    ds = [row[1] for row in doc["rows"]]
    assert ds == sorted(ds, reverse=True)
    assert doc["metadata"]["sides"] == ["lower"]
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


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
    assert "r_cap must be finite and > 0" in capsys.readouterr().err


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
    assert "r_inner < r_outer" in capsys.readouterr().err


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
        "ptrig": ["--p", "--format", "--out", "--theta", "--table"],
        "eigen": problem + ["--k"],
        "shoot": problem + ["--format", "--out", "--g", "--d"],
        "solve": problem
        + ["--grid", "--out", "--g", "--max-zeros", "--sides"],
        "branch": problem
        + [
            "--grid", "--format", "--out", "--g", "--param", "--start",
            "--stop", "--steps", "--max-zeros", "--sides", "--svg",
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
    assert sum(len(flags) for flags in expected.values()) == 60
    assert len({f for flags in expected.values() for f in flags}) == 22


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
