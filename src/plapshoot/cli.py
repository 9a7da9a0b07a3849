"""Command line front end.

Every subcommand prints a JSON document to stdout.  One flag says
where a table (a trig table, a shot profile, a branch sweep) goes:
without ``--out`` it is in the JSON, ``--out FILE`` writes it as CSV to
FILE and keeps the JSON summary on stdout, and ``--out -`` prints the
CSV alone.  Each subcommand accepts only the flags it reads, and
refuses a flag that it would not use.  Exit codes: 0 on success, 1 when
a numerical routine fails or a reader closes stdout early (quietly), 2
for invalid usage or parameters, an output that cannot be written included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .branch import branch_sweep
from .config import SolverConfig
from .eigen import eigenvalue
from .errors import NumericsError, SpecError, check_count
from .ptrig import get_context
from .radial import Annulus, Ball, Nonlinearity, ProblemSpec, shoot
from .solver import find_solutions, rstar


def _fmt(x: float) -> str:
    # 17 significant digits: parsing the text reproduces the double.
    return format(x, ".17g")


def _parse_g(text: str) -> Nonlinearity:
    kind, _, rest = text.partition(":")
    try:
        if kind == "pow":
            return Nonlinearity(q=float(rest))
        if kind == "combo":
            q_str, _, r_str = rest.partition(",")
            return Nonlinearity(q=float(q_str), r_exp=float(r_str))
    except ValueError as exc:
        raise SpecError(f"cannot parse nonlinearity {text!r}: {exc}") from exc
    raise SpecError(
        f"nonlinearity must look like pow:<q> or combo:<q>,<r>, got {text!r}"
    )


def _spec_from(args) -> ProblemSpec:
    g_text = getattr(args, "g", None)
    g = _parse_g(g_text) if g_text is not None else None
    if args.annulus is not None:
        domain: Ball | Annulus = Annulus(args.annulus[0], args.annulus[1])
    else:
        domain = Ball(args.r)
    return ProblemSpec(p=args.p, dim=args.n, domain=domain, g=g)


def _config_from(args) -> SolverConfig:
    kw = {}
    if args.tol is not None:
        kw["rel_tol"] = args.tol
        kw["abs_tol"] = args.tol * 1e-2
    if args.eps0 is not None:
        kw["eps0"] = args.eps0
    if getattr(args, "grid", None) is not None:
        kw["d_grid_size"] = args.grid
    return SolverConfig(**kw)


def _emit_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) if isinstance(x, float) else x for x in row])


def _open_out(path: str, mode: str = "w"):
    """Open an output file; a path that cannot be opened is bad usage."""
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror}") from exc


def _write_table(args, header: list[str], rows: list[list[float]], summary: dict):
    """The table in the JSON, as CSV to --out FILE, or with --out - as CSV alone."""
    if args.out is None:
        _emit_json(dict(summary, header=header, rows=rows))
    elif args.out == "-":
        _write_csv(sys.stdout, header, rows)
    else:
        try:
            with _open_out(args.out) as fh:
                _write_csv(fh, header, rows)
        except OSError as exc:
            raise SpecError(f"cannot write {args.out}: {exc.strerror}") from exc
        _emit_json(dict(summary, out=args.out))


def cmd_ptrig(args) -> int:
    ctx = get_context(args.p)
    if args.table is not None:
        n = args.table
        check_count(n, 2, "--table")
        rows = []
        for i in range(n):
            theta = 2.0 * ctx.pi_p * i / (n - 1)
            c, s = ctx.pair(theta)
            rows.append([theta, c, s])
        _write_table(
            args,
            ["theta", "cos_p", "sin_p"],
            rows,
            {"p": args.p, "pi_p": ctx.pi_p, "n": n},
        )
        return 0
    if args.out is not None:
        raise SpecError("--out needs --table: a single --theta makes no table")
    c, s = ctx.pair(args.theta)
    _emit_json(
        {
            "p": args.p,
            "pi_p": ctx.pi_p,
            "theta": args.theta,
            "cos_p": c,
            "sin_p": s,
            "identity_defect": ctx.identity_defect(c, s),
        }
    )
    return 0


def cmd_eigen(args) -> int:
    spec = _spec_from(args)
    res = eigenvalue(args.k, spec, _config_from(args))
    _emit_json(
        {**spec.describe(), "k": res.k, "lambda": res.lam, "residual": res.residual}
    )
    return 0


def cmd_shoot(args) -> int:
    spec = _spec_from(args)
    traj, summ = shoot(args.d, spec, _config_from(args))
    rows = list(zip(traj.r, traj.u, traj.v, traj.theta, traj.rho_sq))
    summary = {**spec.describe(), **dataclasses.asdict(summ)}
    _write_table(args, ["r", "u", "v", "theta", "rho_sq"], rows, summary)
    return 0


def _record_doc(rec) -> dict:
    return {
        "d": rec.d,
        "side": rec.side,
        "zeros": rec.zeros,
        "theta_end": rec.theta_end,
        "residual": rec.residual,
        "u_end": rec.summary.u_end,
        "v_end": rec.summary.v_end,
        "min_u": rec.summary.min_u,
        "max_u": rec.summary.max_u,
        "zero_radii": list(rec.summary.zero_radii),
    }


def cmd_solve(args) -> int:
    spec = _spec_from(args)
    cfg = _config_from(args)
    records = find_solutions(spec, cfg, max_zeros=args.max_zeros, sides=args.sides)
    _emit_json(
        {
            **spec.describe(),
            "sides": list(args.sides),
            "max_zeros": args.max_zeros,
            "n_solutions": len(records),
            "solutions": [_record_doc(rec) for rec in records],
        }
    )
    return 0


def cmd_branch(args) -> int:
    spec = _spec_from(args)
    cfg = _config_from(args)
    check_count(args.steps, 2, "--steps")
    values = [
        args.start + (args.stop - args.start) * i / (args.steps - 1)
        for i in range(args.steps)
    ]
    # --out is opened once before the sweep, so that an unwritable path
    # costs no sweep; to append, so that a failed sweep leaves an existing
    # file as it was, and one the probe made is removed again.  Through a
    # dangling symlink the probe makes the link's target, and that goes.
    made = None
    if args.out not in (None, "-"):
        if not os.path.exists(args.out):
            made = os.path.realpath(args.out)
        _open_out(args.out, "a").close()
    try:
        points = branch_sweep(
            spec, args.param, values, cfg, max_zeros=args.max_zeros, sides=args.sides
        )
    except BaseException:
        if made:
            os.remove(made)
        raise
    rows = [
        [
            pt.param, pt.record.d, pt.record.side, pt.record.zeros,
            pt.record.theta_end, pt.record.residual, int(pt.fold),
        ]
        for pt in points
    ]
    summary = {
        "param": args.param,
        "n_rows": len(rows),
        "metadata": {
            **spec.describe(),
            "param_name": args.param,
            "n_values": len(values),
            "max_zeros": args.max_zeros,
            "sides": list(args.sides),
        },
    }
    _write_table(
        args,
        [args.param, "d", "side", "zeros", "theta_end", "residual", "fold"],
        rows,
        summary,
    )
    return 0


def cmd_rstar(args) -> int:
    spec = _spec_from(args)
    value = rstar(args.k, spec, _config_from(args), r_cap=args.r_cap)
    dom = spec.domain
    ratio = None if spec.is_ball else dom.r_inner / dom.r_outer
    _emit_json(
        {
            **spec.describe(),
            "k": args.k,
            "annulus_ratio": ratio,
            "rstar": value,
        }
    )
    return 0


def _add_problem(sp, with_grid=True):
    """The flags _spec_from and _config_from read; --grid only for scans."""
    sp.add_argument("--p", type=float, required=True, help="exponent p > 1")
    sp.add_argument("--n", type=int, default=1, help="space dimension N")
    domain = sp.add_mutually_exclusive_group()
    domain.add_argument(
        "--r", type=float, default=1.0, help="outer radius of a ball"
    )
    domain.add_argument(
        "--annulus",
        type=float,
        nargs=2,
        metavar=("R1", "R2"),
        default=None,
        help="solve on the annulus (R1, R2) instead of a ball",
    )
    sp.add_argument(
        "--tol",
        type=float,
        default=None,
        help="integrator relative tolerance (absolute is tol/100)",
    )
    sp.add_argument(
        "--eps0", type=float, default=None, help="startup radius, balls only"
    )
    if with_grid:
        sp.add_argument(
            "--grid", type=int, default=None, help="size of the d scan grid"
        )


def _sides(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _add_search(sp, verb: str):
    """The flags find_solutions reads besides the problem."""
    sp.add_argument(
        "--max-zeros", type=int, default=3, help=f"largest zero count to {verb}"
    )
    sp.add_argument(
        "--sides",
        type=_sides,
        default="lower,upper",
        help="comma-separated shot sides to search",
    )


def _add_table_output(sp):
    """The flag _write_table reads."""
    sp.add_argument(
        "--out",
        default=None,
        help="write the table as CSV to this file, or with - to stdout alone",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plapshoot",
        description=(
            "Radial Neumann problems for the p-Laplacian: generalized trig"
            " tables, eigenvalues, shooting, solution counts, branch sweeps"
            " and threshold radii."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    sp = sub.add_parser(
        "ptrig",
        help="evaluate or tabulate the generalized trig pair",
        formatter_class=fmt,
    )
    sp.add_argument("--p", type=float, required=True, help="exponent p > 1")
    _add_table_output(sp)
    what = sp.add_mutually_exclusive_group(required=True)
    what.add_argument("--theta", type=float, default=None, help="single angle")
    what.add_argument(
        "--table", type=int, default=None, help="tabulate this many rows"
    )
    sp.set_defaults(func=cmd_ptrig)

    sp = sub.add_parser(
        "eigen", help="k-th radial Neumann eigenvalue", formatter_class=fmt
    )
    _add_problem(sp, with_grid=False)
    sp.add_argument("--k", type=int, required=True, help="eigenvalue index")
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser(
        "shoot", help="integrate one shot and report it", formatter_class=fmt
    )
    _add_problem(sp, with_grid=False)
    _add_table_output(sp)
    sp.add_argument("--g", required=True, help="pow:<q> or combo:<q>,<r>")
    sp.add_argument("--d", type=float, required=True, help="center value")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser(
        "solve",
        help="find all solutions with up to max-zeros interior zeros",
        formatter_class=fmt,
    )
    _add_problem(sp)
    sp.add_argument("--g", required=True, help="pow:<q> or combo:<q>,<r>")
    _add_search(sp, "search")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser(
        "branch",
        help="sweep q or R and tabulate the solution branches",
        formatter_class=fmt,
    )
    _add_problem(sp)
    _add_table_output(sp)
    sp.add_argument("--g", required=True, help="pow:<q> or combo:<q>,<r>")
    sp.add_argument(
        "--param", choices=("q", "R"), default="q", help="overrides --g's q or --r"
    )
    sp.add_argument("--start", type=float, required=True, help="sweep start")
    sp.add_argument("--stop", type=float, required=True, help="sweep stop")
    sp.add_argument("--steps", type=int, default=11, help="sweep length")
    _add_search(sp, "track")
    sp.set_defaults(func=cmd_branch)

    sp = sub.add_parser(
        "rstar",
        help="smallest outer radius carrying k-zero solutions (p < 2)",
        formatter_class=fmt,
    )
    _add_problem(sp)
    sp.add_argument("--g", required=True, help="pow:<q> or combo:<q>,<r>")
    sp.add_argument("--k", type=int, required=True, help="zero count")
    sp.add_argument(
        "--r-cap", type=float, default=1e4, help="give up beyond this radius"
    )
    sp.set_defaults(func=cmd_rstar)
    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # A reader closed stdout (stop quietly), or a write to it failed:
        # let the flush at exit write to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
            code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
