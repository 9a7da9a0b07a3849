"""Branch tables under q and R sweeps, fold flags, and onset location."""

import math
from types import SimpleNamespace

import pytest
from scipy.optimize import brentq

from plapshoot import branch, solver
from plapshoot.branch import BranchTable, bifurcation_onset, branch_sweep
from plapshoot.config import SolverConfig
from plapshoot.errors import SearchError, SpecError
from plapshoot.radial import Ball, Nonlinearity, ProblemSpec

CFG = SolverConfig(d_grid_size=400, rel_tol=1e-10, abs_tol=1e-12)
# Coarser integration needs a matching flux-residual budget.
CFG_COARSE = SolverConfig(
    d_grid_size=300, rel_tol=1e-9, abs_tol=1e-11, residual_tol=1e-6
)


def ball(p=2.0, dim=1, radius=1.0, q=15.0):
    return ProblemSpec(p=p, dim=dim, domain=Ball(radius), g=Nonlinearity(q=q))


def test_q_sweep_branch_moves_toward_zero():
    table = branch_sweep(
        ball(), "q", [80.0, 12.0, 40.0, 20.0], CFG, max_zeros=1,
        sides=("lower",),
    )
    rows = table.group(1, "lower")
    assert [row.param for row in rows] == [12.0, 20.0, 40.0, 80.0]
    ds = [row.d for row in rows]
    assert ds == sorted(ds, reverse=True)
    assert ds[0] == pytest.approx(0.966074, abs=5e-4)
    assert ds[-1] == pytest.approx(0.686973, abs=5e-4)
    # Branch moves continuously here, no fold flags.
    assert not any(row.fold for row in rows)
    assert table.param_name == "q"
    assert table.metadata["n_values"] == 4
    assert table.metadata["g"] == "pow:15"


def test_q_sweep_tracks_both_sides_for_p3():
    spec = ball(p=3.0, q=4.0)
    table = branch_sweep(
        spec, "q", [3.5, 4.5], CFG, max_zeros=1, sides=("lower", "upper")
    )
    lower = table.group(1, "lower")
    upper = table.group(1, "upper")
    assert [row.param for row in lower] == [3.5, 4.5]
    assert [row.param for row in upper] == [3.5, 4.5]
    assert lower[0].d == pytest.approx(0.97809, abs=2e-3)
    assert lower[1].d == pytest.approx(0.93273, abs=2e-3)
    assert upper[0].d == pytest.approx(1.02136, abs=2e-3)
    assert upper[1].d == pytest.approx(1.06108, abs=2e-3)
    # Sides separate at the same rate to leading order.
    assert not any(row.fold for row in table.rows)


def test_radius_sweep_flags_fold():
    # Below the threshold radius (about 3.42) the branch family is
    # empty; above it the angle curve crosses the target twice.  Between
    # R = 3.5 and R = 4.0 the outer root jumps from 0.45 to 0.20, which
    # no continuous branch motion explains: that row gets the flag.
    spec = ball(p=1.8, q=3.0)
    table = branch_sweep(
        spec, "R", [3.0, 3.5, 4.0], CFG_COARSE, max_zeros=1,
        sides=("lower",),
    )
    rows = table.group(1, "lower")
    assert [row.param for row in rows] == [3.5, 3.5, 4.0, 4.0]
    assert rows[0].d == pytest.approx(0.452974, abs=5e-3)
    assert rows[1].d == pytest.approx(0.779179, abs=5e-3)
    assert rows[2].d == pytest.approx(0.198972, abs=5e-3)
    assert rows[3].d == pytest.approx(0.945270, abs=5e-3)
    assert [row.fold for row in rows] == [False, False, True, False]


def test_branch_table_sorted_and_grouped():
    table = BranchTable(param_name="q", rows=[])
    assert table.group(1, "lower") == []
    assert table.metadata == {}


def test_branch_sweep_validates_arguments():
    spec = ball()
    with pytest.raises(SpecError):
        branch_sweep(spec, "alpha", [1.0], CFG)
    with pytest.raises(SpecError):
        branch_sweep(spec, "q", [], CFG)
    with pytest.raises(SpecError):
        branch_sweep(spec, "q", [10.0, math.inf], CFG)
    bare = ProblemSpec(p=2.0, dim=1, domain=Ball(1.0))
    with pytest.raises(SpecError):
        branch_sweep(bare, "q", [10.0], CFG)


def test_onset_matches_eigenvalue_crossing():
    # On a radius-2 segment the first nonconstant branch appears where
    # f'(1) = q - 2 meets the second Neumann eigenvalue (pi/2)^2.
    spec = ball(radius=2.0, q=10.0)
    q_star = bifurcation_onset(spec, 1, CFG_COARSE, q_lo=2.1, q_hi=50.0)
    assert q_star == pytest.approx(2.0 + (math.pi / 2.0) ** 2, rel=5e-3)


def test_onset_requires_quadratic_growth_at_one():
    with pytest.raises(SpecError):
        bifurcation_onset(ball(p=3.0, q=4.0), 1, CFG_COARSE)
    with pytest.raises(SpecError):
        bifurcation_onset(ball(p=1.8, q=3.0), 1, CFG_COARSE)
    with pytest.raises(SpecError):
        bifurcation_onset(ball(), 0, CFG_COARSE)
    with pytest.raises(SpecError):
        bifurcation_onset(ball(), 1, CFG_COARSE, q_lo=1.5, q_hi=50.0)


def test_onset_endpoints_must_straddle():
    cfg = SolverConfig(d_grid_size=150, rel_tol=1e-9, abs_tol=1e-11)
    with pytest.raises(SearchError):
        bifurcation_onset(ball(), 1, cfg, q_lo=20.0, q_hi=50.0)
    with pytest.raises(SearchError):
        bifurcation_onset(ball(), 1, cfg, q_lo=2.1, q_hi=3.0)


ONSET_CFG = SolverConfig(
    d_grid_size=150, rel_tol=1e-9, abs_tol=1e-11, residual_tol=1e-6
)


def _counted_onset(spec, zeros, q_hi, monkeypatch):
    """The onset in q on [2.1, q_hi], and the evaluations of h it took.

    The search takes at most 16 evaluations, the endpoints included
    (bisection took 33 to 36).
    """
    qs = []
    theta_end = branch._theta_end

    def counted(d, spec, cfg):
        qs.append(spec.g.q)
        return theta_end(d, spec, cfg)

    monkeypatch.setattr(branch, "_theta_end", counted)
    q_star = bifurcation_onset(spec, zeros, ONSET_CFG, q_lo=2.1, q_hi=q_hi)
    return q_star, len(qs)


@pytest.mark.parametrize(
    "zeros, radius, q_hi, onset",
    [
        (1, 1.0, 50.0, 2.0 + math.pi**2),
        (2, 1.0, 80.0, 2.0 + 4.0 * math.pi**2),
        (1, 2.0, 50.0, 2.0 + (math.pi / 2.0) ** 2),
    ],
)
def test_onset_lands_on_the_eigenvalue_crossing(
    zeros, radius, q_hi, onset, monkeypatch
):
    q_star, evals = _counted_onset(ball(radius=radius), zeros, q_hi, monkeypatch)
    assert q_star == pytest.approx(onset, rel=1e-6)
    assert evals <= 16


def _tan_root(j):
    """The j-th positive root of tan(mu) = mu; mu^2 is a p = 2, N = 3 eigenvalue."""
    lo = j * math.pi
    return brentq(
        lambda x: math.sin(x) - x * math.cos(x), lo, lo + math.pi / 2, xtol=1e-15
    )


@pytest.mark.parametrize("zeros", [1, 2])
def test_onset_at_n3_lands_on_the_eigenvalue_crossing(zeros, monkeypatch):
    # The paper's setting: the j-crossing branch bifurcates from u = 1 at
    # q = 2 + mu_j^2 on the unit ball of R^3 (4e-5 and 6e-5 off).
    q_star, evals = _counted_onset(ball(dim=3), zeros, 100.0, monkeypatch)
    assert q_star == pytest.approx(2.0 + _tan_root(zeros) ** 2, rel=1e-4)
    assert evals <= 16


@pytest.mark.xfail(
    strict=True,
    raises=SearchError,
    reason="ROADMAP item 12: at N = 3 the probe shot from d = 0.99999 at the"
    " default q_hi = 200 falls below the absolute collapse floor",
)
def test_onset_at_n3_with_the_default_bounds():
    q_star = bifurcation_onset(ball(dim=3), 1, ONSET_CFG)
    assert q_star == pytest.approx(2.0 + _tan_root(1) ** 2, rel=1e-2)


def test_onset_shot_that_fails_is_a_search_error():
    # At these tolerances the probe shot at q_lo fails.  Its NaN angle
    # once read as "not below the target", and the search reported that
    # the branch already existed at q_lo.
    cfg = SolverConfig(rel_tol=1e-300, abs_tol=1e-302, d_grid_size=20)
    with pytest.raises(SearchError, match=r"^shot failed at d=0\.99999 for q=2\.05$"):
        bifurcation_onset(ball(), 1, cfg)


def test_onset_shot_that_fails_inside_the_search_is_a_search_error(monkeypatch):
    # A failed shot between the endpoints must not move either end.
    qs = []
    theta_end = branch._theta_end

    def fails_third(d, spec, cfg):
        qs.append(spec.g.q)
        return math.nan if len(qs) == 3 else theta_end(d, spec, cfg)

    monkeypatch.setattr(branch, "_theta_end", fails_third)
    monkeypatch.setattr(branch, "_records_for_side", None)
    cfg = SolverConfig(d_grid_size=40, rel_tol=1e-9, abs_tol=1e-11)
    with pytest.raises(SearchError, match="shot failed") as exc:
        bifurcation_onset(ball(), 1, cfg, q_lo=2.1, q_hi=50.0)
    assert str(exc.value).endswith(f"for q={qs[2]!r}")


@pytest.mark.parametrize("found", [False, True])
def test_onset_confirmation_failure_raises(found, monkeypatch):
    # No solution just above the onset, or one just below it.
    monkeypatch.setattr(
        branch, "_records_for_side", lambda *args: ["record"] if found else []
    )
    cfg = SolverConfig(d_grid_size=40, rel_tol=1e-9, abs_tol=1e-11)
    with pytest.raises(SearchError, match="not confirmed"):
        bifurcation_onset(ball(), 1, cfg, q_lo=2.1, q_hi=50.0)



def _old_rows(per_param, max_zeros, sides):
    """The family-by-family triple loop branch_sweep used to run."""
    rows = []
    for zeros in range(1, max_zeros + 1):
        for side in sides:
            prev_ds = []
            for value, recs in per_param:
                ds = [r.d for r in recs if r.zeros == zeros and r.side == side]
                for rec in recs:
                    if rec.zeros != zeros or rec.side != side:
                        continue
                    fold = bool(prev_ds) and all(
                        abs(rec.d - pd) > 0.2 for pd in prev_ds
                    )
                    rows.append(
                        branch.BranchPoint(
                            param=value,
                            d=rec.d,
                            side=side,
                            zeros=zeros,
                            theta_end=rec.theta_end,
                            residual=rec.residual,
                            fold=fold,
                        )
                    )
                if ds:
                    prev_ds = ds
    rows.sort(key=lambda row: (row.zeros, row.side, row.param, row.d))
    return rows


def test_branch_sweep_rejects_a_bare_string_for_sides(monkeypatch):
    monkeypatch.setattr(solver, "_records_for_side", None)
    with pytest.raises(SpecError, match="tuple"):
        branch_sweep(ball(), "q", [15.0], CFG, max_zeros=1, sides="upper")


def test_branch_rows_equal_old_triple_loop_on_a_fold(monkeypatch):
    # R = 3.0 has no 1-zero root (the family is missing there), and the
    # outer root at R = 4.0 is a fold.
    per_param = []
    real = branch.find_solutions

    def spy(spec, cfg, max_zeros, sides):
        recs = real(spec, cfg, max_zeros, sides)
        per_param.append((spec.r_outer, recs))
        return recs

    monkeypatch.setattr(branch, "find_solutions", spy)
    table = branch_sweep(
        ball(p=1.8, q=3.0), "R", [4.0, 3.0, 3.5], CFG_COARSE, max_zeros=1,
        sides=("lower",),
    )
    assert [value for value, _ in per_param] == [3.0, 3.5, 4.0]
    assert per_param[0][1] == []
    assert any(row.fold for row in table.rows)
    assert table.rows == _old_rows(per_param, 1, ("lower",))


def test_branch_rows_equal_old_triple_loop_on_fake_records(monkeypatch):
    # Two sides and two zero counts; the 2-zero family vanishes at q = 5
    # and comes back at q = 6, where it compares with q = 4; a fold at
    # q = 5; two roots of one family at one value.
    def rec(d, side, zeros):
        return SimpleNamespace(
            d=d, side=side, zeros=zeros, theta_end=10.0 * d, residual=d / 1e9
        )

    by_q = {
        3.0: [rec(0.5, "lower", 1), rec(0.8, "lower", 2), rec(1.5, "upper", 1)],
        4.0: [rec(0.55, "lower", 1), rec(0.9, "lower", 2)],
        5.0: [rec(0.1, "lower", 1), rec(0.6, "lower", 1), rec(1.9, "upper", 1)],
        6.0: [rec(0.95, "lower", 2), rec(0.3, "lower", 2), rec(1.95, "upper", 1)],
    }
    monkeypatch.setattr(branch, "find_solutions", lambda spec, *_: by_q[spec.g.q])
    table = branch_sweep(
        ball(p=2.0), "q", [6.0, 4.0, 5.0, 3.0], CFG, max_zeros=2,
        sides=("lower", "upper"),
    )
    assert [row.fold for row in table.rows].count(True) == 3
    assert table.rows == _old_rows(sorted(by_q.items()), 2, ("lower", "upper"))


def test_branch_sweep_rejects_repeated_or_no_sides():
    for sides in ((), ("lower", "lower")):
        with pytest.raises(SpecError, match="distinct sides"):
            branch_sweep(ball(), "q", [12.0], CFG, max_zeros=1, sides=sides)


@pytest.mark.parametrize("r_exp", [None, 2.0, 2.5])
def test_onset_default_q_lo_sits_above_the_lower_exponent(r_exp):
    # The default q_lo is r + 0.05, with r = p for the pure power; a
    # q_hi under it is rejected before any shot, naming q_hi, its bound
    # q_lo and the value given.
    spec = ProblemSpec(
        p=2.0, dim=1, domain=Ball(1.0), g=Nonlinearity(q=4.0, r_exp=r_exp)
    )
    floor = 2.0 if r_exp is None else r_exp
    with pytest.raises(SpecError) as exc:
        bifurcation_onset(spec, 1, CFG, q_hi=floor + 0.01)
    want = f"q_hi must be a finite number > {floor + 0.05!r}, got {floor + 0.01!r}"
    assert want in str(exc.value)
