import dataclasses
import hashlib
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import medent.dicke as dicke_module
from medent import cli, linalg, theorem
from medent.cli import main
from medent.dicke import CONVERGENCE_TOL, DickeConfig, _sector_point, dicke_ground_point
from medent.sweeps import SweepResult, format_value

from conftest import medent_process


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_ising_analytic_agreement(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "ising", "--delta", "0", "--lambda", "1"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("E[")]
    assert len(lines) == 8
    deviation = float(out.split("max analytic deviation:")[1].strip())
    assert deviation < 1e-9


def test_spectrum_ising_zero_field_degeneracies(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "ising", "--delta", "0", "--lambda", "0"
    )
    assert code == 0
    values = [float(l.split("=")[1]) for l in out.splitlines() if l.startswith("E[")]
    assert np.allclose(values, [-2, -2, 0, 0, 0, 0, 2, 2], atol=1e-12)
    groups_line = next(l for l in out.splitlines() if l.startswith("degeneracy groups"))
    assert "{0,1}" in groups_line and "{2,3,4,5}" in groups_line


def test_spectrum_dicke_decoupled_ground(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--model", "dicke", "--variant", "h1", "--kappa", "0", "--nmax", "10",
    )
    assert code == 0
    first = next(l for l in out.splitlines() if l.startswith("E[0]"))
    assert float(first.split("=")[1]) == pytest.approx(-1.0, abs=1e-12)


def test_spectrum_usage_error(capsys):
    code, _, _ = run(capsys, "spectrum", "--model", "nonsense")
    assert code == 2


def test_sweep_ising_csv(tmp_path, capsys):
    out_path = tmp_path / "ising.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--model", "ising", "--out", str(out_path),
        "--delta-grid", "0.1:0.2:2", "--lambda-grid", "0:1:3",
    )
    assert code == 0
    result = SweepResult.read_csv(out_path)
    assert result.schema == (
        "delta", "lambda", "ground_energy", "gap", "concurrence", "degenerate", "status",
    )
    assert len(result.rows) == 6
    assert all(row["status"] == "ok" for row in result.rows)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_negative_grid_spec(tmp_path, capsys, source):
    out_path = tmp_path / "ising.csv"
    if source == "flag":
        argv = ["sweep", "--model", "ising", "--lambda-grid", "-1:1:3"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("model = ising\nlambda_grid = -1:1:3\n")
        argv = ["sweep", "--config", str(config)]
    code, _, _ = run(capsys, *argv, "--delta-grid", "-0.5:0.5:2", "--out", str(out_path))
    assert code == 0
    result = SweepResult.read_csv(out_path)
    assert result.column("delta") == [-0.5, -0.5, -0.5, 0.5, 0.5, 0.5]
    assert result.column("lambda") == [-1.0, 0.0, 1.0] * 2


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    args = [
        "sweep", "--model", "ising", "--out", None,
        "--delta-grid", "0.05:1:3", "--lambda-grid", "0.5:2:3",
    ]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    args[4] = str(p1)
    assert main(list(args)) == 0
    args[4] = str(p2)
    assert main(list(args)) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_dicke_single_point_matches_direct(tmp_path, capsys):
    out_path = tmp_path / "dicke.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h3", "--out", str(out_path),
        "--kappa-grid", "0.5:0.5:1", "--lam-tilde-grid", "1:1:1", "--nmax", "20",
    )
    assert code == 0
    result = SweepResult.read_csv(out_path)
    assert len(result.rows) == 1
    direct = dicke_ground_point(DickeConfig(variant="h3", kappa=0.5, n_max=20))
    assert result.rows[0]["concurrence"] == direct.concurrence.value
    assert result.rows[0]["variant"] == "h3"


def test_sweep_dicke_multi_variant_order(tmp_path, capsys):
    out_path = tmp_path / "dicke3.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h1,h2", "--out", str(out_path),
        "--kappa-grid", "0:0.4:2", "--lam-tilde-grid", "1:1:1", "--nmax", "12",
    )
    assert code == 0
    result = SweepResult.read_csv(out_path)
    assert result.column("variant") == ["h1", "h1", "h2", "h2"]
    assert "average concurrence h1" in out


def test_sweep_bad_grid_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "sweep", "--model", "ising", "--out", str(tmp_path / "x.csv"),
        "--delta-grid", "0.1:0.2",
    )
    assert code == 2


# 4 (n_max + 1) states at --nmax 1100
OVER_LIMIT_ERROR = "the Dicke Hamiltonian would be 4404x4404, limit is 4096"


def test_sweep_dicke_over_the_dimension_limit_writes_an_error_row(tmp_path, capsys):
    out_path = tmp_path / "big.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h1", "--kappa-grid", "0.5:0.5:1",
        "--nmax", "1100", "--out", str(out_path),
    )
    assert code == 3
    assert out_path.read_text().splitlines()[1] == (
        f'h1,0.5,1,1100,nan,nan,nan,0,"error: {OVER_LIMIT_ERROR}"'
    )


def test_spectrum_dicke_over_the_dimension_limit_exits_2(capsys):
    code, _, err = run(
        capsys,
        "spectrum", "--model", "dicke", "--variant", "h1", "--kappa", "0.5", "--nmax", "1100",
    )
    assert code == 2
    assert OVER_LIMIT_ERROR in err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_sweep_dicke_rejects_a_negative_or_nan_tolerance(tol, tmp_path, capsys):
    out_path = tmp_path / "tol.csv"
    code, _, err = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h2", "--kappa-grid", "0.5:0.5:1",
        "--tol", tol, "--out", str(out_path),
    )
    assert code == 2
    assert f"convergence_tol must be >= 0, got {float(tol)}" in err
    assert not out_path.exists()


def test_sweep_dicke_accepts_a_zero_tolerance(tmp_path, capsys):
    # at kappa = 0 the concurrence is exactly 0 at every cutoff, so it converges
    out_path = tmp_path / "tol0.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h2", "--kappa-grid", "0:0:1",
        "--tol", "0", "--out", str(out_path),
    )
    assert code == 0
    assert SweepResult.read_csv(out_path).column("status") == ["ok"]
    # at kappa = 0.5 whether the last ulp settles depends on the BLAS thread
    # count; either way a zero tolerance is no usage error and writes the row
    out_path = tmp_path / "tol0_kappa05.csv"
    code, _, err = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h2", "--kappa-grid", "0.5:0.5:1",
        "--tol", "0", "--out", str(out_path),
    )
    assert code != 2, err
    assert len(SweepResult.read_csv(out_path).rows) == 1


@pytest.mark.parametrize("j", ["nan", "inf"])
def test_sweep_ising_rejects_a_non_finite_coupling(j, tmp_path, capsys):
    out_path = tmp_path / "j.csv"
    code, _, err = run(
        capsys,
        "sweep", "--model", "ising", "--j", j, "--delta-grid", "0:1:2", "--lambda-grid", "0:1:2",
        "--out", str(out_path),
    )
    assert code == 2
    assert f"j_coupling must be finite, got {float(j)}" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "ising", "--j", "nan"], "j_coupling must be finite, got nan"),
        (["--model", "ising", "--j", "inf"], "j_coupling must be finite, got inf"),
        (["--model", "dicke", "--omega-f", "nan"], "frequencies must be positive and finite"),
        (["--model", "ising", "--delta", "nan"], "delta must be finite, got nan"),
        (["--model", "ising", "--delta", "inf"], "delta must be finite, got inf"),
    ],
)
def test_optimize_rejects_a_non_finite_model_constant_before_any_point(
    argv, message, monkeypatch, capsys
):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(cli, "optimize", no_search)
    code, _, err = run(capsys, "optimize", *argv, "--budget", "20")
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--delta", "nan"], "delta must be finite, got nan"),
        (["--lambda", "inf"], "lam must be finite, got inf"),
    ],
)
def test_spectrum_ising_rejects_a_non_finite_field(argv, message, capsys):
    code, out, err = run(capsys, "spectrum", "--model", "ising", *argv)
    assert code == 2
    assert out == ""
    assert err == f"invalid configuration: {message}\n"


@pytest.mark.parametrize("flag", ["--omega-a", "--omega-f"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_dicke_rejects_a_non_finite_frequency(flag, value, tmp_path, capsys):
    out_path = tmp_path / "w.csv"
    code, _, err = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h2", "--kappa-grid", "0.5:0.5:1",
        flag, value, "--out", str(out_path),
    )
    assert code == 2
    assert "frequencies must be positive and finite" in err
    assert not out_path.exists()


def test_sweep_dicke_rejects_an_h3_quadratic_coefficient_beyond_the_float_range(tmp_path, capsys):
    # kappa**2 overflows: the sweep exits 2 before any point, with no CSV
    out_path = tmp_path / "h3.csv"
    code, out, err = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h3", "--kappa-grid", "1e200:1e200:1",
        "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    message = "the h3 quadratic coefficient lam_tilde * lam = inf is not finite"
    assert err == f"invalid configuration: {message}\n"
    assert not out_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimize_dicke_discards_each_h3_point_beyond_the_float_range(capsys, caplog):
    # every point's kappa**2 overflows: each is discarded as a failed point,
    # and the search fails as a numerical failure, not with a traceback; the
    # simplex size of controls near 1e200 does not overflow either
    code, out, err = run(
        capsys,
        "optimize", "--model", "dicke", "--variant", "h3", "--nmax", "4",
        "--lower", "1e199", "--upper", "1e200", "--budget", "5", "--seed", "0",
    )
    assert (code, out) == (3, "")
    assert err.endswith("numerical failure: objective evaluation failed at every sampled point\n")
    failed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("objective failed")]
    message = "the h3 quadratic coefficient lam_tilde * lam = inf is not finite"
    assert len(failed) == 4
    assert all(m.endswith(message) for m in failed)


@pytest.mark.parametrize("db_dim", ["0", "-1"])
def test_theorem_mediator_dimension_below_one_exits_2(db_dim, capsys):
    code, _, err = run(capsys, "theorem", "--trials", "3", "--db-dim", db_dim, "--seed", "1")
    assert code == 2
    assert f"mediator dimension d_b must be >= 1, got {db_dim}" in err


def test_theorem_mediator_dimension_above_the_limit_exits_2_before_any_operator(monkeypatch, capsys):
    # 144 d_b^4 coupling-operator entries: d_b = 18 stays within 4096^2, 19 does not
    def basis(d):
        raise AssertionError(f"hermitian_basis({d}) called")

    monkeypatch.setattr(theorem, "hermitian_basis", basis)
    theorem._operator_stacks.cache_clear()
    code, out, err = run(capsys, "theorem", "--trials", "3", "--db-dim", "19", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == (
        "invalid configuration: mediator dimension d_b = 19 needs 18766224 "
        "coupling-operator entries, limit is 4096**2 = 16777216\n"
    )
    with pytest.raises(AssertionError, match=r"hermitian_basis\(18\) called"):
        theorem._random_hamiltonians([np.random.default_rng(0)], 18, False)


def test_theorem_exit_code_reflects_counterexamples(tmp_path, capsys):
    # symmetric trials expose the swap-odd dark states: exit 4 by contract
    out_path = tmp_path / "trials.csv"
    code, out, _ = run(
        capsys,
        "theorem", "--trials", "3", "--db-dim", "2", "--seed", "42",
        "--out", str(out_path),
    )
    assert code == 4
    assert "counterexamples:" in out
    records = SweepResult.read_csv(out_path)
    assert len(records.rows) == 3
    assert all(row["symmetric"] is True for row in records.rows)


def test_theorem_writes_swap_parity_to_stderr(capsys):
    # the split by outer swap parity goes to stderr; stdout keeps its lines
    code, out, err = run(capsys, "theorem", "--trials", "3", "--db-dim", "2", "--seed", "42")
    assert code == 4
    assert "counterexamples by outer swap parity: even 0, odd 6\n" in err
    assert "parity" not in out
    assert "counterexamples: 6\n" in out


def test_theorem_break_symmetry_exits_0(capsys):
    code, out, _ = run(
        capsys, "theorem", "--trials", "2", "--db-dim", "2", "--seed", "1",
        "--break-symmetry",
    )
    assert code == 0
    assert "symmetry violated in 2 trials" in out
    assert "counterexamples: 0" in out


README_OPTIMIZE_ISING = (
    "optimize", "--model", "ising", "--delta", "0.1", "--lower", "0", "--upper", "3",
    "--budget", "300", "--seed", "0",
)


def test_optimize_ising_reports_best(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        "optimize", "--model", "ising", "--delta", "0.1",
        "--lower", "0", "--upper", "3", "--budget", "200", "--seed", "0",
        "--trace-out", str(trace_path),
    )
    assert code == 0
    best = float(next(l for l in out.splitlines() if l.startswith("best concurrence")).split(":")[1])
    assert best > 0.55
    trace = SweepResult.read_csv(trace_path)
    assert trace.schema == ("evaluation", "control_0", "value")
    assert len(trace.rows) <= 200


def test_optimize_writes_the_solved_count_to_stderr(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run(
        capsys, *README_OPTIMIZE_ISING, "--trace-out", str(trace_path)
    )
    assert code == 0
    controls = SweepResult.read_csv(trace_path).column("control_0")
    assert len(controls) == 299
    # the optimum sits on the upper bound, which the search keeps returning to
    assert controls.count(3.0) > 100
    # every distinct search point once, plus the re-verification
    assert err == f"solved {len(set(controls)) + 1} distinct points for 300 evaluations\n"
    assert "evaluations: 300" in out.splitlines()


def test_an_ising_optimizer_point_makes_three_lapack_calls(monkeypatch, capsys):
    # per distinct point: the real eigh of H (one block, as delta, lambda > 0),
    # the eigh of rho_AC, which also gives its positivity verdict, and the
    # eigvalsh of the spin-flip partner
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, name=name, solve=getattr(np.linalg, name)):
            calls.append((name, a.shape, a.dtype.kind))
            return solve(a)

        monkeypatch.setattr(np.linalg, name, counting)
    code, _, err = run(
        capsys, "optimize", "--model", "ising", "--delta", "0.1", "--lower", "0.5",
        "--budget", "40", "--seed", "2",
    )
    assert code == 0
    solved = int(re.fullmatch(r"solved (\d+) distinct points for 40 evaluations\n", err)[1])
    point = [("eigh", (1, 8, 8), "f"), ("eigh", (1, 4, 4), "c"), ("eigvalsh", (1, 4, 4), "c")]
    assert calls == point * solved


@pytest.mark.parametrize("delta, merged", [("0.1", False), ("0", True)])
def test_only_an_ising_point_of_several_blocks_merges_its_ground_level(monkeypatch, capsys, delta, merged):
    # delta, lambda > 0 couple all eight states: one component, solved in place;
    # delta = 0 splits the chain into blocks, whose ground levels are merged
    calls = []
    merge = linalg._merged_ground_level
    monkeypatch.setattr(linalg, "_merged_ground_level", lambda dim, blocks: calls.append(dim) or merge(dim, blocks))
    code, _, err = run(
        capsys, "optimize", "--model", "ising", "--delta", delta, "--lower", "0.5",
        "--budget", "40", "--seed", "2",
    )
    assert code == 0
    solved = int(re.fullmatch(r"solved (\d+) distinct points for 40 evaluations\n", err)[1])
    assert calls == ([8] * solved if merged else [])


def test_optimize_zero_budget_usage_error(capsys):
    code, _, err = run(
        capsys, "optimize", "--model", "ising", "--budget", "0"
    )
    assert code == 2


@pytest.mark.parametrize(
    "model, source, flag",
    [
        ("ising", "flag", "--lambda"),
        ("dicke", "flag", "--kappa"),
        ("ising", "config", "lambda"),
        ("dicke", "config", "kappa"),
    ],
)
def test_optimize_rejects_the_control_it_searches(model, source, flag, tmp_path, capsys):
    # optimize searches over lambda (ising) or kappa (dicke), so a fixed value is a usage error
    argv = ["optimize", "--model", model, "--budget", "5"]
    if source == "flag":
        argv += [flag, "0.5"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = 0.5\n")
        argv += ["--config", str(config)]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_optimize_dicke_consistent_with_sweep(tmp_path, capsys):
    sweep_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--model", "dicke", "--variants", "h3", "--out", str(sweep_path),
        "--kappa-grid", "0:1.2:7", "--lam-tilde-grid", "1:1:1", "--nmax", "32",
    )
    assert code == 0
    grid_best = max(SweepResult.read_csv(sweep_path).column("concurrence"))

    # at --nmax 16 the optimum at kappa = 1.2 is not converged (the sweep
    # reports nmax_used 32 there), which optimize now refuses with exit 3
    code, out, _ = run(
        capsys,
        "optimize", "--model", "dicke", "--variant", "h3", "--nmax", "32",
        "--lower", "0", "--upper", "1.2", "--budget", "60", "--seed", "3",
    )
    assert code == 0
    best_kappa = float(
        next(l for l in out.splitlines() if l.startswith("best kappa")).split(":")[1]
    )
    best_value = float(
        next(l for l in out.splitlines() if l.startswith("best concurrence")).split(":")[1]
    )
    # the curve rises monotonically on this range, so both land at the edge
    assert best_value >= grid_best - 1e-3
    assert abs(best_kappa - 1.2) < 0.05


DICKE_OPTIMIZE = ("optimize", "--model", "dicke", "--variant", "h2", "--budget", "20", "--seed", "1")


def test_optimize_dicke_writes_the_fock_check_to_stderr(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, err = run(
        capsys, *DICKE_OPTIMIZE, "--nmax", "40", "--lower", "0.1", "--upper", "1.1",
        "--trace-out", str(trace),
    )
    assert code == 0
    labels = [line.split(":")[0] for line in out.splitlines()]
    assert labels == [
        "control", "best kappa", "best concurrence", "evaluations", "converged",
        "degenerate ground at best point", "wrote trace to " + str(trace),
    ]
    # one row per evaluation but the final re-verification
    assert len(SweepResult.read_csv(trace).rows) == int(out.splitlines()[3].split(":")[1]) - 1
    best = float(out.splitlines()[1].split(":")[1])
    printed = float(out.splitlines()[2].split(":")[1])
    # the delta is the doubled cutoff's sectors against the printed best
    _, _, sectors = _sector_point(DickeConfig(variant="h2", kappa=best, n_max=80))
    delta = abs(sectors.value - printed)
    assert delta <= CONVERGENCE_TOL
    solved = len(set(SweepResult.read_csv(trace).column("control_0"))) + 1
    assert err == (
        f"solved {solved} distinct points for 20 evaluations\n"
        f"fock check at best kappa: convergence delta {format_value(delta)} at n_max = 40\n"
    )


def test_optimize_dicke_confirms_the_printed_best_without_a_full_solve(monkeypatch, capsys):
    # the doubled cutoff's sectors confirm the printed best, so no complex
    # full solve runs, neither at the optimum's cutoff nor at its double
    def full_solve(h):
        raise AssertionError(f"full solve of a {h.dim} x {h.dim} matrix")

    monkeypatch.setattr(dicke_module, "eigh", full_solve)
    code, out, err = run(capsys, *DICKE_OPTIMIZE, "--nmax", "40", "--lower", "0.1", "--upper", "1.1")
    assert code == 0
    assert err.splitlines()[1].endswith(" at n_max = 40")


def shift_the_sectors(monkeypatch, shift):
    """Make every sector solve read its concurrence ``shift(n_max)`` higher;
    returns the list of the cutoffs solved."""
    solved = []

    def shifted(cfg):
        solved.append(cfg.n_max)
        energy, gap, conc = _sector_point(cfg)
        return energy, gap, dataclasses.replace(conc, value=conc.value + shift(cfg.n_max))

    monkeypatch.setattr(dicke_module, "_sector_point", shifted)
    return solved


def test_optimize_dicke_lets_the_next_doubling_decide_when_the_sectors_reject(monkeypatch, capsys):
    # sectors off by 2 CONVERGENCE_TOL reject the printed best at n_max 80;
    # those sectors become the base, and the ones at 160, off by as much,
    # accept them: the optimum needs n_max 80, with the delta of 80 against 160
    argv = [*DICKE_OPTIMIZE, "--nmax", "40", "--lower", "0.1", "--upper", "1.1"]
    code, want_out, want_err = run(capsys, *argv)
    assert code == 0
    best = float(want_out.splitlines()[1].split(":")[1])
    shift = 2 * CONVERGENCE_TOL
    low, high = (
        _sector_point(DickeConfig(variant="h2", kappa=best, n_max=n))[2].value + shift
        for n in (80, 160)
    )
    shift_the_sectors(monkeypatch, lambda n: shift)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (
        f"{want_err.splitlines()[0]}\n"
        f"fock check at best kappa: convergence delta {format_value(abs(high - low))} at n_max = 80\n"
        "numerical failure: concurrence at the optimum needs n_max = 80, above --nmax 40\n"
    )


def test_optimize_dicke_solves_each_doubled_cutoff_once_when_the_sectors_reject(monkeypatch, capsys):
    # sectors that reject at every cutoff: the Fock check solves n_max 80
    # and 160 once each on their sectors, and no cutoff in full
    def full_solve(h):
        raise AssertionError(f"full solve of a {h.dim} x {h.dim} matrix")

    monkeypatch.setattr(dicke_module, "eigh", full_solve)
    solved = shift_the_sectors(monkeypatch, lambda n: n * CONVERGENCE_TOL)
    code, out, err = run(capsys, *DICKE_OPTIMIZE, "--nmax", "40", "--lower", "0.1", "--upper", "1.1")
    assert code == 3
    assert solved == [80, 160]
    assert "numerical failure: concurrence at the optimum still changes by " in err
    assert err.rstrip().endswith("at n_max = 160")


def test_optimize_dicke_exits_3_when_the_optimum_needs_a_larger_cutoff(capsys):
    code, out, err = run(capsys, *DICKE_OPTIMIZE, "--nmax", "2", "--lower", "1.1", "--upper", "1.2")
    assert code == 3
    assert out == ""
    assert "numerical failure: concurrence at the optimum needs n_max = " in err
    assert err.rstrip().endswith("above --nmax 2")


def test_optimize_dicke_exits_3_when_the_cutoff_never_settles(monkeypatch, capsys):
    monkeypatch.setattr(cli, "N_MAX_LIMIT", 4)
    code, out, err = run(capsys, *DICKE_OPTIMIZE, "--nmax", "1", "--lower", "1.1", "--upper", "1.2")
    assert code == 3
    assert out == ""
    assert "numerical failure: concurrence at the optimum still changes by " in err
    assert err.rstrip().endswith("at n_max = 4")


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_config_file_defaults_and_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model = ising\ndelta = 0\nlambda = 1\n")
    code, out, _ = run(capsys, "spectrum", "--config", str(config))
    assert code == 0
    assert "max analytic deviation" in out
    # flags override the file: lambda 0 gives the bare-coupling spectrum
    code, out, _ = run(capsys, "spectrum", "--config", str(config), "--lambda", "0")
    assert code == 0
    values = [float(l.split("=")[1]) for l in out.splitlines() if l.startswith("E[")]
    assert np.allclose(values, [-2, -2, 0, 0, 0, 0, 2, 2], atol=1e-12)


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("model = ising\nno_such_option = 1\n")
    code, _, _ = run(capsys, "spectrum", "--config", str(config))
    assert code == 2


def test_config_file_missing(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "/nonexistent/file.cfg")
    assert code == 2
    assert "config error" in err


def test_config_file_malformed(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("just a line without equals\n")
    code, _, err = run(capsys, "spectrum", "--config", str(config))
    assert code == 2


@pytest.mark.parametrize(
    "argv, solver",
    [
        (["sweep", "--model", "ising", "--delta-grid", "0:1:2", "--lambda-grid", "0:1:2", "--out"],
         "ising_sweep"),
        (["optimize", "--model", "ising", "--delta", "0.1", "--budget", "10", "--trace-out"], "optimize"),
        (["theorem", "--trials", "2", "--seed", "1", "--out"], "theorem_fuzz"),
        (["sweep", "--model", "dicke", "--variants", "h1", "--kappa-grid", "0:1:2", "--out"], "dicke_sweep"),
    ],
    ids=["sweep", "optimize", "theorem", "sweep-dicke"],
)
def test_an_unwritable_output_path_exits_2(argv, solver, tmp_path, capsys, monkeypatch):
    # the command fails on the path before it solves anything
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, solver, no_solve)
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert (out, err) == ("", f"cannot write output: [Errno 2] No such file or directory: '{path}'\n")
    assert not path.exists()


def test_an_output_path_is_neither_created_nor_truncated_before_the_solve(tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("kept\n")

    def no_solve(*args, **kwargs):
        raise ValueError("no solve")

    monkeypatch.setattr(cli, "ising_sweep", no_solve)
    code, _, err = run(capsys, "sweep", "--model", "ising", "--out", str(path))
    assert (code, err) == (2, "invalid configuration: no solve\n")
    assert path.read_text() == "kept\n"
    monkeypatch.setattr(cli, "theorem_fuzz", no_solve)
    code, _, _ = run(capsys, "theorem", "--out", str(tmp_path / "new.csv"))
    assert code == 2
    assert not (tmp_path / "new.csv").exists()


def test_the_parser_is_built_once_and_keeps_no_value_of_a_call(monkeypatch):
    namespaces = []
    for command in ("spectrum", "optimize"):
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: namespaces.append(vars(args)) or 0)
    argvs = [
        ["optimize", "--model", "dicke", "--variant", "h3", "--nmax", "9", "--budget", "7",
         "--lower", "0.5", "--trace-out", "trace.csv"],
        ["spectrum", "--model", "ising", "--lambda", "2.5", "--j", "3", "--delta", "0.2"],
        ["optimize", "--model", "ising"],
        ["spectrum", "--model", "dicke"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    assert cli._build_parser() is cli._build_parser()
    # each call reads what a parser built for it alone reads
    fresh = [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in argvs]
    assert namespaces == fresh
    assert (namespaces[2]["variant"], namespaces[2]["trace_out"], namespaces[2]["budget"]) == ("h1", None, 300)
    assert (namespaces[3]["lam"], namespaces[3]["j"], namespaces[3]["delta"]) == (0.0, 1.0, 0.0)


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_readme_commands_write_the_recorded_bytes(tmp_path, monkeypatch):
    # the README's sweep and theorem commands, with the exit codes and CSV
    # digests the benchmark's gate records for them, in processes with BLAS
    # pinned to one thread, as the benchmark runs them, and to two
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    readme_commands = importlib.import_module("workloads").README_COMMANDS
    got, want = {}, {}
    for threads in ("1", "2"):
        for name, (argv, code, digest) in readme_commands.items():
            proc = medent_process([*argv, "--out", name], threads, tmp_path)
            written = (tmp_path / name).read_bytes()
            got[threads, name] = (proc.returncode, hashlib.sha256(written).hexdigest())
            want[threads, name] = (code, digest)
    assert got == want


# sha256 of what the optimize commands below wrote before the optimizer solved
# each distinct point only once; the search must keep every byte.  The Dicke
# stderr is the Fock check's line, whose convergence delta is the doubled
# cutoff's sectors against the printed best concurrence
# (6.2450045135165055e-16; 7.0776717819853729e-16 against the full solve at
# the optimum's cutoff, which differs from the printed best by up to 1.43e-8)
OPTIMIZE_DIGESTS = {
    "ising": (
        [*README_OPTIMIZE_ISING, "--trace-out", "trace.csv"],
        {
            "stdout": "b942f8b48ca2b5b09e3dcba7f8245fed3f67cd9afc5d793cdcc70895d6aa6c44",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "trace.csv": "2d0e647b365d8593d0bb17b7cf64f6ab36244ad2a4a53ec8ce1dcf7aa3983d35",
        },
    ),
    "dicke": (
        ["optimize", "--model", "dicke", "--variant", "h2", "--nmax", "40",
         "--lower", "0.1", "--upper", "1.1", "--budget", "60", "--seed", "1"],
        {
            "stdout": "77ef7e6f092260ee419de3e71caea899a3ca2e855cbf919e07a5a4fa9a4d26a9",
            "stderr": "8b92e09cd1dc7e23656a715aa2c857eb807ce8df84948d4e9bca5641a10d57da",
        },
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", OPTIMIZE_DIGESTS)
def test_optimize_commands_write_the_recorded_bytes(name, threads, tmp_path):
    # a process with BLAS pinned to one thread, as the benchmark runs it, and
    # one with two: both write the same bytes, as each ground level is solved
    # on real blocks (a complex 164 x 164 solve rounded differently)
    argv, digests = OPTIMIZE_DIGESTS[name]
    proc = medent_process(argv, threads, tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the solved count is the one line the recorded stderr lacks
    solved, _, stderr = proc.stderr.partition(b"\n")
    assert re.fullmatch(rb"solved \d+ distinct points for \d+ evaluations", solved)
    got = {"stdout": proc.stdout, "stderr": stderr}
    got.update({f: (tmp_path / f).read_bytes() for f in digests if f not in got})
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == digests
