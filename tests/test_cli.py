import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from medent.cli import main
from medent.dicke import DickeConfig, dicke_ground_point
from medent.sweeps import SweepResult


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


def test_optimize_zero_budget_usage_error(capsys):
    code, _, err = run(
        capsys, "optimize", "--model", "ising", "--budget", "0"
    )
    assert code == 2


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
    point = dicke_ground_point(DickeConfig(variant="h2", kappa=best, n_max=40))
    assert err == (
        f"fock check at best kappa: convergence delta {point.convergence_delta!r} at n_max = 40\n"
    )


def test_optimize_dicke_exits_3_when_the_optimum_needs_a_larger_cutoff(capsys):
    code, out, err = run(capsys, *DICKE_OPTIMIZE, "--nmax", "2", "--lower", "1.1", "--upper", "1.2")
    assert code == 3
    assert out == ""
    assert "numerical failure: concurrence at the optimum needs n_max = " in err
    assert err.rstrip().endswith("above --nmax 2")


def test_optimize_dicke_exits_3_when_the_cutoff_never_settles(monkeypatch, capsys):
    import functools

    import medent.cli

    monkeypatch.setattr(
        medent.cli, "dicke_ground_point", functools.partial(dicke_ground_point, n_max_limit=4)
    )
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


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_readme_commands_write_the_recorded_bytes(tmp_path, capsys, monkeypatch):
    # the README's sweep and theorem commands, with the exit codes and CSV
    # digests the benchmark's gate records for them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    readme_commands = importlib.import_module("workloads").README_COMMANDS
    got = {}
    for name, (argv, _, _) in readme_commands.items():
        path = tmp_path / name
        code = main(argv + ["--out", str(path)])
        got[name] = (code, hashlib.sha256(path.read_bytes()).hexdigest())
    capsys.readouterr()
    assert got == {name: (code, digest) for name, (_, code, digest) in readme_commands.items()}
