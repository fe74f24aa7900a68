import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consfloor
from consfloor.cli import main
from consfloor.serialize import read_policy_csv, sha256_file

import oracles

BASE_CONFIG = {"r": 0.03, "mu": 0.05, "sigma": 0.2, "beta": 0.1, "p": 0.5}


def write_config(tmp_path, name="config.json", **overrides):
    data = dict(BASE_CONFIG)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def nh_config(tmp_path):
    return write_config(tmp_path, k=0.02, l=1.0, x0=150.0)


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_classify_nonhomogeneous(capsys, nh_config):
    code, out = run_cli(capsys, "classify", "--config", str(nh_config))
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "NonHomogeneous"
    assert obj["kappa"] == pytest.approx(0.1075, rel=1e-12)
    assert obj["x_e"] == pytest.approx(100.0, rel=1e-12)
    assert obj["c_e"] == pytest.approx(3.0, rel=1e-12)
    assert obj["x0_feasible"] is True


def test_classify_infeasible_and_merton(capsys, tmp_path):
    infeasible = write_config(tmp_path, "inf.json", k=0.05, l=1.0)
    code, out = run_cli(capsys, "classify", "--config", str(infeasible))
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "InfeasibleAll"
    assert obj["x_e"] is None
    merton = write_config(tmp_path, "mer.json", k=0.0, l=0.0)
    code, out = run_cli(capsys, "classify", "--config", str(merton))
    assert json.loads(out)["case"] == "MertonUnconstrained"


def test_classify_reports_infeasible_wealth(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.02, l=1.0, x0=99.0)
    code, out = run_cli(capsys, "classify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["x0_feasible"] is False


def test_invalid_config_exits_2(capsys, tmp_path):
    bad = write_config(tmp_path, "bad.json", typo_key=1.0)
    assert main(["classify", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["classify", "--config", str(missing)]) == 2


def test_solve_fixed_floor_summary(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.0, l=1.0)
    out_dir = tmp_path / "run"
    code, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out_dir),
                      "--span", "1e3")
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["case"] == "StateIndependent"
    assert len(summary["x_star_list"]) == 1
    assert summary["x_star_list"][0] == pytest.approx(oracles.SI_X_STAR, abs=1e-2)
    for name in ("dual.csv", "policy.csv", "manifest.json"):
        assert (out_dir / name).exists()
    digests = summary["digests"]
    assert digests["dual.csv"] == sha256_file(out_dir / "dual.csv")
    assert digests["policy.csv"] == sha256_file(out_dir / "policy.csv")


def test_solve_homogeneous_linear_policy(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.2, l=0.0)
    out_dir = tmp_path / "hom"
    code, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    from consfloor import make_spec
    spec = make_spec(**BASE_CONFIG, k=0.2, l=0.0)
    table = read_policy_csv(out_dir / "policy.csv", spec)
    assert np.allclose(table.c_star / table.x, 0.2, rtol=1e-9)


def test_solve_infeasible_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.05, l=1.0)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg2 = write_config(tmp_path, "k2.json", beta=0.01)   # kappa < 0
    assert main(["solve", "--config", str(cfg2), "--out", str(tmp_path / "y")]) == 2


def test_solve_verify_round_trip(capsys, nh_config, tmp_path):
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(nh_config), "--out", str(out_dir),
                 "--span", "1e3"]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "verify", "--config", str(nh_config),
                        "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    # verify twice: identical report bytes
    digest1 = sha256_file(out_dir / "report.json")
    assert main(["verify", "--config", str(nh_config), "--out", str(out_dir)]) == 0
    assert sha256_file(out_dir / "report.json") == digest1
    # manifest accumulated one entry per command, in one file
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [run["command"] for run in manifest["runs"]] == ["solve", "verify", "verify"]


def test_verify_corrupted_policy_exits_4(capsys, nh_config, tmp_path):
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(nh_config), "--out", str(out_dir),
                 "--span", "1e3"]) == 0
    policy_path = out_dir / "policy.csv"
    lines = policy_path.read_text().splitlines()
    mid = len(lines) // 2
    parts = lines[mid].split(",")
    parts[1] = f"{float(parts[1]) * 1.02:.16e}"   # corrupt V
    lines[mid] = ",".join(parts)
    policy_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(nh_config), "--out", str(out_dir)]) == 4


def test_verify_truncated_policy_row_exits_2(capsys, nh_config, tmp_path):
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(nh_config), "--out", str(out_dir),
                 "--span", "1e3"]) == 0
    policy_path = out_dir / "policy.csv"
    lines = policy_path.read_text().splitlines()
    mid = len(lines) // 2
    lines[mid] = lines[mid].split(",", 1)[1]   # drop the row's x cell
    policy_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", str(nh_config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(policy_path) in err
    assert f"line {mid + 1}: expected 7 cells, found 6" in err


def test_verify_without_solve_exits_2(capsys, nh_config, tmp_path):
    assert main(["verify", "--config", str(nh_config), "--out",
                 str(tmp_path / "nothing")]) == 2


def test_simulate_marginal_wealth_uses_floor(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.02, l=1.0, x0=100.0)
    code, out = run_cli(capsys, "simulate", "--config", str(cfg),
                        "--policy", "optimal", "--dt", "0.01", "--horizon", "5",
                        "--paths", "50", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["std_error"] == 0.0   # degenerate marginal path


def test_simulate_infeasible_wealth_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.02, l=1.0)
    assert main(["simulate", "--config", str(cfg), "--x0", "99.0",
                 "--dt", "0.01", "--horizon", "5", "--paths", "10"]) == 2


def test_simulate_infinite_horizon_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.0, l=0.0)
    assert main(["simulate", "--config", str(cfg), "--x0", "1.0",
                 "--horizon", "inf", "--paths", "10"]) == 2
    assert "horizon" in capsys.readouterr().err


def test_simulate_too_many_steps_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, "merton.json", k=0.0, l=0.0)
    assert main(["simulate", "--config", str(cfg), "--x0", "1", "--dt", "1e-300",
                 "--horizon", "1", "--paths", "4"]) == 2
    err = capsys.readouterr().err
    assert "dt=1e-300" in err and "horizon=1.0" in err


def test_simulate_missing_x0_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, k=0.02, l=1.0)
    assert main(["simulate", "--config", str(cfg), "--dt", "0.01",
                 "--horizon", "5", "--paths", "10"]) == 2


def test_simulate_writes_sim_json(capsys, nh_config, tmp_path):
    out_dir = tmp_path / "simrun"
    code, out = run_cli(capsys, "simulate", "--config", str(nh_config),
                        "--policy", "floor", "--dt", "0.01", "--horizon", "5",
                        "--paths", "100", "--seed", "9", "--out", str(out_dir))
    assert code == 0
    on_disk = json.loads((out_dir / "sim.json").read_text())
    assert on_disk == json.loads(out)
    assert on_disk["policy"] == "floor"
    assert on_disk["n_paths"] == 100


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "consfloor.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "consfloor" in proc.stdout


# solve and verify the baseline with scipy blocked: any scipy import raises
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from consfloor.cli import main
config, out = sys.argv[1:]
sys.exit(main(["solve", "--config", config, "--out", out, "--span", "1e3"])
         or main(["verify", "--config", config, "--out", out]))
"""

_IMPORTS_NO_SCIPY = """
import sys
import consfloor
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "consfloor"
import consfloor.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "consfloor.cli"
"""


def _run_package_python(*args):
    src = str(Path(consfloor.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          env=env)


def test_solve_and_verify_run_without_scipy(nh_config, tmp_path):
    out_dir = tmp_path / "run"
    proc = _run_package_python(_WITHOUT_SCIPY, str(nh_config), str(out_dir))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out_dir / "report.json").read_text())["overall"] is True


def test_package_import_loads_no_scipy():
    proc = _run_package_python(_IMPORTS_NO_SCIPY)
    assert proc.returncode == 0, proc.stderr


# what each entry point loads: the CLI module pulls in neither the
# simulator nor the check suite, and the package's re-exports of both
# resolve on first access
_LAZY_IMPORTS = """
import sys
import consfloor.cli
lazy = ("consfloor.montecarlo", "consfloor.verification")
assert not [m for m in lazy if m in sys.modules], "consfloor.cli"
import consfloor
assert "run_all" in dir(consfloor) and "simulate" in dir(consfloor)
consfloor.simulate
assert "consfloor.montecarlo" in sys.modules, "consfloor.simulate"
assert "consfloor.verification" not in sys.modules, "consfloor.simulate"
assert all(getattr(consfloor, name) is not None for name in consfloor.__all__)
assert set(consfloor.__all__) <= set(dir(consfloor)), "dir"
namespace = {}
exec("from consfloor import *", namespace)
assert set(consfloor.__all__) <= set(namespace), "import *"
from consfloor.montecarlo import simulate
from consfloor.verification import run_all
assert namespace["simulate"] is simulate and namespace["run_all"] is run_all
try:
    consfloor.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("consfloor.no_such_name resolved")
"""


def test_cli_loads_only_what_it_runs_and_lazy_names_resolve():
    proc = _run_package_python(_LAZY_IMPORTS)
    assert proc.returncode == 0, proc.stderr


_COMMAND_IMPORTS = """
import sys
from consfloor.cli import main
config, out = sys.argv[1:]
def loaded():
    return {m for m in ("consfloor.montecarlo", "consfloor.verification") if m in sys.modules}
assert main(["solve", "--config", config, "--out", out, "--span", "1e3"]) == 0
assert loaded() == set(), ("solve", loaded())
assert main(["verify", "--config", config, "--out", out]) == 0
assert loaded() == {"consfloor.verification"}, ("verify", loaded())
"""


def test_solve_loads_neither_simulator_nor_checks_and_verify_only_checks(nh_config, tmp_path):
    proc = _run_package_python(_COMMAND_IMPORTS, str(nh_config), str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
