"""Command line entry points, exit codes, and output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import domsplit
from domsplit import JacobiOperator, periodic_operator
from domsplit.cli import main
from domsplit.harness import johnson_scan
from domsplit.jacobi import load_operator, save_operator


@pytest.fixture()
def free_config(tmp_path):
    op = JacobiOperator(j_lo=-100, a=np.ones(200, complex), b=np.zeros(200))
    path = tmp_path / "free.json"
    save_operator(op, path)
    return str(path)


@pytest.fixture()
def mod5_config(tmp_path):
    op = periodic_operator([0, 1, 1, 1, 1], [0.3, -0.2, 0.5, 0, 0.1], (-100, 99))
    path = tmp_path / "mod5.json"
    save_operator(op, path)
    return str(path)


# --------------------------------------------------------------- spectrum


def test_spectrum_json(free_config, tmp_path):
    out = tmp_path / "sp.json"
    code = main(["spectrum", "--config", free_config, "--out", str(out),
                 "--sizes", "100,150,199"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["segments"]) == 1
    lo, hi = doc["segments"][0]
    assert abs(lo + 2.0) < 1e-2 and abs(hi - 2.0) < 1e-2
    assert doc["resolution"] > 0


def test_spectrum_csv_stdout(mod5_config, capsys):
    code = main(["spectrum", "--config", mod5_config, "--format", "csv",
                 "--sizes", "100,150"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "seg_lo,seg_hi"
    assert len(lines) >= 2


# ---------------------------------------------------------------- certify


def test_certify_verified(free_config, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["certify", "--config", free_config, "--energy", "3.0",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "verified"
    assert doc["N"] == 1
    assert doc["notes"]["delta_spec"] > 0.9


def test_certify_in_band_fails(free_config, capsys):
    code = main(["certify", "--config", free_config, "--energy", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "failed"


def test_certify_complex_energy(free_config, capsys):
    code = main(["certify", "--config", free_config, "--energy", "0.0,1.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["notes"]["energy"] == [0.0, 1.5]


def test_certify_burn_override(free_config, capsys):
    code = main(["certify", "--config", free_config, "--energy", "3.0",
                 "--burn", "12"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["burn"] == 12


@pytest.mark.parametrize("key, value", [("period", 2.5), ("window", [-100.7, 99.2])])
def test_config_with_a_count_that_is_not_an_integer_exits_3(free_config, capsys, key, value):
    # the count used to be truncated: period 2.5 loaded as 2, and the
    # window [-100.7, 99.2] as (-100, 99)
    path = Path(free_config)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    code = main(["certify", "--config", free_config, "--energy", "3.0"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and "an integer, got" in err


@pytest.mark.parametrize("key, value, match", [
    ("a", [None, 0.0], "a[0] must hold numbers, got None"),
    ("b", "x", "b[0] must hold numbers, got 'x'"),
])
def test_config_with_a_malformed_coefficient_exits_3(free_config, capsys, key, value, match):
    # a null coupling used to escape as TypeError: a traceback and exit 1
    path = Path(free_config)
    doc = json.loads(path.read_text())
    doc[key][0] = value
    path.write_text(json.dumps(doc))
    code = main(["certify", "--config", free_config, "--energy", "3.0"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and f"input error: {match}" in err


def test_certify_refuses_a_burn_below_1(free_config, capsys):
    # a negative hint is unusable input, not a request for burn 1
    code = main(["certify", "--config", free_config, "--energy", "3.0", "--burn", "-5"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and "burn must be >= 1" in err


def test_certify_burn_0_lets_the_certifier_choose(free_config, capsys):
    code = main(["certify", "--config", free_config, "--energy", "3.0", "--burn", "0"])
    assert code == 0
    chosen = json.loads(capsys.readouterr().out)
    assert main(["certify", "--config", free_config, "--energy", "3.0"]) == 0
    assert json.loads(capsys.readouterr().out) == chosen


# ------------------------------------------------------------------ green


def test_green(free_config, tmp_path):
    out = tmp_path / "g.json"
    code = main(["green", "--config", free_config, "--energy", "3.0",
                 "--site", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["gamma_fit"] - 0.9624236501192065) < 1e-10
    assert doc["residual"] < 1e-9
    assert doc["normalization_residual"] < 1e-9
    center = doc["values"][doc["site"] - doc["j_first"]]
    assert abs(center[0] + 1.0 / np.sqrt(5.0)) < 1e-10


def test_green_exact_column_at_fixed_margin(tmp_path):
    op = JacobiOperator(j_lo=-300, a=np.ones(600, complex), b=np.zeros(600))
    path = tmp_path / "free600.json"
    save_operator(op, path)
    out = tmp_path / "g.json"
    code = main(["green", "--config", str(path), "--energy", "0.319,0.390",
                 "--site", "94", "--margin", "64", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["margin"] == 64


def test_green_rejects_in_band_energy(free_config, capsys):
    code = main(["green", "--config", free_config, "--energy", "1.0",
                 "--site", "0"])
    assert code == 3
    assert "input error" in capsys.readouterr().err


# ------------------------------------------------------------------- scan


def test_scan_csv(free_config, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--config", free_config, "--grid=-4,4,9",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("E_re,E_im,delta_spec")


def test_scan_json_file(free_config, tmp_path):
    # the report's JSON form, written as every JSON output of the CLI is
    out = tmp_path / "scan.json"
    code = main(["scan", "--config", free_config, "--grid", "2.5,4,3", "--out", str(out)])
    assert code == 0
    report = johnson_scan(load_operator(free_config), np.linspace(2.5, 4.0, 3))
    assert out.read_text() == json.dumps(report.to_json(), indent=1) + "\n"


def test_scan_json_stdout(free_config, capsys):
    code = main(["scan", "--config", free_config, "--grid", "2.5,4,3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 3
    assert doc["hard_disagreements"] == []


def test_scan_complex_rectangle(free_config, capsys):
    code = main(["scan", "--config", free_config,
                 "--complex", "2.5,3.5,0.5,1.0", "--im-points", "2",
                 "--grid", "0,0,3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 6
    assert all(r["E_im"] != 0.0 for r in doc["rows"])


def test_scan_needs_a_grid(free_config, capsys):
    assert main(["scan", "--config", free_config]) == 3
    assert "scan needs --grid" in capsys.readouterr().err


def test_scan_csv_needs_out(free_config, capsys):
    code = main(["scan", "--config", free_config, "--grid", "3,4,2",
                 "--format", "csv"])
    assert code == 3
    assert "--format csv needs --out" in capsys.readouterr().err


def test_certify_refuses_format(free_config, capsys):
    # certify writes JSON only, so it offers no --format to ignore;
    # argparse refuses the option, with the exit code of unusable input
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", free_config, "--energy", "3.0", "--format", "csv"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


# ---------------------------------------------------------------- perturb


def test_perturb_within_budget(free_config, capsys):
    code = main(["perturb", "--config", free_config, "--energy", "3.0",
                 "--trials", "5", "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_ok"] == 5
    assert doc["base_epsilon"] > 0.1


def test_perturb_uncertified_base(free_config, capsys):
    code = main(["perturb", "--config", free_config, "--energy", "0.0",
                 "--trials", "3"])
    assert code == 2
    assert "does not certify" in capsys.readouterr().err


def test_perturb_refuses_negative_trials(free_config, capsys):
    code = main(["perturb", "--config", free_config, "--energy", "3.0",
                 "--trials", "-1"])
    assert code == 3
    assert "trials must be >= 0" in capsys.readouterr().err


def test_perturb_explicit_size(free_config, capsys):
    code = main(["perturb", "--config", free_config, "--energy", "3.0",
                 "--epsilon", "0.001", "--trials", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 0.001


def test_perturb_refuses_a_negative_size(free_config, capsys):
    code = main(["perturb", "--config", free_config, "--energy", "3.0",
                 "--epsilon", "-0.1", "--trials", "3"])
    assert code == 3
    assert "size must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------- dyncheck


def test_dyncheck_constant_family(capsys):
    code = main(["dyncheck", "--family", "constant", "--alpha", "1/3",
                 "--energy", "3.0", "--phases", "4", "--periods", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True
    assert doc["uniform_N"] == 1
    assert doc["continuity_ok"] is True
    assert doc["verdicts"] == ["verified"] * 4


def test_dyncheck_in_band_fails(capsys):
    code = main(["dyncheck", "--family", "almost_mathieu", "--param",
                 "coupling=0.5", "--alpha", "1/2", "--energy", "0.0",
                 "--phases", "4", "--periods", "20"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is False


def test_dyncheck_with_inclusion(capsys):
    code = main(["dyncheck", "--family", "almost_mathieu", "--param",
                 "coupling=0.5", "--alpha", "8/21", "--omega0", "0.15",
                 "--energy", "4.0", "--phases", "6", "--periods", "2",
                 "--inclusion", "--inclusion-eps", "0.3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    inc = doc["inclusion"]
    assert inc["ok"] is True
    assert inc["worst_excess"] < 0.3


def test_dyncheck_refuses_an_empty_phase_grid(capsys):
    code = main(["dyncheck", "--family", "constant", "--alpha", "1/3",
                 "--energy", "3.0", "--phases", "0"])
    assert code == 3
    assert "phase grid is empty" in capsys.readouterr().err


def test_dyncheck_unknown_family(capsys):
    code = main(["dyncheck", "--family", "nope", "--alpha", "1/2",
                 "--energy", "3.0"])
    assert code == 3
    assert "input error" in capsys.readouterr().err


# ------------------------------------------------------------ input errors


def test_missing_config(tmp_path, capsys):
    code = main(["certify", "--config", str(tmp_path / "absent.json"),
                 "--energy", "3.0"])
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["spectrum", "--config", str(bad)])
    assert code == 3


def test_scan_refuses_jobs_0(free_config, capsys):
    # jobs 0 used to run the scan serially
    code = main(["scan", "--config", free_config, "--grid", "2.5,4,3", "--jobs", "0"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and "jobs must be >= 1" in err


def test_module_entry_point_exits_3_on_a_malformed_config(tmp_path):
    # python -m domsplit runs the same main() as the console script, and
    # its exit code reaches the shell
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    src = str(Path(domsplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "domsplit", "certify", "--config", str(bad), "--energy", "3.0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "input error" in proc.stderr


def test_inconsistent_config(tmp_path, capsys):
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps({
        "window": [0, 5],
        "a": [[1.0, 0.0]],
        "b": [0.0],
        "extension": "zero",
    }))
    code = main(["spectrum", "--config", str(bad)])
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_bad_energy_syntax(free_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", free_config, "--energy", "1,2,3"])
    assert exc.value.code == 3
    assert "energy must be RE or RE,IM" in capsys.readouterr().err


def test_missing_energy(free_config, capsys):
    # a usage error of a subcommand exits 3 too: subparsers share the class
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", free_config])
    assert exc.value.code == 3
    assert "the following arguments are required: --energy" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: domsplit" in capsys.readouterr().out
