import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from lie_sbe import catalog, cli, jsonio


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


def test_check_catalog_law(capsys):
    code, payload, _ = run_json(capsys, ["check", "catalog:heis(3)"])
    assert code == 0
    assert payload["jacobi_ok"] is True
    fp = payload["fingerprint"]
    assert fp["dim"] == 3
    assert fp["betti"] == [1, 2, 2, 1]
    assert fp["nilpotent"] is True


def test_check_text_mode(capsys):
    code, out, _ = run_cli(capsys, ["check", "--text", "catalog:b(3,R)"])
    assert code == 0
    assert "jacobi: ok" in out
    assert "dim: 3" in out


def test_check_failing_law(tmp_path, capsys):
    bad = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "k": 3, "c": "1"},
            {"i": 1, "j": 3, "k": 1, "c": "1"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, payload, _ = run_json(capsys, ["check", str(path)])
    assert code == 1
    assert payload["jacobi_ok"] is False
    assert payload["failing_triple"] == [1, 2, 3]


def test_malformed_law_file_is_exit_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3, "brackets": [{"i": 2, "j": 1, "k": 3, "c": "1"}]}')
    code, out, err = run_cli(capsys, ["check", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_missing_file_is_exit_3(capsys):
    code, _, err = run_cli(capsys, ["check", "/no/such/file.json"])
    assert code == 3
    assert "cannot read" in err


def test_cohomology_dims(capsys):
    code, payload, _ = run_json(
        capsys,
        ["cohomology", "catalog:l_6_7", "--degree", "2", "--module", "adjoint"])
    assert code == 0
    assert payload["dim"] == 18
    code, payload, _ = run_json(
        capsys,
        ["cohomology", "catalog:l_6_7", "--degree", "2", "--reps"])
    assert code == 0
    assert payload["dim"] == 5
    assert len(payload["representatives"]) == 5


def test_cohomology_degree_guard(capsys):
    code, _, err = run_cli(
        capsys, ["cohomology", "catalog:heis(3)", "--degree", "9"])
    assert code == 3
    assert "out of range" in err


def test_contract_to_limit(capsys):
    code, payload, _ = run_json(
        capsys,
        ["contract", "catalog:s_prime", "--family", '{"w": [0, -1, -1, 0]}'])
    assert code == 0
    assert payload["diverges"] is False
    limit = jsonio.law_loads(json.dumps(payload["limit"]))
    assert limit == catalog("h2c_solvable")


def test_contract_divergent(capsys):
    code, payload, _ = run_json(
        capsys,
        ["contract", "catalog:b(3,R)", "--family", '{"w": [0, 0, 1]}'])
    assert code == 1
    assert payload["diverges"] is True
    assert payload["limit"] is None
    assert {"i": 1, "j": 3, "k": 1, "exponent": 1, "c": "-1"} in payload["entries"]


def test_obstruct_directions(capsys):
    code, payload, _ = run_json(
        capsys,
        ["obstruct", "--source", "catalog:l_6_7", "--target", "catalog:l_6_6"])
    assert code == 0
    assert payload["obstructed"] is True
    names = [r["name"] for r in payload["semicontinuity"]["rows"] if r["violated"]]
    assert "dim_H1_adjoint" in names

    code, payload, _ = run_json(
        capsys,
        ["obstruct", "--source", "catalog:l_6_6", "--target", "catalog:l_6_7",
         "--spectral"])
    assert code == 1
    assert payload["obstructed"] is False
    assert payload["spectral"]["status"] in ("not_obstructed", "inapplicable")


def test_certify_h2c(capsys):
    code, payload, _ = run_json(capsys, ["certify", "catalog:s_prime", "--h2c"])
    assert code == 0
    assert payload["applies"] is True
    assert payload["family"]["w"] == ["0", "-1", "-1", "0"]
    code, payload, _ = run_json(capsys, ["certify", "catalog:s_second", "--h2c"])
    assert code == 1
    assert "derived" in payload["reason"]


def test_certify_lauret(capsys):
    code, payload, _ = run_json(capsys, ["certify", "catalog:b(3,R)", "--lauret"])
    assert code == 0 and payload["applies"] is True
    with pytest.raises(SystemExit) as exc:
        cli.run(["certify", "catalog:b(3,R)", "--lauret", "--h2c"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_reduce(capsys):
    code, payload, _ = run_json(
        capsys,
        ["reduce", "catalog:s_prime", "--cartan", "[[0, 0, 0, 1]]"])
    assert code == 0
    assert payload["r_dim"] == 3
    g_inf = jsonio.law_loads(json.dumps(payload["g_inf"]))
    assert g_inf == catalog("h2c_solvable")


def test_modify(capsys):
    torus = "[[[0, -1, 0], [1, 0, 0], [0, 0, 0]]]"
    tau = '[["0", "0", "1"]]'
    code, payload, _ = run_json(
        capsys,
        ["modify", "catalog:b(3,R)", "--torus", torus, "--tau", tau])
    assert code == 0
    assert payload["closure"] is True
    assert payload["twisting"] is True
    assert payload["jacobi_ok"] is True
    law = jsonio.law_loads(json.dumps(payload["law"]))
    delta = jsonio.law_loads(json.dumps(payload["delta"]))
    base = catalog("b(3,R)")
    assert law.table != base.table
    # law = base + delta entry by entry
    for (i, j), row in law.table.items():
        for k, c in row.items():
            b = base.table.get((i, j), {}).get(k, 0)
            d = delta.table.get((i, j), {}).get(k, 0)
            assert c == b + d


def test_classify(capsys):
    code, payload, _ = run_json(capsys, ["classify", "catalog:h2c_solvable"])
    assert code == 0
    assert payload["target"] == "complex_hyperbolic_plane"
    assert payload["commable_to"] == "SU21"

    code, payload, _ = run_json(capsys, ["classify", "catalog:heis(3)"])
    assert code == 1
    assert payload["target"] == "none"


def test_table2(capsys):
    code, payload, _ = run_json(capsys, ["table2"])
    assert code == 0
    assert len(payload["blocks"]) == 8
    assert payload["consistent"] == [True] * 8
    assert payload["dashed"] == [5, 6]

    code, out, _ = run_cli(capsys, ["table2", "--text"])
    assert code == 0
    assert "- - -" in out
    assert "unresolved by this tool" in out


def test_pinch(capsys):
    code, payload, _ = run_json(
        capsys,
        ["pinch", "--alpha", "[[1, 0], [0, 1]]", "--eps", "0.5",
         "--samples", "200", "--seed", "1"])
    assert code == 0
    assert abs(payload["ratio"] - 1.0) < 1e-9
    assert abs(payload["sec_min"] + 1.0) < 1e-9

    code, payload, _ = run_json(
        capsys,
        ["pinch", "--alpha", "catalog:b(3,R)", "--eps", "0.5",
         "--samples", "200", "--seed", "1", "--pansu"])
    assert code == 0
    assert payload["pansu"]["holds"] is True


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_pinch_with_positive_curvature_writes_valid_json(capsys):
    # J3 at eps 1 has planes of positive curvature, so the ratio is infinite
    argv = ["pinch", "--alpha", "[[1,1,0],[0,1,1],[0,0,1]]", "--eps", "1",
            "--samples", "500", "--pansu"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["sec_max"] > 0
    assert payload["ratio"] is None
    assert payload["pansu"]["b_est"] is None and payload["pansu"]["bound"] is None
    assert payload["pansu"]["trace"] == 3.0 and payload["pansu"]["holds"] is True

    code, out, _ = run_cli(capsys, argv + ["--text"])
    assert code == 0
    assert "pinching ratio: inf" in out and "bound inf: yes" in out


def test_pinch_without_samples_is_exit_3(capsys):
    code, out, err = run_cli(
        capsys, ["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "0.1", "--samples", "0"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "samples" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_pinch_with_infinite_eps_is_exit_3(capsys):
    code, out, err = run_cli(
        capsys, ["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "inf", "--pansu"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "eps" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_contract_with_singular_base_change_is_exit_3(capsys):
    family = json.dumps({"w": [0, -1, -1, 0], "P": [[0] * 4 for _ in range(4)]})
    code, out, err = run_cli(capsys, ["contract", "catalog:s_prime", "--family", family])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "singular" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_buildings_single(capsys):
    code, payload, _ = run_json(capsys, ["buildings", "--p", "5", "--q", "2"])
    assert code == 0
    assert payload["value"] == 1.0
    assert payload["exact_one"] is True
    assert payload["tau"] == ["3/2", "5/4"]


def test_buildings_pair_and_search(capsys):
    code, payload, _ = run_json(
        capsys,
        ["buildings", "--p", "6", "--q", "3", "--p2", "16", "--q2", "5",
         "--bound", "10"])
    assert code == 0
    assert payload["witnesses"] == [[1, 2]]

    code, payload, _ = run_json(capsys, ["buildings", "--search", "20", "6", "4"])
    assert code == 0
    keys = {(h["p"], h["q"], h["p2"], h["q2"]) for h in payload["hits"]}
    assert (5, 3, 9, 5) in keys and (6, 3, 16, 5) in keys
    for h in payload["hits"]:
        assert abs(h["cdim"] - h["cdim2"]) < 1e-9


def test_buildings_usage_errors(capsys):
    for argv in (
        ["buildings"],
        ["buildings", "--p", "6"],
        ["buildings", "--p", "6", "--q", "3", "--p2", "16"],
        ["buildings", "--p", "6", "--q", "3", "--p2", "16", "--q2", "5"],
        ["buildings", "--search", "20", "6", "4", "--p", "6"],
        ["buildings", "--p", "6", "--q", "3", "--bound", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_usage_error_on_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_catalog_list_and_dump(capsys):
    code, payload, _ = run_json(capsys, ["catalog", "list"])
    assert code == 0
    for name in ("b(3,R)", "heis(3)", "l_6_7", "s_prime"):
        assert name in payload["names"]

    code, payload, _ = run_json(capsys, ["catalog", "dump", "l_6_7"])
    assert code == 0
    law = jsonio.law_loads(json.dumps(payload))
    assert law == catalog("l_6_7")

    with pytest.raises(SystemExit) as exc:
        cli.run(["catalog", "dump"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_external_catalog_dir(tmp_path, capsys, monkeypatch):
    law = catalog("heis(3)")
    (tmp_path / "mine.json").write_text(jsonio.law_dumps(law))
    monkeypatch.setenv("LIE_SBE_CATALOG", str(tmp_path))

    code, payload, _ = run_json(capsys, ["catalog", "list"])
    assert code == 0
    assert "mine" in payload["names"]

    code, payload, _ = run_json(capsys, ["check", "catalog:mine"])
    assert code == 0
    assert payload["fingerprint"]["dim"] == 3

    monkeypatch.delenv("LIE_SBE_CATALOG")
    code, _, err = run_cli(capsys, ["check", "catalog:mine"])
    assert code == 3
    assert "mine" in err


def test_external_catalog_wins_over_builtins(tmp_path, capsys, monkeypatch):
    # the built-in aff is two-dimensional; the external aff.json holds heis(3)
    (tmp_path / "aff.json").write_text(jsonio.law_dumps(catalog("heis(3)")))
    monkeypatch.setenv("LIE_SBE_CATALOG", str(tmp_path))

    code, payload, _ = run_json(capsys, ["catalog", "dump", "aff"])
    assert code == 0
    assert payload["dim"] == 3

    code, payload, _ = run_json(capsys, ["catalog", "list"])
    assert code == 0
    assert payload["names"].count("aff") == 1
    assert len(payload["names"]) == len(set(payload["names"]))


def test_skip_validate_flag(tmp_path, capsys):
    bad = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "k": 3, "c": "1"},
            {"i": 1, "j": 3, "k": 1, "c": "1"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, ["cohomology", str(path), "--degree", "1"])
    assert code == 3
    assert "Jacobi" in err
    code, payload, _ = run_json(
        capsys, ["cohomology", str(path), "--degree", "1", "--skip-validate"])
    assert code == 0
    assert isinstance(payload["dim"], int)


@pytest.mark.skipif(
    shutil.which("lie-sbe") is None,
    reason="lie-sbe console script not on PATH; install with "
           "`pip install -e . --no-build-isolation`")
def test_installed_entry_point():
    exe = shutil.which("lie-sbe")
    assert exe is not None
    proc = subprocess.run(
        [exe, "buildings", "--p", "5", "--q", "2"],
        capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["exact_one"] is True


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_quietly(child_env):
    # the dump (about 150 kB) overflows a default 64 KiB pipe buffer, so the
    # child meets the closed pipe whether or not it writes before the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "lie_sbe.cli", "catalog", "dump", "heis(3001)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_STARTUP_PROBE = """
import contextlib, io, json, sys
from lie_sbe import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()

codes = [run(argv)[0] for argv in (["catalog", "list"], ["check", "catalog:b(3,R)"],
                                   ["table2", "--text"])]
numpy_before = "numpy" in sys.modules
code, out = run(["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "0.1", "--samples", "2000",
                 "--pansu"])
print(json.dumps({"codes": codes, "numpy_before": numpy_before, "pinch_code": code,
                  "pinch_out": out, "numpy_after": "numpy" in sys.modules}))
"""


def test_numpy_is_loaded_only_by_the_float_commands(fresh_python):
    report = json.loads(fresh_python(_STARTUP_PROBE))
    assert report["codes"] == [0, 0, 0]
    assert report["numpy_before"] is False
    # the README pinch command loads the float layer and prints its golden bytes
    assert report["pinch_code"] == 0
    assert report["numpy_after"] is True
    with open(os.path.join(GOLDEN, "readme_pinch.out"), "rb") as fh:
        assert report["pinch_out"].encode("utf-8") == fh.read()
