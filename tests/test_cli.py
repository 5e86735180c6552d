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


def test_pinch_with_tied_real_parts(capsys):
    # real part 1 on a real pair and a complex pair: constant curvature -1
    code, payload, _ = run_json(
        capsys,
        ["pinch", "--alpha", "[[1,0,0,0],[0,1,0,0],[0,0,1,-2],[0,0,2,1]]", "--eps", "0.1",
         "--samples", "200", "--pansu"])
    assert code == 0
    assert abs(payload["sec_min"] + 1.0) < 1e-9 and abs(payload["sec_max"] + 1.0) < 1e-9
    assert payload["pansu"]["trace"] == 4.0 and payload["pansu"]["holds"] is True


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


_PINCH_PROBE = """
import contextlib, io, json
from lie_sbe import cli

report = []
for argv in json.loads(%r):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["pinch"] + argv)
    report.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(report))
"""


def _pinch_report(fresh_python, *argvs):
    """(code, stdout, stderr) of each `pinch` argv, run in one fresh
    interpreter so that numpy's warnings reach stderr unfiltered."""
    return json.loads(fresh_python(_PINCH_PROBE % json.dumps(argvs)))


def test_pinch_with_a_bad_seed_or_non_finite_floats_is_exit_3(fresh_python):
    assert _pinch_report(
        fresh_python,
        ["--alpha", "[[1,1],[0,1]]", "--eps", "0.1", "--seed", "-1"],
        ["--eps", "1", "--alpha", "[[1e400]]"],
        ["--alpha", "[[1,1],[0,1]]", "--eps", "1e200", "--samples", "20", "--pansu"],
    ) == [
        [3, "", "error: seed must be a non-negative integer, got -1\n"],
        [3, "", "error: alpha must have finite entries\n"],
        [3, "", "error: the curvature frame overflows at eps 1e+200\n"],
    ]


def test_pinch_with_a_huge_float_rotation_is_exit_3(fresh_python):
    # at 1e100 the rank test drowns in rounding and lays out too many rows;
    # at 1e200, alpha @ alpha overflows
    assert _pinch_report(
        fresh_python,
        ["--alpha", "[[1,-1e100],[1e100,1]]", "--eps", "0.1"],
        ["--alpha", "[[1,-1e200],[1e200,1]]", "--eps", "0.1", "--pansu"],
    ) == [
        [3, "", "error: layout does not fill the space\n"],
        [3, "", "error: the frame layout overflows on this alpha\n"],
    ]


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


def test_buildings_search_checks_the_bound(capsys):
    # (5, 2) has no pair to try, and every pair of (6, 2) is on the skipped q = q2 = 2 line
    for p_max in ("5", "6"):
        code, out, err = run_cli(capsys, ["buildings", "--search", p_max, "2", "999"])
        assert code == 3
        assert out == ""
        assert err == "error: bound must be between 1 and 64, got 999\n"


def test_buildings_search_caps_q_max(capsys):
    code, out, err = run_cli(capsys, ["buildings", "--search", "5", "100000", "1"])
    assert code == 3
    assert out == ""
    assert err == "error: q_max must be between 2 and 64, got 100000\n"


def test_pinch_caps_the_samples(capsys):
    code, out, err = run_cli(capsys, ["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "0.1",
                                      "--samples", "1000001"])
    assert code == 3
    assert out == ""
    assert err == "error: samples must be at most 1000000, got 1000001\n"


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


# Every public name `lie_sbe` exported before its names were resolved lazily:
# the functions and classes that `from lie_sbe import *` bound, and the
# curvature names that were already resolved on first use.
_STAR_NAMES = (
    "AlgebraFingerprint", "BoundaryInvariants", "CdimValue", "Certificate",
    "ClassificationVerdict", "Cochain", "DivergentFamily", "ExpandabilityReport",
    "GradedResult", "HeintzeData", "InputError", "JacobiReport", "LieLaw", "LieSbeError",
    "ModificationResult", "ObstructionReport", "PreconditionError", "ReductionResult",
    "ScalingFamily", "SearchHit", "SpectralReport", "Table2Report", "TorusReport",
    "TraitReport", "adjoint_h_dim", "amalgam", "apply_differential", "apply_family",
    "basis_change", "betti_numbers", "boundary_invariants", "building_cdim", "catalog",
    "catalog_names", "center", "chebyshev", "check_jacobi", "class_weight",
    "classify_cochain", "classify_hyperbolic", "cochain_basis", "cohomology_basis",
    "composition_is_zero", "contraction_limit", "cornulier_reduction", "cup_product",
    "cup_square_rank", "derivations", "derived_series", "differential", "direct_sum",
    "equal_cdim_search", "exponential_radical", "fingerprint", "graded_nilpotent",
    "h2c_certificate", "heintze_check", "heintze_traits", "is_completely_solvable",
    "is_derivation", "is_ideal", "is_nilpotent", "is_solvable", "lauret_certificate",
    "law_add", "law_dumps", "law_from_table", "law_in_basis", "law_loads", "law_scale",
    "linear_expandability", "lower_central_series", "modification",
    "normalize_derivation", "quotient_law", "semicontinuity_obstruction",
    "semidirect_rank_one", "spectral_obstruction", "spectral_summary", "subalgebra_law",
    "table2_report", "torus_check", "tyson_identities", "wedge",
)
_CURVATURE_NAMES = (
    "CurvatureReport", "Frame", "PansuReport", "alpha_from_law", "curvature_tensor",
    "frame_matrices", "pansu_consistency", "pinching_estimate", "sectional",
)

_IMPORT_PROBE = """
import contextlib, inspect, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("lie_sbe.") or m == "numpy")

import lie_sbe
report = {"import": loaded()}
names = {}
exec("from lie_sbe import *", names)
report["star"] = loaded()
report["star_names"] = sorted(k for k, v in names.items()
                              if inspect.isfunction(v) or inspect.isclass(v))
import lie_sbe.catalog
report["catalog_is_function"] = inspect.isfunction(lie_sbe.catalog)
report["dir"] = dir(lie_sbe)
print(json.dumps(report))
"""

_BUILDINGS_PROBE = """
import contextlib, io, json, sys
from lie_sbe import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["buildings", "--p", "5", "--q", "2"])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("lie_sbe."))]))
"""


def test_import_lie_sbe_loads_no_layer_it_does_not_need(fresh_python):
    report = json.loads(fresh_python(_IMPORT_PROBE))
    heavy = {"lie_sbe.cohomology", "lie_sbe.deformation", "lie_sbe.heintze",
             "lie_sbe.buildings", "lie_sbe.curvature", "numpy"}
    assert heavy.isdisjoint(report["import"])
    # the star import resolves every name but the curvature ones
    assert "numpy" not in report["star"]
    assert set(report["star_names"]) >= set(_STAR_NAMES)
    # `catalog` names a function and a module; the package keeps the function
    assert report["catalog_is_function"] is True
    assert set(report["dir"]) >= set(_STAR_NAMES + _CURVATURE_NAMES)


def test_a_buildings_command_loads_only_its_own_layer(fresh_python):
    code, modules = json.loads(fresh_python(_BUILDINGS_PROBE))
    assert code == 0
    assert "lie_sbe.buildings" in modules
    assert not {"lie_sbe.cohomology", "lie_sbe.deformation", "lie_sbe.heintze",
                "lie_sbe.curvature"} & set(modules)


def test_every_package_name_is_the_one_on_its_module():
    import importlib

    import lie_sbe

    names = set(lie_sbe._MODULE_OF) | {"catalog", "catalog_names"}
    assert names >= set(_STAR_NAMES + _CURVATURE_NAMES)
    assert set(lie_sbe.__all__) == {n for n in names if lie_sbe._MODULE_OF.get(n) != "curvature"}
    for name, module in lie_sbe._MODULE_OF.items():
        mod = importlib.import_module("lie_sbe." + module)
        assert getattr(lie_sbe, name) is getattr(mod, name), name
    assert lie_sbe.catalog is importlib.import_module("lie_sbe.catalog").catalog
    with pytest.raises(AttributeError):
        lie_sbe.no_such_name
