"""Byte-for-byte guard on the CLI output of the README commands and more.

Each command runs in-process through `cli.run`; its stdout must equal
`golden/<name>.out` and its exit code the entry in `golden/exit_codes.json`.
A refactor that is meant to keep behaviour keeps these files unchanged.
Every subcommand has at least one JSON case and one `--text` case, and the
JSON cases cover each branch of the payloads.

Regenerate the files from the current code with

    PYTHONPATH=src python tests/test_golden.py

or only some cases, leaving the other files and exit codes as they are, with

    PYTHONPATH=src python tests/test_golden.py readme_pinch pinch_j3
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from lie_sbe import cli

GOLDEN = Path(__file__).parent / "golden"
# Laws the built-in catalog lacks (one that fails Jacobi), served through
# LIE_SBE_CATALOG so the `source` string is the same on every machine.
FIXTURE_CATALOG = GOLDEN / "catalog"

COMMANDS = {
    "readme_check": ["check", "catalog:b(3,R)"],
    "readme_cohomology": ["cohomology", "catalog:l_6_7", "--degree", "2", "--module", "adjoint"],
    "readme_contract": ["contract", "catalog:s_prime", "--family", '{"w": [0, -1, -1, 0]}'],
    "readme_obstruct": ["obstruct", "--source", "catalog:l_6_7", "--target", "catalog:l_6_6",
                        "--spectral"],
    "readme_certify_h2c": ["certify", "catalog:h2c_solvable", "--h2c"],
    "readme_reduce": ["reduce", "catalog:s_prime", "--cartan", "[[0, 0, 0, 1]]"],
    "readme_classify": ["classify", "catalog:h2c_solvable"],
    "readme_table2": ["table2", "--text"],
    "readme_pinch": ["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "0.1", "--samples", "2000",
                     "--pansu"],
    "readme_buildings": ["buildings", "--p", "5", "--q", "2"],
    "readme_buildings_search": ["buildings", "--search", "20", "6", "4"],
    "readme_catalog_list": ["catalog", "list"],
    "readme_catalog_dump": ["catalog", "dump", "heis(3)"],
    "certify_lauret_b4R": ["certify", "catalog:b(4,R)", "--lauret"],
    "certify_lauret_l_4_3": ["certify", "catalog:l_4_3", "--lauret"],
    "classify_s_prime": ["classify", "catalog:s_prime"],
    "classify_s_second": ["classify", "catalog:s_second"],
    "reduce_s_second": ["reduce", "catalog:s_second", "--cartan", "[[0,0,0,1]]"],
    "pinch_j3": ["pinch", "--alpha", "[[1,1,0],[0,1,1],[0,0,1]]", "--eps", "0.01",
                 "--samples", "4000", "--seed", "7"],
    "pinch_j2_scaled_pansu": ["pinch", "--alpha", "[[2,2,0],[0,2,0],[0,0,2]]", "--eps", "1",
                              "--samples", "2000", "--seed", "3", "--pansu"],
    # JSON cases for the payload branches the README commands miss
    "check_jacobi_fail": ["check", "catalog:jacobi_fail"],
    "cohomology_adjoint_reps": ["cohomology", "catalog:b(3,R)", "--degree", "1",
                                "--module", "adjoint", "--reps"],
    "contract_diverges": ["contract", "catalog:b(3,R)", "--family", '{"w": [0, 0, 1]}'],
    "obstruct_without_spectral": ["obstruct", "--source", "catalog:l_6_7",
                                  "--target", "catalog:l_6_6"],
    "obstruct_not_obstructed": ["obstruct", "--source", "catalog:s_prime",
                                "--target", "catalog:h2c_solvable", "--spectral"],
    "certify_h2c_s_second": ["certify", "catalog:s_second", "--h2c"],
    "modify_b3R": ["modify", "catalog:b(3,R)", "--torus", "[[[0, -1, 0], [1, 0, 0], [0, 0, 0]]]",
                   "--tau", '[["0", "0", "1"]]'],
    "buildings_tyson": ["buildings", "--p", "6", "--q", "3", "--p2", "16", "--q2", "5",
                        "--bound", "10"],
    "table2_json": ["table2"],
    "pinch_j3_positive_pansu": ["pinch", "--alpha", "[[1,1,0],[0,1,1],[0,0,1]]", "--eps", "1",
                                "--samples", "500", "--pansu"],
    # --text renderings
    "text_check": ["check", "catalog:b(3,R)", "--text"],
    "text_check_jacobi_fail": ["check", "catalog:jacobi_fail", "--text"],
    "text_cohomology_reps": ["cohomology", "catalog:heis(3)", "--degree", "2", "--reps",
                             "--text"],
    "text_contract": ["contract", "catalog:s_prime", "--family", '{"w": [0, -1, -1, 0]}',
                      "--text"],
    "text_contract_diverges": ["contract", "catalog:b(3,R)", "--family", '{"w": [0, 0, 1]}',
                               "--text"],
    "text_obstruct_spectral": ["obstruct", "--source", "catalog:b(4,R)",
                               "--target", "catalog:s_prime", "--spectral", "--text"],
    "text_obstruct_not_obstructed": ["obstruct", "--source", "catalog:s_prime",
                                     "--target", "catalog:h2c_solvable", "--spectral",
                                     "--text"],
    "text_certify_h2c": ["certify", "catalog:h2c_solvable", "--h2c", "--text"],
    "text_certify_lauret_l_4_3": ["certify", "catalog:l_4_3", "--lauret", "--text"],
    "text_reduce": ["reduce", "catalog:s_prime", "--cartan", "[[0, 0, 0, 1]]", "--text"],
    "text_modify": ["modify", "catalog:b(3,R)", "--torus", "[[[0, -1, 0], [1, 0, 0], [0, 0, 0]]]",
                    "--tau", '[["0", "0", "1"]]', "--text"],
    "text_classify": ["classify", "catalog:h2c_solvable", "--text"],
    "text_classify_none": ["classify", "catalog:s_second", "--text"],
    "text_pinch_pansu": ["pinch", "--alpha", "[[1,1],[0,1]]", "--eps", "0.1", "--samples", "2000",
                         "--pansu", "--text"],
    "text_pinch_positive": ["pinch", "--alpha", "[[1,1,0],[0,1,1],[0,0,1]]", "--eps", "1",
                            "--samples", "500", "--pansu", "--text"],
    "text_buildings": ["buildings", "--p", "5", "--q", "2", "--text"],
    "text_buildings_tyson": ["buildings", "--p", "6", "--q", "3", "--p2", "16", "--q2", "5",
                             "--bound", "10", "--text"],
    "text_buildings_search": ["buildings", "--search", "20", "6", "4", "--text"],
    "text_catalog_list": ["catalog", "list", "--text"],
    "text_catalog_dump": ["catalog", "dump", "heis(3)", "--text"],
}


# Only these cases see LIE_SBE_CATALOG: it also changes what `catalog list` prints.
WITH_FIXTURE_CATALOG = {"check_jacobi_fail", "text_check_jacobi_fail"}


def run_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, monkeypatch):
    if name in WITH_FIXTURE_CATALOG:
        monkeypatch.setenv("LIE_SBE_CATALOG", str(FIXTURE_CATALOG))
    else:
        monkeypatch.delenv("LIE_SBE_CATALOG", raising=False)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_command(COMMANDS[name])
    assert code == codes[name]
    assert out == (GOLDEN / (name + ".out")).read_bytes()


def test_every_subcommand_has_a_json_and_a_text_case():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices:
        argvs = [argv for argv in COMMANDS.values() if argv[0] == command]
        assert any("--text" not in argv for argv in argvs), command
        assert any("--text" in argv for argv in argvs), command


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_json_goldens_hold_no_nan_or_infinity():
    for name, argv in COMMANDS.items():
        if "--text" not in argv:
            json.loads((GOLDEN / (name + ".out")).read_text(), parse_constant=_reject_constant)


def test_regenerate_rewrites_only_the_named_cases(tmp_path, monkeypatch):
    real = GOLDEN
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.delenv("LIE_SBE_CATALOG", raising=False)
    (tmp_path / "exit_codes.json").write_text(json.dumps({"readme_check": 7, "text_check": 9}))
    (tmp_path / "text_check.out").write_bytes(b"untouched")
    regenerate(["readme_check"])
    assert json.loads((tmp_path / "exit_codes.json").read_text()) == {"readme_check": 0,
                                                                      "text_check": 9}
    assert (tmp_path / "readme_check.out").read_bytes() == (real / "readme_check.out").read_bytes()
    assert (tmp_path / "text_check.out").read_bytes() == b"untouched"
    with pytest.raises(SystemExit, match="unknown golden case"):
        regenerate(["readme_check", "no_such_case"])


def regenerate(names):
    """Rewrite golden/<name>.out and the exit code of each named case."""
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        raise SystemExit("unknown golden case(s): %s" % ", ".join(unknown))
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / "exit_codes.json"
    codes = json.loads(path.read_text()) if path.exists() else {}
    for name in sorted(names):
        if name in WITH_FIXTURE_CATALOG:
            os.environ["LIE_SBE_CATALOG"] = str(FIXTURE_CATALOG)
        else:
            os.environ.pop("LIE_SBE_CATALOG", None)
        codes[name], out = run_command(COMMANDS[name])
        (GOLDEN / (name + ".out")).write_bytes(out)
    path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or COMMANDS)
    sys.exit(0)
