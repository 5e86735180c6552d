"""Byte-for-byte guard on the CLI output of the README commands.

Each command runs in-process through `cli.run`; its stdout must equal
`golden/<name>.out` and its exit code the entry in `golden/exit_codes.json`.
A refactor that is meant to keep behaviour keeps these files unchanged.

Regenerate the files from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from lie_sbe import cli

GOLDEN = Path(__file__).parent / "golden"

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
}


def run_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("LIE_SBE_CATALOG", raising=False)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_command(COMMANDS[name])
    assert code == codes[name]
    assert out == (GOLDEN / (name + ".out")).read_bytes()


if __name__ == "__main__":
    os.environ.pop("LIE_SBE_CATALOG", None)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(COMMANDS.items()):
        codes[name], out = run_command(argv)
        (GOLDEN / (name + ".out")).write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
