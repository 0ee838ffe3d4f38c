"""Printed documents against the benchmark's closed-form output oracle
(perfbench/oracle.py), which rebuilds every expected value from the formulas
without importing weincalc.  These queries run on the reduction and
rendering paths of large blow-up values."""

import json
import runpy
from pathlib import Path

import pytest

from weincalc import cli

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "--n", "160", "--k", "159", "--json"],
        # The document shape of large-n's tail stratum (n = 580-620, k = n - 1).
        ["blowup", "--n", "600", "--k", "599", "--json"],
        ["blowup", "--n", "800", "--k", "3", "--json"],
        ["blowup", "--n", "120", "--k", "119", "--rho", "3/7", "--json"],
        ["blowup", "--n", "480", "--k", "470", "--rho", "5/8", "--json"],
        ["blowup", "--n", "450", "--k", "2", "--rho", "7/9", "--json"],
        ["cpn", "--n", "600", "--k", "300", "--json"],
    ],
)
def test_output_matches_the_benchmark_oracle(capsys, argv):
    check = runpy.run_path(str(ORACLE))["check"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert check(argv, json.loads(out)) is None
