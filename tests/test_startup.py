"""What importing the package costs: `import jetgeom.cli`, the path of every
`run` and `verify`, loads neither the Picard solver nor `dataclasses`; the
solver's names load on first use; the builders' records stay immutable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetgeom
from jetgeom.builders import Check, _Row

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_neither_ck_nor_dataclasses():
    code = (
        "import jetgeom.cli, sys; "
        "print(sorted(m for m in ('jetgeom.ck', 'dataclasses') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_the_ck_names_load_on_first_use():
    from jetgeom import (  # noqa: F401
        CKSolution,
        FirstOrderSystem,
        SecondOrderSystem,
        residual_first_order,
        residual_second_order,
        solve_first_order,
        solve_second_order,
    )

    assert jetgeom.ck.solve_first_order is jetgeom.solve_first_order
    assert jetgeom.ck.SecondOrderSystem is SecondOrderSystem
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jetgeom.no_such_name


def test_the_records_are_immutable():
    check, row = Check("volume", 2, True), _Row(((1, "a"),))
    with pytest.raises(AttributeError):
        check.passed = False
    with pytest.raises(AttributeError):
        row.linear = ()
    assert (check.passed, row.linear) == (True, ((1, "a"),))
