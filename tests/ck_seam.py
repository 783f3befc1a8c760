"""The seam between the first-order builders and their CK solve.

`builders._ck_solve(equations, fixed, derived, initial, blocks)` solves one
x1-layer at a time. `picard_system` rebuilds the same rows as the system of
`ck.solve_first_order`, each unknown labelled by its table key: a full-size
right-hand side evaluated with `oracles._row_sum` on the table of the fixed
entries, the unknowns' values and the derived entries (each the `_row_sum` of
its row on the entries before it), with the keys of every block solved on
that table by one full-size elimination `oracles.ref_linear_solve` of all
the blocks' rows, which is the reference the layered solve must match.
"""

from __future__ import annotations

import jetgeom.builders as builders_module
from jetgeom.builders import _ck_rows, _signed
from jetgeom.ck import FirstOrderSystem
from oracles import _row_sum, ref_linear_solve


def picard_system(equations, fixed, derived, initial, blocks=()) -> FirstOrderSystem:
    rests = _ck_rows(equations, fixed)
    keys = [key for block_keys, _ in blocks for key in block_keys]
    rows = [row for _, block_rows in blocks for row in block_rows]

    def rhs(values):
        table = {**fixed, **values}
        for target, row in derived.items():
            table[target] = _row_sum(row, table)[0]
        if blocks:
            table.update(ref_linear_solve(keys, rows, table))
        return {key: _signed(sign, _row_sum(row, table)[0]) for key, (sign, row) in rests.items()}

    return FirstOrderSystem(tuple(equations), rhs, initial)


def capture_ck_solves(monkeypatch) -> list:
    """Record (Picard system, arguments, solved table) of every `_ck_solve`
    call the builders make."""
    calls = []
    real = builders_module._ck_solve

    def spy(*args):
        table = real(*args)
        calls.append((picard_system(*args), args, table))
        return table

    monkeypatch.setattr(builders_module, "_ck_solve", spy)
    return calls
