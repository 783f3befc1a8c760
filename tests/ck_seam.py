"""The seam between the first-order builders and their CK solve.

`builders._ck_solve(equations, fixed, derived, initial, node)` solves one
x1-layer at a time. `picard_system` rebuilds the same rows as the system of
`ck.solve_first_order`, each unknown labelled by its table key: a full-size
right-hand side evaluated with `oracles._row_sum` on the table of the fixed
entries, the unknowns' values and the derived entries (each the `_row_sum` of
its row on the entries before it), with the node's keys solved on that table
by the full-size elimination `oracles.ref_linear_solve`, which is the
reference the layered solve must match.
"""

from __future__ import annotations

import jetgeom.builders as builders_module
from jetgeom.builders import _ck_rows, _signed
from jetgeom.ck import FirstOrderSystem
from oracles import _row_sum, ref_linear_solve


def picard_system(equations, fixed, derived, initial, node=None) -> FirstOrderSystem:
    rests = _ck_rows(equations, fixed)

    def rhs(values):
        table = {**fixed, **values}
        for target, row in derived.items():
            table[target] = _row_sum(row, table)[0]
        if node is not None:
            table.update(ref_linear_solve(node.keys, node.rows, table))
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
