"""The seam between the first-order builders and their CK solve.

`builders._ck_solve(equations, fixed, derived, initial, outputs, algebraic)`
solves one x1-layer at a time, each entry formed to the degree its readers
need. `picard_system` rebuilds the same rows as the system of
`ck.solve_first_order`, each unknown labelled by its table key: a full-size
right-hand side evaluated with `oracles._row_sum` on the table of the fixed
entries, the unknowns' values and the derived entries (each the `_row_sum` of
its row on the entries before it), with the algebraic keys solved on that
table by one full-size elimination `oracles.ref_linear_solve` of all the
algebraic rows, unsplit, which is the reference the layered solve must
match. The reference forms every entry to D and ignores outputs;
`to_degree` cuts one of its entries to the degree the solve forms that entry
to. `determined_system` is the statistical node's unsplit algebraic pair.
"""

from __future__ import annotations

import jetgeom.builders as builders_module
from jetgeom import Jet
from jetgeom import multiindex as mi
from jetgeom.builders import _ck_rows, _codazzi_gap, _codazzi_spec
from jetgeom.ck import FirstOrderSystem
from oracles import _row_sum, _signed, ref_linear_solve


def picard_system(
    equations, fixed, derived, initial, outputs, algebraic=((), ())
) -> FirstOrderSystem:
    rests = _ck_rows(equations, fixed)
    keys, rows = algebraic

    def rhs(values):
        table = {**fixed, **values}
        for target, row in derived.items():
            table[target] = _row_sum(row, table)[0]
        if keys:
            table.update(ref_linear_solve(keys, rows, table))
        return {key: _signed(sign, _row_sum(row, table)[0]) for key, (sign, row) in rests.items()}

    return FirstOrderSystem(tuple(equations), rhs, initial)


def determined_system(n: int) -> tuple:
    """The determined Christoffel symbols of the statistical build in
    dimension n and the algebraic Codazzi gaps that solve them, as the
    unsplit (keys, rows) pair `_ck_solve` takes."""
    spec = _codazzi_spec(n)
    return spec.determined, [_codazzi_gap(*gap, n, True) for gap in spec.gaps]


def to_degree(jet: Jet, k: int) -> Jet:
    """jet with its coefficients above degree k dropped, valid to
    min(its valid order, k), in its own workspace."""
    kept = mi.size(jet.n, k)
    nums = list(jet.nums[:kept]) + [0] * (len(jet.nums) - kept)
    return jet._with_nums(nums, jet.den, min(jet.valid_order, k))


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
