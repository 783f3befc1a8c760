"""Double-entry check of the assembled right-hand sides.

The builders generate their equations mechanically (term atoms, substitution,
cancellation). These tests hand-type the same equations in their resolved
display form and evaluate both on random unknown tables: any sign or index
slip in either path would break the exact agreement.
"""

from fractions import Fraction

import pytest

from ck_seam import capture_ck_solves
from jetgeom import (
    Jet,
    build_prescribed_ricci_general,
    build_prescribed_ricci_torsion_free,
    build_prescribed_ricci_trace_free_torsion,
    census,
    potential_of_one_form,
    primitive_of_two_form,
    random_free_data,
    random_poly,
    random_prescribed_tensor,
    split,
)

CAP = 4
N = 3


def _capture_system(monkeypatch, build, *args):
    calls = capture_ck_solves(monkeypatch)
    build(*args)
    return calls[-1][0]


def quad_part(table, i, j, rng):
    """Quadratic part of the Ricci tensor (opposite sign of the moved-term
    helper): sum_{k,l} [G^l_ij G^k_kl - G^l_kj G^k_il]."""
    acc = Jet.zero(N, CAP)
    for k in rng:
        for l in rng:
            acc = acc + table[(l, i, j)] * table[(k, k, l)]
            acc = acc - table[(l, k, j)] * table[(k, i, l)]
    return acc


def resolved_table(fd, u):
    """Full Christoffel table from the free slots and the probed unknowns."""
    table = {}
    for slot, jet in [*fd.free_functions.items(), *u.items()]:
        k, i, j = (int(v) for v in slot.replace(";", ",").split(","))
        table[(k, i, j)] = jet
    return table


def assert_full_table_rows(got, table, r):
    """The rhs of the full-table systems, resolved on a complete table."""
    rng = range(1, N + 1)
    lam = {(i, j): -quad_part(table, i, j, rng) for i in rng for j in rng}

    # display, first family: (G^n_nj)_1 = -L_1j - r_1j + L'_1j with
    # L'_1j = sum_k (G^k_1j)_k - sum_{k<n} (G^k_kj)_1
    for j in rng:
        moved = Jet.zero(N, CAP)
        for k in rng:
            moved = moved + table[(k, 1, j)].partial(k)
        for k in range(1, N):
            moved = moved - table[(k, k, j)].partial(1)
        want = -lam[(1, j)] - r.comp(1, j) + moved
        assert got[f"{N};{N},{j}"].eq_up_to(want, CAP - 1)

    # display, second family: (G^1_ij)_1 = L_ij + r_ij - L'_ij with
    # L'_ij = sum_{k>=2} (G^k_ij)_k - sum_k (G^k_kj)_i
    for i in range(2, N + 1):
        for j in rng:
            moved = Jet.zero(N, CAP)
            for k in range(2, N + 1):
                moved = moved + table[(k, i, j)].partial(k)
            for k in rng:
                moved = moved - table[(k, k, j)].partial(i)
            want = lam[(i, j)] + r.comp(i, j) - moved
            assert got[f"1;{i},{j}"].eq_up_to(want, CAP - 1)


def test_general_rows_match_display(monkeypatch):
    r = random_prescribed_tensor("general", 7, N, CAP, 3, 2)
    fd = random_free_data(census("general", N), 8, 3, 2, CAP)
    system = _capture_system(monkeypatch, build_prescribed_ricci_general, r, fd)

    u = {
        lab: random_poly(900 + idx, N, 3, 2, CAP)
        for idx, lab in enumerate(system.labels)
    }
    got = system.rhs(dict(u))
    assert_full_table_rows(got, resolved_table(fd, u), r)


def test_trace_free_torsion_rows_match_display(monkeypatch):
    r = random_prescribed_tensor("trace-free-torsion", 27, N, CAP, 3, 2)
    fd = random_free_data(census("trace-free-torsion", N), 28, 3, 2, CAP)
    system = _capture_system(
        monkeypatch, build_prescribed_ricci_trace_free_torsion, r, fd
    )

    u = {
        lab: random_poly(800 + idx, N, 3, 2, CAP)
        for idx, lab in enumerate(system.labels)
    }
    got = system.rhs(dict(u))

    # tau_k = sum_i (G^i_ik - G^i_ki) = 0 solved for one symbol per k (n = 3),
    # with the cancelling G^k_kk terms dropped by hand
    g = resolved_table(fd, u)
    g[(2, 1, 2)] = g[(2, 2, 1)] + g[(3, 3, 1)] - g[(3, 1, 3)]
    g[(3, 2, 3)] = g[(1, 1, 2)] + g[(3, 3, 2)] - g[(1, 2, 1)]
    g[(2, 3, 2)] = g[(1, 1, 3)] + g[(2, 2, 3)] - g[(1, 3, 1)]
    assert_full_table_rows(got, g, r)


def test_torsion_free_rows_match_display(monkeypatch):
    r = random_prescribed_tensor("torsion-free", 17, N, CAP, 3, 2)
    fd = random_free_data(census("torsion-free", N), 18, 3, 2, CAP)
    system = _capture_system(monkeypatch, build_prescribed_ricci_torsion_free, r, fd)

    rng = range(1, N + 1)
    u = {
        lab: random_poly(700 + idx, N, 3, 2, CAP)
        for idx, lab in enumerate(system.labels)
    }
    got = system.rhs(dict(u))

    # the prescribed divergence functions: alpha = primitive(a) + grad(phi)
    anti = split(r)[1]
    alpha0 = primitive_of_two_form(anti)
    alpha = {k: alpha0.comp(k) + fd.gauge_function.partial(k) for k in rng}

    def pair(i, j):
        return (i, j) if i <= j else (j, i)

    # symmetric table with the divergence substitutions applied
    pair_table = {}
    for slot, jet in fd.free_functions.items():
        k, i, j = (int(v) for v in slot.replace(";", ",").split(","))
        pair_table[(k, (i, j))] = jet
    for lab, jet in u.items():
        k, i, j = (int(v) for v in lab.replace(";", ",").split(","))
        pair_table[(k, (i, j))] = jet
    g111 = alpha[1]
    for k in range(2, N + 1):
        g111 = g111 - pair_table[(k, pair(1, k))]
    pair_table[(1, (1, 1))] = g111
    for k in range(2, N + 1):
        diag = alpha[k]
        for l in rng:
            if l != k:
                diag = diag - pair_table[(l, pair(l, k))]
        pair_table[(k, (k, k))] = diag

    table = {
        (k, i, j): pair_table[(k, pair(i, j))] for k in rng for i in rng for j in rng
    }
    # display convention: L_ij here is the quadratic Ricci part itself
    lam = {(i, j): quad_part(table, i, j, rng) for i in rng for j in rng}

    # row (1,1): (G^2_12)_1 = sum_{k>=2} (G^k_11)_k - sum_{k>=3} (G^k_k1)_1
    #                          + L_11 - r_11
    want = lam[(1, 1)] - r.comp(1, 1)
    for k in range(2, N + 1):
        want = want + table[(k, 1, 1)].partial(k)
    for k in range(3, N + 1):
        want = want - table[(k, k, 1)].partial(1)
    assert got["2;1,2"].eq_up_to(want, CAP - 1)

    # rows (1,i): (G^1_1i)_1 = -sum_{k>=2} (G^k_1i)_k - L_1i + (D_1)_i + r_i1
    for i in range(2, N + 1):
        want = -lam[(1, i)] + alpha[1].partial(i) + r.comp(i, 1)
        for k in range(2, N + 1):
            want = want - table[(k, 1, i)].partial(k)
        assert got[f"1;1,{i}"].eq_up_to(want, CAP - 1)

    # rows (i,j), 1 < i <= j:
    # (G^1_ij)_1 = -sum_{k>=2} (G^k_ij)_k - L_ij + (D_j)_i + r_ij
    for i in range(2, N + 1):
        for j in range(i, N + 1):
            want = -lam[(i, j)] + alpha[j].partial(i) + r.comp(i, j)
            for k in range(2, N + 1):
                want = want - table[(k, i, j)].partial(k)
            assert got[f"1;{i},{j}"].eq_up_to(want, CAP - 1)
