"""The x1-layered CK solve of the first-order builders: bit for bit against
the Picard reference, its derivative contract, and its errors."""

import dataclasses

import pytest

import jetgeom.builders as builders_module
from ck_seam import capture_ck_solves
from jetgeom import (
    EvaluationError,
    SingularJetError,
    build_prescribed_ricci_general,
    build_statistical_nd,
    build_trace_free_statistical_2d,
    census,
    levi_civita,
    random_free_data,
    random_normalized_metric,
    random_prescribed_tensor,
    zero_free_data,
)
from jetgeom.ck import solve_first_order
from jetgeom.cli import _run_direct, _run_round_trip

ROW_BUILDS = [
    (tag, n)
    for tag, ns in (
        ("general", (2, 3, 4)),
        ("trace-free-torsion", (3, 4)),
        ("torsion-free", (2, 3, 4)),
        ("statistical", (3, 4)),
        ("statistical-2d", (2,)),
        ("trace-free-statistical-2d", (2,)),
    )
    for n in ns
]

# direct mode: random data in every slot the scenario offers
RANDOM_PRESCRIBED = {
    "general": {"r": "random"},
    "trace-free-torsion": {"r": "random"},
    "torsion-free": {"r": "random"},
    "statistical": {},
    "statistical-2d": {"g11": "random", "init12": "random", "init22": "random"},
    "trace-free-statistical-2d": {"init12": "random", "init22": "random"},
}


@pytest.mark.parametrize("mode", ["direct", "round_trip"])
@pytest.mark.parametrize("cap", [3, 5])
@pytest.mark.parametrize("tag, n", ROW_BUILDS)
def test_layered_solve_matches_picard(monkeypatch, tag, n, cap, mode):
    calls = capture_ck_solves(monkeypatch)
    sc = {"construction": tag, "n": n, "D": cap, "seed": 7}
    if mode == "direct":
        sc.update(prescribed=RANDOM_PRESCRIBED[tag], free_data="random")
        _run_direct(sc)
    else:
        _run_round_trip(sc)
    [(system, (_, labels, *_), table)] = calls
    picard = solve_first_order(system).values
    for key, lab in labels.items():
        assert table[key].same_payload(picard[lab]), lab


def unreachable(*args):
    raise AssertionError("layer evaluation reached")


def test_x1_derivative_of_an_assembled_divergence_is_rejected(monkeypatch):
    # ("div", 1) = sum_k G^k_k1 is assembled from the unknowns at every layer
    real = builders_module._ricci_rows

    def leaky(spec, n):
        rows = real(spec, n)
        rows[(2, 2, 1)] = dataclasses.replace(
            rows[(2, 2, 1)], derivatives=rows[(2, 2, 1)].derivatives + ((1, ("div", 1), 1),)
        )
        return rows

    monkeypatch.setattr(builders_module, "_ricci_rows", leaky)
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
    r = random_prescribed_tensor("general", 3, 2, 3, 2, 2)
    with pytest.raises(AssertionError) as err:
        build_prescribed_ricci_general(r, zero_free_data(census("general", 2), 3))
    assert str(err.value) == (
        "the row of 2;2,1 holds its x1-derivative with coefficients [-1] and "
        "consumes the x1-derivatives of [('div', 1)]"
    )


def test_x1_derivative_of_an_assembled_g11_is_rejected(monkeypatch):
    # trace-free-statistical-2d assembles g11 = (nu^2 + g12^2) / g22
    real = builders_module._codazzi_gap

    def leaky(i, j, k, n, symmetric):
        row = real(i, j, k, n, symmetric)
        if (i, j, k) == (1, 2, 1):
            row = dataclasses.replace(row, derivatives=row.derivatives + ((1, (1, 1), 1),))
        return row

    monkeypatch.setattr(builders_module, "_codazzi_gap", leaky)
    monkeypatch.setattr(builders_module, "_row_layer", unreachable)
    g0 = random_normalized_metric(5, 2, 3, 2, 2)
    with pytest.raises(AssertionError) as err:
        build_trace_free_statistical_2d(
            levi_civita(g0), g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
        )
    assert str(err.value) == (
        "the row of g;1,2 holds its x1-derivative with coefficients [1] and "
        "consumes the x1-derivatives of [(1, 1)]"
    )


def test_failure_inside_a_layer_names_the_layer(monkeypatch):
    # one determined-symbol elimination per layer: the third is layer 2
    real = builders_module._gauss_jordan
    calls = []

    def third_fails(rows):
        calls.append(rows)
        if len(calls) == 3:
            raise SingularJetError("jet matrix not invertible at the origin")
        return real(rows)

    monkeypatch.setattr(builders_module, "_gauss_jordan", third_fails)
    fd = random_free_data(census("statistical", 3), 5, 2, 2, 4)
    with pytest.raises(EvaluationError) as err:
        build_statistical_nd(3, fd)
    assert str(err.value) == (
        "right-hand side failed at x1-layer 2: jet matrix not invertible at the origin"
    )
    assert isinstance(err.value.__cause__, SingularJetError)
