"""JSON encoding of jets, tensors, free data and build reports.

Coefficients are reduced rational strings "num/den"; exponent keys are
space-separated integers; zero coefficients are omitted. Dumps are canonical
(sorted keys, fixed separators), so identical objects serialize to identical
bytes and reports round-trip bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .builders import BuildReport, Check, FreeData
from .geometry import Bilinear, Connection, Metric
from .jets import Jet, SliceJet


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def jet_to_json(jet: Jet) -> dict:
    return {
        "n": jet.n,
        "D": jet.max_degree,
        "valid_order": jet.valid_order,
        "coeffs": {
            " ".join(str(e) for e in exps): _fraction_str(c)
            for exps, c in jet.terms()
        },
    }


def jet_from_json(data: dict) -> Jet:
    n, cap = data["n"], data["D"]
    terms = {}
    for key, value in data["coeffs"].items():
        exps = tuple(int(v) for v in key.split()) if key.strip() else ()
        terms[exps] = Fraction(value)
    return Jet.from_terms(n, cap, terms, valid_order=data["valid_order"])


def slice_to_json(sl: SliceJet) -> dict:
    return {"ambient_n": sl.ambient_n, "jet": jet_to_json(sl.jet)}


def slice_from_json(data: dict) -> SliceJet:
    sl = SliceJet(jet_from_json(data["jet"]))
    if sl.ambient_n != data["ambient_n"]:
        raise ValueError("slice ambient dimension mismatch")
    return sl


def connection_to_json(conn: Connection) -> dict:
    return {
        "n": conn.n,
        "symmetric": conn.symmetric,
        "gamma": {
            f"{k};{i},{j}": jet_to_json(jet)
            for (k, i, j), jet in sorted(conn.gamma.items())
        },
    }


def connection_from_json(data: dict) -> Connection:
    gamma = {}
    for key, payload in data["gamma"].items():
        head, lower = key.split(";")
        i, j = (int(v) for v in lower.split(","))
        gamma[(int(head), i, j)] = jet_from_json(payload)
    return Connection(data["n"], gamma, symmetric=data["symmetric"])


def bilinear_to_json(b: Bilinear) -> dict:
    return {
        "n": b.n,
        "comps": {
            f"{i},{j}": jet_to_json(jet) for (i, j), jet in sorted(b.comps.items())
        },
    }


def _comps_from_json(data: dict) -> tuple[int, dict]:
    comps = {}
    for key, payload in data["comps"].items():
        i, j = (int(v) for v in key.split(","))
        comps[(i, j)] = jet_from_json(payload)
    return data["n"], comps


def bilinear_from_json(data: dict) -> Bilinear:
    return Bilinear(*_comps_from_json(data))


def metric_to_json(m: Metric) -> dict:
    return bilinear_to_json(m)


def metric_from_json(data: dict) -> Metric:
    return Metric(*_comps_from_json(data))


def free_data_to_json(fd: FreeData) -> dict:
    return {
        "free_functions": {
            slot: jet_to_json(jet) for slot, jet in sorted(fd.free_functions.items())
        },
        "initial_slices": {
            slot: slice_to_json(sl) for slot, sl in sorted(fd.initial_slices.items())
        },
        "gauge_function": None
        if fd.gauge_function is None
        else jet_to_json(fd.gauge_function),
    }


def free_data_from_json(data: dict) -> FreeData:
    return FreeData(
        {slot: jet_from_json(p) for slot, p in data["free_functions"].items()},
        {slot: slice_from_json(p) for slot, p in data["initial_slices"].items()},
        None
        if data.get("gauge_function") is None
        else jet_from_json(data["gauge_function"]),
    )


# type tag -> (class, encoder, decoder); a value takes the tag of the first
# class it is an instance of, so a subclass (Metric) precedes its base
_TYPED = {
    "jet": (Jet, jet_to_json, jet_from_json),
    "slice": (SliceJet, slice_to_json, slice_from_json),
    "connection": (Connection, connection_to_json, connection_from_json),
    "metric": (Metric, metric_to_json, metric_from_json),
    "bilinear": (Bilinear, bilinear_to_json, bilinear_from_json),
}


def typed_to_json(value) -> dict:
    for tag, (cls, encode, _) in _TYPED.items():
        if isinstance(value, cls):
            return {"type": tag, "value": encode(value)}
    raise TypeError(f"cannot serialize {type(value)!r}")


def typed_from_json(data: dict):
    return _TYPED[data["type"]][2](data["value"])


def report_to_json(report: BuildReport) -> dict:
    return {
        "construction": report.construction,
        "n": report.n,
        "D": report.max_degree,
        "prescribed": {k: typed_to_json(v) for k, v in sorted(report.prescribed.items())},
        "free_data": None
        if report.free_data is None
        else free_data_to_json(report.free_data),
        "outputs": {k: typed_to_json(v) for k, v in sorted(report.outputs.items())},
        "checks": [
            {"name": c.name, "zero_to_order": c.order, "passed": c.passed}
            for c in report.checks
        ],
    }


def report_from_json(data: dict) -> BuildReport:
    return BuildReport(
        construction=data["construction"],
        n=data["n"],
        max_degree=data["D"],
        prescribed={k: typed_from_json(v) for k, v in data["prescribed"].items()},
        free_data=None
        if data.get("free_data") is None
        else free_data_from_json(data["free_data"]),
        outputs={k: typed_from_json(v) for k, v in data["outputs"].items()},
        checks=[
            Check(c["name"], c["zero_to_order"], c["passed"]) for c in data["checks"]
        ],
    )


def canonical_dumps(data) -> str:
    """Deterministic JSON text (byte-identical for identical content)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
