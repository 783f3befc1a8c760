"""JSON encoding of jets, tensors, free data and build reports.

Coefficients are reduced rational strings "num/den"; exponent keys are
space-separated integers; zero coefficients are omitted. Dumps are canonical
(sorted keys, fixed separators), so identical objects serialize to identical
bytes and reports round-trip bit-exactly.

Both directions work on a jet's integers: the writer reduces each numerator
over the jet's denominator with one gcd, which gives the text
`fractions.Fraction` gives, and takes its keys from one cached tuple per
workspace (`_keys`). The reader makes one pass over the entries: it looks
each key up in the table of that tuple and reads a coefficient of the form
`-?[0-9]+(/[0-9]+)?` with a nonzero denominator as two integers, and reads
any other key with `int` on each part and any other coefficient with
`Fraction`, but for whitespace next to `/`, which `Fraction` accepts from
Python 3.12 on only and the reader rejects on every version. So the accepted
inputs, their values and the errors are those of the `int` and `Fraction`
parse of Python 3.10 and 3.11, and a written jet is read without `Fraction`.

The header fields are read as the JSON types they are written as, by one
helper (`_header`): the `n` and `D` of a report or a jet, a slice's
`ambient_n`, a table's `n` and a check's `zero_to_order` must be JSON
integers, and a connection's `symmetric` and a check's `passed` JSON
booleans, so `2.0` or `true` in place of `2` is malformed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import multiindex as mi
from .builders import BuildReport, Check, FreeData
from .errors import DimensionMismatchError
from .geometry import Bilinear, Connection, Metric
from .jets import Jet, SliceJet

# a coefficient the reader takes as two integers without Fraction
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


@lru_cache(maxsize=None)
def _keys(n: int, cap: int) -> tuple[str, ...]:
    """The key of every monomial of workspace (n, cap), rank order."""
    return tuple(" ".join(str(e) for e in exps) for exps in mi.exponents(n, cap))


@lru_cache(maxsize=None)
def _key_ranks(n: int, cap: int) -> dict[str, int]:
    return {key: r for r, key in enumerate(_keys(n, cap))}


def jet_to_json(jet: Jet) -> dict:
    den = jet.den
    coeffs = {}
    for key, c in zip(_keys(jet.n, jet.max_degree), jet.nums):
        if c:
            g = gcd(c, den)
            coeffs[key] = f"{c // g}/{den // g}"
    return {"n": jet.n, "D": jet.max_degree, "valid_order": jet.valid_order, "coeffs": coeffs}


def _object(value, what: str) -> dict:
    """A section of the JSON that must be an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, not {type(value).__name__}")
    return value


def _header(value, cls: type, what: str):
    """A header field that must be a JSON integer (cls int; a boolean is not
    one) or a JSON boolean (cls bool)."""
    if type(value) is not cls:
        kind = "an integer" if cls is int else "a boolean"
        raise ValueError(f"{what} must be {kind}, not {value!r}")
    return value


def jet_from_json(data: dict) -> Jet:
    """The jet of a JSON object: integers n and D within
    `multiindex.MAX_PRODUCT_PAIRS`, checked before any index table is
    built, and every coefficient a string. Each entry is read in order: its
    key from the table of the workspace's keys, or else with `int` on each
    part; its coefficient as two integers when it has the form
    `-?[0-9]+(/[0-9]+)?` with a nonzero denominator, or else with
    `Fraction`, whitespace next to `/` being rejected first. A monomial
    written twice takes its last value. After the entries, a negative n or D
    raises the index table's error, then a monomial outside the workspace
    DimensionMismatchError. valid_order is an integer in 0..D or null, which
    means D."""
    n, cap = _header(data["n"], int, "jet n"), _header(data["D"], int, "jet D")
    valid_order = data["valid_order"]
    if valid_order is not None and type(valid_order) is not int:
        raise ValueError(f"jet valid_order must be an integer or null, not {valid_order!r}")
    if mi.exceeds_pair_bound(n, cap):
        raise ValueError(
            f"jet workspace n = {n}, D = {cap} needs more than "
            f"{mi.MAX_PRODUCT_PAIRS} product pairs"
        )
    coeffs = _object(data["coeffs"], "jet coeffs")
    workspace = n >= 0 and cap >= 0
    keys = _key_ranks(n, cap) if workspace else {}
    fractions, outside = {}, []
    for key, value in coeffs.items():
        r = keys.get(key)
        if r is None:
            exps = tuple(int(v) for v in key.split())
            r = mi.rank_of(n, cap).get(exps) if workspace else None
            if r is None:
                outside.append(exps)
        if not isinstance(value, str):
            raise ValueError(f"coefficient {value!r} is not a string")
        m = _RATIONAL.fullmatch(value)
        q = 0
        if m:
            num, den = m.groups()
            try:
                p, q = int(num), 1 if den is None else int(den)
            except ValueError:  # a numeral over the interpreter's digit limit
                pass
        if q:
            g = gcd(p, q)
            fractions[r] = (p // g, q // g)
        else:
            # Fraction reads "1 / 2" from Python 3.12 on only
            if re.search(r"\s/|/\s", value):
                raise ValueError(f"coefficient {value!r} has whitespace next to '/'")
            c = Fraction(value)
            fractions[r] = (c.numerator, c.denominator)
    ranks = mi.rank_of(n, cap)
    if outside:
        raise DimensionMismatchError(
            f"monomial {outside[0]} does not fit workspace n={n}, cap={cap}"
        )
    den = lcm(*(q for _, q in fractions.values()))
    nums = [0] * len(ranks)
    for r, (p, q) in fractions.items():
        nums[r] = p * (den // q)
    v = cap if valid_order is None else valid_order
    if not 0 <= v <= cap:
        raise ValueError(f"valid_order {v} outside 0..{cap}")
    return Jet._from_nums(n, cap, tuple(nums), den, v)


def slice_to_json(sl: SliceJet) -> dict:
    return {"ambient_n": sl.ambient_n, "jet": jet_to_json(sl.jet)}


def slice_from_json(data: dict) -> SliceJet:
    ambient_n = _header(data["ambient_n"], int, "slice ambient_n")
    sl = SliceJet(jet_from_json(data["jet"]))
    if sl.ambient_n != ambient_n:
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
    n = _header(data["n"], int, "table n")
    symmetric = _header(data["symmetric"], bool, "symmetric")
    gamma = {}
    for key, payload in _object(data["gamma"], "connection gamma").items():
        head, lower = key.split(";")
        i, j = (int(v) for v in lower.split(","))
        gamma[(int(head), i, j)] = jet_from_json(payload)
    return Connection(n, gamma, symmetric=symmetric)


def bilinear_to_json(b: Bilinear) -> dict:
    return {
        "n": b.n,
        "comps": {
            f"{i},{j}": jet_to_json(jet) for (i, j), jet in sorted(b.comps.items())
        },
    }


def _comps_from_json(data: dict) -> tuple[int, dict]:
    n, comps = _header(data["n"], int, "table n"), {}
    for key, payload in _object(data["comps"], "tensor comps").items():
        i, j = (int(v) for v in key.split(","))
        comps[(i, j)] = jet_from_json(payload)
    return n, comps


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
    data = _object(data, "free_data")
    free = _object(data["free_functions"], "free_functions")
    slices = _object(data["initial_slices"], "initial_slices")
    return FreeData(
        {slot: jet_from_json(p) for slot, p in free.items()},
        {slot: slice_from_json(p) for slot, p in slices.items()},
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
        n=_header(data["n"], int, "report n"),
        max_degree=_header(data["D"], int, "report D"),
        prescribed={
            k: typed_from_json(v) for k, v in _object(data["prescribed"], "prescribed").items()
        },
        free_data=None
        if data.get("free_data") is None
        else free_data_from_json(data["free_data"]),
        outputs={k: typed_from_json(v) for k, v in _object(data["outputs"], "outputs").items()},
        checks=[
            Check(
                c["name"],
                _header(c["zero_to_order"], int, "check zero_to_order"),
                _header(c["passed"], bool, "check passed"),
            )
            for c in data["checks"]
        ],
    )


def canonical_dumps(data) -> str:
    """Deterministic JSON text (byte-identical for identical content)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
