"""JSON encoding of jets, tensors, free data and build reports.

Coefficients are reduced rational strings "num/den"; exponent keys are
space-separated integers; zero coefficients are omitted. Dumps are canonical
(sorted keys, fixed separators), so identical objects serialize to identical
bytes and reports round-trip bit-exactly.

Both directions work on a jet's integers: the writer reduces each numerator
over the jet's denominator with one gcd, which gives the text
`fractions.Fraction` gives, and takes its keys from one cached tuple per
workspace (`_keys`). The reader first tries the form the writer gives
(`_read_written`): every key in the table of that tuple and every
coefficient a string `-?[0-9]+/[0-9]+` with a nonzero denominator. It joins
the coefficients, matches them with one `fullmatch`, reads every part with
`int`, takes one lcm of the denominators and reduces once; a jet in lowest
terms is unique, so this is the jet an entry-by-entry read gives. Any other
input goes to the entry loop (`_read_entries`), which reads each key with
the table or else `int` on each part, and each coefficient with `Fraction`,
but for whitespace next to `/`, which `Fraction` accepts from Python 3.12 on
only and the reader rejects on every version. So the accepted inputs, their
values and the errors, with their order and messages, are those of the
`int` and `Fraction` parse of Python 3.10 and 3.11, and a written jet is
read without `Fraction`.

A symmetric table holds each off-diagonal jet twice. The writer encodes each
jet object of a table once (entries that hold one jet share one dict, which
`canonical_dumps` writes as before), and the table readers give entry
(.., i, j) the jet already read for its mirror (.., j, i) when its payload
reads the same as the payload that jet was read from (`_reads_alike`).

The header fields are read as the JSON types they are written as, by one
helper (`_header`): the `n` and `D` of a report or a jet, a slice's
`ambient_n`, a table's `n` and a check's `zero_to_order` must be JSON
integers, a connection's `symmetric` and a check's `passed` JSON booleans,
and a report's `construction` and a check's `name` JSON strings, so `2.0` or
`true` in place of `2` is malformed. A report's `checks` must be a JSON list
of objects, and a value's `type` tag one of `_TYPED`. A missing key is
malformed input that names its section and the key (`_get`): `gamma entry
'1;1,2' has no key 'coeffs'`.
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
from .jets import Jet, SliceJet, _reduced

# the coefficients of a written jet, joined by commas
_WRITTEN = re.compile(r"-?[0-9]+/[0-9]+(?:,-?[0-9]+/[0-9]+)*")


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


def _list(value, what: str) -> list:
    """A section of the JSON that must be a list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _header(value, cls: type, what: str):
    """A header field that must be a JSON integer (cls int; a boolean is not
    one), a JSON boolean (cls bool) or a JSON string (cls str)."""
    if type(value) is not cls:
        kind = {int: "an integer", bool: "a boolean", str: "a string"}[cls]
        raise ValueError(f"{what} must be {kind}, not {value!r}")
    return value


def _get(data, key: str, what: str):
    """data[key], where data is the section named what; a missing key is
    malformed input that names the section and the key."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{what} has no key {key!r}") from None


def _read_written(coeffs: dict, keys: dict[str, int]) -> tuple[tuple, int] | None:
    """The numerators and denominator, in lowest terms, of coefficients in
    the form the writer gives them, keyed as in keys; None for any other
    input."""
    ranks = [keys.get(key) for key in coeffs]
    if None in ranks:
        return None
    if not ranks:
        return (0,) * len(keys), 1
    try:
        text = ",".join(coeffs.values())
    except TypeError:  # a coefficient that is not a string
        return None
    if _WRITTEN.fullmatch(text) is None:
        return None
    try:
        parts = list(map(int, text.replace("/", ",").split(",")))
    except ValueError:  # a numeral over the interpreter's digit limit
        return None
    dens = parts[1::2]
    # a comma inside a coefficient, or a zero denominator
    if len(dens) != len(ranks) or 0 in dens:
        return None
    den = lcm(*dens)
    nums = [0] * len(keys)
    for r, p, q in zip(ranks, parts[0::2], dens):
        nums[r] = p * (den // q)
    return _reduced(nums, den)


def _read_entries(coeffs: dict, n: int, cap: int, keys: dict[str, int]) -> tuple[tuple, int]:
    """The numerators and denominator, in lowest terms, of any coefficients,
    read entry by entry in order: the key from keys, or else with `int` on
    each part; the coefficient with `Fraction`, whitespace next to `/` being
    rejected first. A monomial written twice takes its last value. After
    the entries, a negative n or D raises the index table's error, then a
    monomial outside the workspace DimensionMismatchError."""
    fractions, outside = {}, []
    for key, value in coeffs.items():
        r = keys.get(key)
        if r is None:
            exps = tuple(int(part) for part in key.split())
            r = mi.rank_of(n, cap).get(exps) if n >= 0 and cap >= 0 else None
            if r is None:
                outside.append(exps)
        if not isinstance(value, str):
            raise ValueError(f"coefficient {value!r} is not a string")
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
    return tuple(nums), den


def jet_from_json(data: dict, what: str = "jet") -> Jet:
    """The jet of a JSON object, the section named what: integers n and D
    within `multiindex.MAX_PRODUCT_PAIRS`, checked before any index table is
    built, and every coefficient a string. A jet in the form the writer
    gives is read in one pass (`_read_written`), any other entry by entry
    (`_read_entries`), with the errors of that read in its order. valid_order
    is an integer in 0..D or null, which means D; it is checked after the
    coefficients."""
    n = _header(_get(data, "n", what), int, "jet n")
    cap = _header(_get(data, "D", what), int, "jet D")
    valid_order = _get(data, "valid_order", what)
    if valid_order is not None and type(valid_order) is not int:
        raise ValueError(f"jet valid_order must be an integer or null, not {valid_order!r}")
    if mi.exceeds_pair_bound(n, cap):
        raise ValueError(
            f"jet workspace n = {n}, D = {cap} needs more than "
            f"{mi.MAX_PRODUCT_PAIRS} product pairs"
        )
    coeffs = _object(_get(data, "coeffs", what), "jet coeffs")
    keys = _key_ranks(n, cap) if n >= 0 and cap >= 0 else {}
    written = _read_written(coeffs, keys) if keys else None
    nums, den = written or _read_entries(coeffs, n, cap, keys)
    v = cap if valid_order is None else valid_order
    if not 0 <= v <= cap:
        raise ValueError(f"valid_order {v} outside 0..{cap}")
    return Jet._from_nums(n, cap, nums, den, v)


def slice_to_json(sl: SliceJet) -> dict:
    return {"ambient_n": sl.ambient_n, "jet": jet_to_json(sl.jet)}


def slice_from_json(data: dict, what: str = "slice") -> SliceJet:
    ambient_n = _header(_get(data, "ambient_n", what), int, "slice ambient_n")
    sl = SliceJet(jet_from_json(_get(data, "jet", what), f"{what} jet"))
    if sl.ambient_n != ambient_n:
        raise ValueError("slice ambient dimension mismatch")
    return sl


def _table_to_json(entries) -> dict:
    """The JSON of each (key, jet) entry, each jet object encoded once: the
    entries that hold one jet share one dict."""
    encoded, out = {}, {}
    for key, jet in entries:
        data = encoded.get(id(jet))
        if data is None:
            data = encoded[id(jet)] = jet_to_json(jet)
        out[key] = data
    return out


def _reads_alike(payload, source: dict) -> bool:
    """Whether payload reads as the jet read from source: equal JSON, with
    n, D and valid_order of the same JSON types (2.0 == 2 in Python) and the
    coefficient keys in the same order (a monomial spelled twice takes its
    last value)."""
    return (
        payload == source
        and all(type(payload[f]) is type(source[f]) for f in ("n", "D", "valid_order"))
        and list(payload["coeffs"]) == list(source["coeffs"])
    )


def _table_from_json(entries: dict, index, what: str) -> dict:
    """The jet of each entry of the table named what, keyed by index(key), a
    tuple whose last two places are the lower indices. An entry whose mirror
    (those two swapped) was read from a payload that its own reads alike
    takes the mirror's jet; any other is read with `jet_from_json`. An index
    spelled twice takes its last entry."""
    table, sources = {}, {}
    for key, payload in entries.items():
        idx = index(key)
        mirror = (*idx[:-2], idx[-1], idx[-2])
        source = sources.get(mirror)
        if source is not None and _reads_alike(payload, source):
            table[idx] = table[mirror]
        else:
            table[idx] = jet_from_json(payload, f"{what} entry {key!r}")
        sources[idx] = payload
    return table


def _gamma_index(key: str) -> tuple[int, int, int]:
    head, lower = key.split(";")
    i, j = (int(v) for v in lower.split(","))
    return int(head), i, j


def _pair_index(key: str) -> tuple[int, int]:
    i, j = (int(v) for v in key.split(","))
    return i, j


def connection_to_json(conn: Connection) -> dict:
    return {
        "n": conn.n,
        "symmetric": conn.symmetric,
        "gamma": _table_to_json(
            (f"{k};{i},{j}", jet) for (k, i, j), jet in sorted(conn.gamma.items())
        ),
    }


def connection_from_json(data: dict, what: str = "connection") -> Connection:
    n = _header(_get(data, "n", what), int, "table n")
    symmetric = _header(_get(data, "symmetric", what), bool, "symmetric")
    gamma = _object(_get(data, "gamma", what), "connection gamma")
    gamma = _table_from_json(gamma, _gamma_index, "gamma")
    return Connection(n, gamma, symmetric=symmetric)


def bilinear_to_json(b: Bilinear) -> dict:
    return {
        "n": b.n,
        "comps": _table_to_json((f"{i},{j}", jet) for (i, j), jet in sorted(b.comps.items())),
    }


def _comps_from_json(data: dict, what: str) -> tuple[int, dict]:
    n = _header(_get(data, "n", what), int, "table n")
    comps = _object(_get(data, "comps", what), "tensor comps")
    return n, _table_from_json(comps, _pair_index, "comps")


def bilinear_from_json(data: dict, what: str = "bilinear") -> Bilinear:
    return Bilinear(*_comps_from_json(data, what))


def metric_to_json(m: Metric) -> dict:
    return bilinear_to_json(m)


def metric_from_json(data: dict, what: str = "metric") -> Metric:
    return Metric(*_comps_from_json(data, what))


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
    free = _object(_get(data, "free_functions", "free_data"), "free_functions")
    slices = _object(_get(data, "initial_slices", "free_data"), "initial_slices")
    return FreeData(
        {slot: jet_from_json(p, f"free_functions slot {slot!r}") for slot, p in free.items()},
        {slot: slice_from_json(p, f"initial_slices slot {slot!r}") for slot, p in slices.items()},
        None
        if data.get("gauge_function") is None
        else jet_from_json(data["gauge_function"], "gauge_function"),
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


def typed_from_json(data: dict, what: str):
    tag = _get(data, "type", what)
    if not isinstance(tag, str) or tag not in _TYPED:
        raise ValueError(f"unknown type tag {tag!r}; known tags: {', '.join(_TYPED)}")
    return _TYPED[tag][2](_get(data, "value", what), what)


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


def _check_from_json(data, what: str) -> Check:
    data = _object(data, "check")
    return Check(
        _header(_get(data, "name", what), str, "check name"),
        _header(_get(data, "zero_to_order", what), int, "check zero_to_order"),
        _header(_get(data, "passed", what), bool, "check passed"),
    )


def _values_from_json(data: dict, section: str) -> dict:
    """The typed values of a report section, each read as {section} {name!r}."""
    values = _object(_get(data, section, "report"), section)
    return {k: typed_from_json(v, f"{section} {k!r}") for k, v in values.items()}


def report_from_json(data: dict) -> BuildReport:
    return BuildReport(
        construction=_header(_get(data, "construction", "report"), str, "report construction"),
        n=_header(_get(data, "n", "report"), int, "report n"),
        max_degree=_header(_get(data, "D", "report"), int, "report D"),
        prescribed=_values_from_json(data, "prescribed"),
        free_data=None
        if data.get("free_data") is None
        else free_data_from_json(data["free_data"]),
        outputs=_values_from_json(data, "outputs"),
        checks=[
            _check_from_json(c, f"checks entry {i}")
            for i, c in enumerate(_list(_get(data, "checks", "report"), "checks"))
        ],
    )


def canonical_dumps(data) -> str:
    """Deterministic JSON text (byte-identical for identical content)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
