"""JSON encoding of jets, tensors, free data and build reports.

Coefficients are reduced rational strings "num/den"; exponent keys are
space-separated integers; zero coefficients are omitted. Reports are written
in canonical form, the text `canonical_dumps` gives (sorted keys, fixed
separators), so identical objects serialize to identical bytes and reports
round-trip bit-exactly.

The writer, `report_text`, emits that text in one pass straight from each
jet's integers, with no tree of dicts and no sort of it. Per workspace it
caches the ranks in the order of the sorted keys, each with its `"key":"`
prefix (`_sorted_keys`); a nonzero coefficient then costs one gcd of
numerator and denominator (none when the denominator is 1) and one
f-string, which gives the text `fractions.Fraction` gives. Table keys and
value names are sorted as strings, so "10,1" precedes "2,1". The dict
encoders (`jet_to_json` to `report_to_json`) are `json.loads` of that text.

The reader first tries the form the writer gives (`_read_written`): every
key in the table of the workspace's keys (`_keys`) and every coefficient a
string `-?[0-9]+/[0-9]+` with a nonzero denominator. It joins the
coefficients, matches them with one `fullmatch`, reads all their integers
with one C-level JSON decode, takes one lcm of the denominators and reduces
once; a jet in lowest terms is unique, so this is the jet an entry-by-entry
read gives. A numeral JSON does not read (a leading zero, as in `007/1`) or
one over the interpreter's digit limit, and any other input, goes to the
entry loop (`_read_entries`), which reads each key with the table or else
`int` on each part, and each coefficient with `Fraction`, but for
whitespace next to `/`, which `Fraction` accepts from Python 3.12 on only
and the reader rejects on every version. So the accepted inputs, their
values and the errors, with their order and messages, are those of the
`int` and `Fraction` parse of Python 3.10 and 3.11, and a written jet is
read without `Fraction`.

A symmetric table holds each off-diagonal jet twice. The writer encodes each
jet object of a table once (entries that hold one jet share its text), and
the table readers give entry (.., i, j) the jet already read for its mirror
(.., j, i) when its payload reads the same as the payload that jet was read
from (`_reads_alike`).

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
# (value, end) of the JSON text at the start of a string
_decode = json.JSONDecoder().raw_decode


@lru_cache(maxsize=None)
def _keys(n: int, cap: int) -> tuple[str, ...]:
    """The key of every monomial of workspace (n, cap), rank order."""
    return tuple(" ".join(str(e) for e in exps) for exps in mi.exponents(n, cap))


@lru_cache(maxsize=None)
def _key_ranks(n: int, cap: int) -> dict[str, int]:
    return {key: r for r, key in enumerate(_keys(n, cap))}


@lru_cache(maxsize=None)
def _sorted_keys(n: int, cap: int) -> tuple[tuple[int, str], ...]:
    """(rank, '"key":"') of every monomial of workspace (n, cap), in the
    order of the sorted keys."""
    keys = _keys(n, cap)
    return tuple((r, f'"{keys[r]}":"') for r in sorted(range(len(keys)), key=keys.__getitem__))


def _jet_text(jet: Jet) -> str:
    """The canonical text of a jet, its nonzero coefficients in the order of
    the sorted keys, each reduced with one gcd."""
    nums, den = jet.nums, jet.den
    order = _sorted_keys(jet.n, jet.max_degree)
    if den == 1:
        coeffs = [f'{key}{c}/1"' for r, key in order if (c := nums[r])]
    else:
        coeffs = []
        for r, key in order:
            c = nums[r]
            if c:
                g = gcd(c, den)
                coeffs.append(f'{key}{c // g}/{den // g}"')
    return (
        f'{{"D":{jet.max_degree},"coeffs":{{{",".join(coeffs)}}},'
        f'"n":{jet.n},"valid_order":{jet.valid_order}}}'
    )


def jet_to_json(jet: Jet) -> dict:
    return json.loads(_jet_text(jet))


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
    ranks = list(map(keys.get, coeffs))
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
        parts = _decode("[" + text.replace("/", ",") + "]")[0]
    except ValueError:  # a leading zero, or a numeral over the digit limit
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


def _slice_text(sl: SliceJet) -> str:
    return f'{{"ambient_n":{sl.ambient_n},"jet":{_jet_text(sl.jet)}}}'


def slice_to_json(sl: SliceJet) -> dict:
    return json.loads(_slice_text(sl))


def slice_from_json(data: dict, what: str = "slice") -> SliceJet:
    ambient_n = _header(_get(data, "ambient_n", what), int, "slice ambient_n")
    sl = SliceJet(jet_from_json(_get(data, "jet", what), f"{what} jet"))
    if sl.ambient_n != ambient_n:
        raise ValueError("slice ambient dimension mismatch")
    return sl


def _table_text(table: dict) -> str:
    """The object of a table {key: jet}, its keys sorted as strings, each
    jet object encoded once: the entries that hold one jet share its text."""
    encoded, out = {}, []
    for key in sorted(table):
        jet = table[key]
        text = encoded.get(id(jet))
        if text is None:
            text = encoded[id(jet)] = _jet_text(jet)
        out.append(f'"{key}":{text}')
    return "{" + ",".join(out) + "}"


def _named_text(values: dict, encode) -> str:
    """The object of values {name: value}, its names sorted, each value
    encoded by encode."""
    return "{" + ",".join(f"{json.dumps(k)}:{encode(values[k])}" for k in sorted(values)) + "}"


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


def _connection_text(conn: Connection) -> str:
    gamma = _table_text({f"{k};{i},{j}": jet for (k, i, j), jet in conn.gamma.items()})
    symmetric = json.dumps(conn.symmetric)
    return f'{{"gamma":{gamma},"n":{json.dumps(conn.n)},"symmetric":{symmetric}}}'


def connection_to_json(conn: Connection) -> dict:
    return json.loads(_connection_text(conn))


def connection_from_json(data: dict, what: str = "connection") -> Connection:
    n = _header(_get(data, "n", what), int, "table n")
    symmetric = _header(_get(data, "symmetric", what), bool, "symmetric")
    gamma = _object(_get(data, "gamma", what), "connection gamma")
    gamma = _table_from_json(gamma, _gamma_index, "gamma")
    return Connection(n, gamma, symmetric=symmetric)


def _bilinear_text(b: Bilinear) -> str:
    comps = _table_text({f"{i},{j}": jet for (i, j), jet in b.comps.items()})
    return f'{{"comps":{comps},"n":{json.dumps(b.n)}}}'


def bilinear_to_json(b: Bilinear) -> dict:
    return json.loads(_bilinear_text(b))


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


def _free_data_text(fd: FreeData) -> str:
    gauge = "null" if fd.gauge_function is None else _jet_text(fd.gauge_function)
    return (
        f'{{"free_functions":{_named_text(fd.free_functions, _jet_text)},'
        f'"gauge_function":{gauge},'
        f'"initial_slices":{_named_text(fd.initial_slices, _slice_text)}}}'
    )


def free_data_to_json(fd: FreeData) -> dict:
    return json.loads(_free_data_text(fd))


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
    "jet": (Jet, _jet_text, jet_from_json),
    "slice": (SliceJet, _slice_text, slice_from_json),
    "connection": (Connection, _connection_text, connection_from_json),
    "metric": (Metric, _bilinear_text, metric_from_json),
    "bilinear": (Bilinear, _bilinear_text, bilinear_from_json),
}


def _typed_text(value) -> str:
    for tag, (cls, encode, _) in _TYPED.items():
        if isinstance(value, cls):
            return f'{{"type":"{tag}","value":{encode(value)}}}'
    raise TypeError(f"cannot serialize {type(value)!r}")


def typed_to_json(value) -> dict:
    return json.loads(_typed_text(value))


def typed_from_json(data: dict, what: str):
    tag = _get(data, "type", what)
    if not isinstance(tag, str) or tag not in _TYPED:
        raise ValueError(f"unknown type tag {tag!r}; known tags: {', '.join(_TYPED)}")
    return _TYPED[tag][2](_get(data, "value", what), what)


def report_text(report: BuildReport) -> str:
    """The canonical text of a report, `canonical_dumps` of its JSON."""
    dumps = json.dumps
    checks = ",".join(
        f'{{"name":{dumps(c.name)},"passed":{dumps(c.passed)},"zero_to_order":{dumps(c.order)}}}'
        for c in report.checks
    )
    fd = "null" if report.free_data is None else _free_data_text(report.free_data)
    return (
        f'{{"D":{dumps(report.max_degree)},"checks":[{checks}],'
        f'"construction":{dumps(report.construction)},"free_data":{fd},'
        f'"n":{dumps(report.n)},"outputs":{_named_text(report.outputs, _typed_text)},'
        f'"prescribed":{_named_text(report.prescribed, _typed_text)}}}\n'
    )


def report_to_json(report: BuildReport) -> dict:
    return json.loads(report_text(report))


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
