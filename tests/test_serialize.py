"""Serialization: bit-exact round-trips for jets, tensors, and reports."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jetgeom import (
    Jet,
    SliceJet,
    build_prescribed_ricci_general,
    build_statistical_nd,
    build_trace_free_statistical_2d,
    census,
    connection_round_trip_data,
    levi_civita,
    random_connection,
    random_normalized_metric,
    random_poly,
    verify,
    zero_free_data,
)
from jetgeom import serialize
from jetgeom.builders import BuildReport, Check, FreeData, verify_read_back
from jetgeom.cli import _run_direct
from jetgeom.errors import DimensionMismatchError
from jetgeom.geometry import Bilinear, Connection, Metric
from jetgeom.serialize import (
    bilinear_from_json,
    canonical_dumps,
    connection_from_json,
    connection_to_json,
    jet_from_json,
    jet_to_json,
    metric_from_json,
    metric_to_json,
    report_from_json,
    report_text,
    report_to_json,
    slice_from_json,
    slice_to_json,
)
from oracles import ref_jet_from_json, ref_jet_to_json, ref_report_to_json


def test_jet_round_trip_bit_exact():
    for seed in range(10):
        jet = random_poly(seed, 3, 3, 5, 4).with_valid_order(seed % 5)
        back = jet_from_json(jet_to_json(jet))
        assert back.same_payload(jet)


def test_jet_json_shape():
    jet = Jet.from_terms(2, 4, {(1, 0): Fraction(-1, 3)}, valid_order=2)
    data = jet_to_json(jet)
    assert data == {
        "n": 2,
        "D": 4,
        "valid_order": 2,
        "coeffs": {"1 0": "-1/3"},
    }


def test_zero_coefficients_omitted():
    data = jet_to_json(Jet.zero(2, 4))
    assert data["coeffs"] == {}


def test_constant_jet_zero_variables():
    jet = Jet.constant(Fraction(5, 2), 0, 4)
    data = jet_to_json(jet)
    assert data["coeffs"] == {"": "5/2"}
    assert jet_from_json(data).same_payload(jet)


@pytest.mark.parametrize(
    "text", ["-1/3", "6/4", "-0/5", "007/3", "3", " 3/6 ", "+3/4", "1.5", "-2e3", "\u0663/4"]
)
def test_every_coefficient_string_fraction_reads_is_read_as_fraction_reads_it(text):
    data = {"n": 2, "D": 2, "valid_order": 2, "coeffs": {"1 0": text, "0 1": "1/7"}}
    jet = jet_from_json(data)
    assert jet.coefficient((1, 0)) == Fraction(text)
    assert jet.same_payload(Jet.from_terms(2, 2, {(1, 0): Fraction(text), (0, 1): Fraction(1, 7)}))


@pytest.mark.parametrize(
    "value, error",
    [
        ("1/0", ZeroDivisionError),
        ("3 /4", ValueError),
        ("abc", ValueError),
        (0.5, ValueError),
        (1, ValueError),
    ],
)
def test_coefficient_that_fraction_rejects_or_not_a_string_is_rejected(value, error):
    with pytest.raises(error):
        jet_from_json({"n": 2, "D": 2, "valid_order": 2, "coeffs": {"1 0": value}})


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2", [2]])
def test_valid_order_that_is_not_an_integer_is_rejected(value):
    with pytest.raises(ValueError, match="valid_order must be an integer or null"):
        jet_from_json({"n": 2, "D": 2, "valid_order": value, "coeffs": {"1 0": "1/1"}})


def test_null_valid_order_means_d():
    jet = jet_from_json({"n": 2, "D": 2, "valid_order": None, "coeffs": {"1 0": "1/1"}})
    assert type(jet.valid_order) is int and jet.valid_order == 2


def test_slice_round_trip():
    sl = SliceJet(random_poly(3, 2, 3, 4, 4))
    back = slice_from_json(slice_to_json(sl))
    assert back.same_payload(sl)
    assert back.ambient_n == sl.ambient_n


def test_connection_round_trip():
    conn = random_connection(5, 2, 4, 3, 2)
    back = connection_from_json(connection_to_json(conn))
    assert back.n == conn.n and back.symmetric == conn.symmetric
    assert all(back.gamma[k].same_payload(conn.gamma[k]) for k in conn.gamma)


def test_metric_round_trip():
    g = random_normalized_metric(7, 3, 4, 3, 2)
    back = metric_from_json(metric_to_json(g))
    assert all(
        back.comp(i, j).same_payload(g.comp(i, j))
        for i in range(1, 4)
        for j in range(1, 4)
    )
    assert back.normalized_at_zero


def _sample_reports():
    conn0 = random_connection(11, 2, 4, 3, 2)
    r, fd = connection_round_trip_data("general", conn0)
    yield build_prescribed_ricci_general(r, fd)
    g0 = random_normalized_metric(13, 2, 4, 3, 2)
    yield build_trace_free_statistical_2d(
        levi_civita(g0), g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
    )
    yield build_statistical_nd(3, zero_free_data(census("statistical", 3), 4))


def test_report_round_trip_byte_identical():
    for report in _sample_reports():
        text = canonical_dumps(report_to_json(report))
        reloaded = report_from_json(report_to_json(report))
        text2 = canonical_dumps(report_to_json(reloaded))
        assert text == text2


def test_reloaded_report_reverifies():
    for report in _sample_reports():
        reloaded = report_from_json(report_to_json(report))
        assert verify(reloaded)


def test_canonical_dumps_deterministic():
    conn = random_connection(17, 2, 4, 2, 2)
    reloaded = connection_from_json(connection_to_json(conn))
    assert canonical_dumps(connection_to_json(conn)) == canonical_dumps(
        connection_to_json(reloaded)
    )


# ---------------------------------------------------------------------------
# the integer writer and reader against the Fraction serialization


@pytest.mark.parametrize("n, cap", [(0, 0), (0, 3), (1, 0), (1, 5), (2, 4), (3, 3)])
def test_writer_gives_the_fraction_text(n, cap):
    jets = [Jet.zero(n, cap), Jet.constant(Fraction(-6, 4), n, cap)]
    for seed in range(6):
        jet = random_poly(seed, n, cap, 9, cap).scale(Fraction(seed - 3, 2 * seed + 3))
        jets.append(jet.with_valid_order(seed % (cap + 1)))
    for jet in jets:
        assert jet_to_json(jet) == ref_jet_to_json(jet)
    assert any("-" in c for jet in jets for c in jet_to_json(jet)["coeffs"].values())


def outcome(read, data):
    """The jet read, or the type and message of the error raised."""
    try:
        return read(data)
    except Exception as err:  # the comparison is of any error the parse raises
        return type(err), str(err)


DIGITS = st.sampled_from(["0", "1", "2", "7", "10", "007", "12345678901234567890"])
# underscores, non-ASCII digits, decimals, exponents, empty and non-digit text
ODD_DIGITS = st.sampled_from(["1_0", "\u0663", "\uff11", "1.5", ".5", "2e3", "1E-2", "", "x"])
NUMERALS = st.one_of(DIGITS, DIGITS, ODD_DIGITS)
SPACES = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\n"])
SIGNS = st.sampled_from(["", "", "-", "+", "--"])


@st.composite
def rationals(draw):
    """A signed numeral over an optional signed denominator, with optional
    spaces around it and around the slash."""
    text = draw(SPACES) + draw(SIGNS) + draw(NUMERALS)
    slash = draw(st.sampled_from(["", "", "/", " /", "/ "]))
    if slash:
        text += slash + draw(SIGNS) + draw(NUMERALS)
    return text + draw(SPACES)


# the rationals Fraction reads but for a zero denominator
READABLE = st.builds(
    lambda space, sign, num, den, end: space + sign + num + den + end,
    SPACES,
    st.sampled_from(["", "", "-", "+"]),
    DIGITS,
    st.one_of(st.just(""), DIGITS.map(lambda d: "/" + d)),
    SPACES,
)
COEFFICIENTS = st.one_of(
    rationals(),
    st.sampled_from(["1/0", "0/0", "-0/0", "1/-0", "1/00", "2/4", "-0", "0", "-12/-3"]),
    st.text(max_size=5),
    st.sampled_from([0, 1.5, None, True, [1]]),
)
WORKSPACE_KEYS = st.sampled_from(["0 0", "1 0", "0 1", "2 1", "0 3", "3 0"])
KEYS = st.one_of(
    WORKSPACE_KEYS,
    WORKSPACE_KEYS,
    st.sampled_from(["+1 0", " 1 0", "1  0", "01 0", "1_0 0", "\u0663 0", "-1 0", "1 0 ", "\t0 1"]),
    st.sampled_from(["", " ", "1", "1 0 0", "4 0", "x 0", "1,0"]),
)
JETS = st.fixed_dictionaries(
    {
        "n": st.sampled_from([2] * 6 + [1, 0, -1]),
        "D": st.sampled_from([3] * 6 + [2, 0, -1]),
        "valid_order": st.sampled_from([None, 3, 3, 3, 2, 0, 4, -1]),
        "coeffs": st.one_of(
            st.dictionaries(WORKSPACE_KEYS, READABLE, max_size=4),
            st.dictionaries(KEYS, COEFFICIENTS, max_size=4),
        ),
    }
)

# a jet in the form the writer gives, at n = 2, D = 3
WRITTEN = {"n": 2, "D": 3, "valid_order": 3, "coeffs": {"1 0": "1/2", "0 1": "2/1"}}


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@example(data={"n": 2, "D": 3, "valid_order": 3, "coeffs": {"1 0": "2/4", "0 1": " 1/2"}})
@example(data={"n": 2, "D": 3, "valid_order": 3, "coeffs": {"1 0": "1/2", "+1 0": "1/3"}})
@example(data={"n": 2, "D": 3, "valid_order": 3, "coeffs": {"+1 0": "1/3", "1 0": "1/2"}})
@example(data={"n": 2, "D": 3, "valid_order": 9, "coeffs": {"1 0": "1/0", "x": "1"}})
@example(data={"n": 2, "D": 3, "valid_order": 9, "coeffs": {"4 0": "1", "0 1": "1/0"}})
@example(data={"n": -1, "D": 3, "valid_order": 0, "coeffs": {"1": "1/0"}})
@example(data={"n": 2, "D": 3, "valid_order": 3, "coeffs": {"0 1": "-" + "7" * 5000}})
# every key and coefficient in the written form but one thing, or none
@example(data=dict(WRITTEN, coeffs={"1 0": "2/4", "0 1": "-0/3", "0 0": "5/1"}))
@example(data=dict(WRITTEN, coeffs={"1 0": "1/2", "0 1": "1/0", "0 0": "3/1"}))
@example(data=dict(WRITTEN, coeffs={"1 0": "1/2", "0 1": "7" * 5000 + "/3"}))
@example(data=dict(WRITTEN, coeffs={"1 0": "1/2", "01 0": "1/3", "0 1": "2/1"}))
@example(data=dict(WRITTEN, coeffs={"1 0": "007/2", "0 1": "2/01", "0 0": "-00/1"}))
@example(data=dict(WRITTEN, valid_order=4))
@example(data=dict(WRITTEN, valid_order=-1))
@example(data=dict(WRITTEN, coeffs={"1 0": "1/2,1/3", "0 1": "2/1"}))
@example(data=dict(WRITTEN, valid_order=4, coeffs={}))
@given(data=JETS)
def test_reader_reads_as_the_fraction_parse(data):
    assert_reads_as_the_fraction_parse(data)


def assert_reads_as_the_fraction_parse(data):
    got, want = outcome(jet_from_json, data), outcome(ref_jet_from_json, data)
    if isinstance(want, Jet):
        assert isinstance(got, Jet) and got.same_payload(want)
    else:
        assert got == want


@pytest.mark.parametrize("text", ["007/2", "-01/3", "1/02", "-00/1", "7" * 5000 + "/3"])
def test_numerals_the_json_decode_rejects_take_the_entry_loop(text):
    # a leading zero, or a numeral over the digit limit: today's value or error
    data = dict(WRITTEN, coeffs={"1 0": text, "0 1": "1/2"})
    assert serialize._read_written(data["coeffs"], serialize._key_ranks(2, 3)) is None
    assert_reads_as_the_fraction_parse(data)


def no_entry_loop_and_no_fraction(monkeypatch):
    """Make the entry loop and `Fraction` raise inside the reader."""

    def no_entry_loop(*args):
        raise AssertionError("a written jet is read in one pass")

    def no_fraction(*args):
        raise AssertionError("a written jet is read without Fraction")

    monkeypatch.setattr(serialize, "_read_entries", no_entry_loop)
    monkeypatch.setattr(serialize, "Fraction", no_fraction)


def test_reader_takes_the_integer_path_on_written_jets(monkeypatch):
    no_entry_loop_and_no_fraction(monkeypatch)
    for seed in range(6):
        jet = random_poly(seed, 3, 4, 9, 4).scale(Fraction(seed - 3, 7))
        assert jet_from_json(jet_to_json(jet)).same_payload(jet)
    for jet in (Jet.zero(3, 4), Jet.constant(Fraction(-6, 4), 0, 2)):
        assert jet_from_json(jet_to_json(jet)).same_payload(jet)


# construction -> n of its smallest run
RUN_SHAPES = {
    "general": 2, "trace-free-torsion": 3, "torsion-free": 2, "metric-2d": 2,
    "statistical": 3, "statistical-2d": 2, "trace-free-statistical-2d": 2,
}


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("construction", sorted(RUN_SHAPES))
def test_written_reports_are_read_in_one_pass_per_jet(monkeypatch, construction, cap):
    scenario = {
        "construction": construction, "n": RUN_SHAPES[construction], "D": cap,
        "seed": 1, "free_data": "random",
    }
    report = _run_direct(scenario)
    text = canonical_dumps(report_to_json(report))
    no_entry_loop_and_no_fraction(monkeypatch)
    read = report_from_json(json.loads(text))
    assert verify_read_back(report, read)
    assert canonical_dumps(report_to_json(read)) == text


# ---------------------------------------------------------------------------
# mirror entries: read once when their payloads read alike, written once


def payload(seed: int) -> dict:
    return jet_to_json(random_poly(seed, 2, 3, 5, 3))


def ref_table(entries: dict, index) -> dict:
    """Every entry read on its own with `ref_jet_from_json`, the last of two
    spellings of an index winning."""
    return {index(key): ref_jet_from_json(p) for key, p in entries.items()}


def gamma_index(key: str) -> tuple:
    head, lower = key.split(";")
    return (int(head), *(int(v) for v in lower.split(",")))


def gamma_payloads(first: int = 10) -> dict:
    return {
        f"{k};{i},{j}": payload(first + 4 * k + 2 * i + j)
        for k in (1, 2) for i in (1, 2) for j in (1, 2)
    }


def assert_reads_as_entry_by_entry(table: dict, entries: dict, index):
    want = ref_table(entries, index)
    assert set(table) == set(want)
    for idx, jet in want.items():
        assert table[idx].same_payload(jet), idx


def test_a_mirror_takes_the_jet_of_the_payload_it_was_read_from():
    a, b = payload(1), payload(2)
    # "01;1,2" is the index (1, 1, 2) too, and it is read last: (1, 1, 2) is
    # b, and (1, 2, 1) is a, though a equals the payload under "1;1,2"
    entries = {"1;1,2": a, "01;1,2": b, "1;2,1": json.loads(json.dumps(a))}
    entries.update({key: p for key, p in gamma_payloads().items() if key not in entries})
    conn = connection_from_json({"n": 2, "symmetric": False, "gamma": entries})
    assert_reads_as_entry_by_entry(conn.gamma, entries, gamma_index)
    assert conn.gamma[(1, 2, 1)].same_payload(ref_jet_from_json(a))
    assert not conn.gamma[(1, 1, 2)].same_payload(conn.gamma[(1, 2, 1)])


def bump_one_coefficient(data: dict) -> dict:
    """A copy of a jet payload with its first coefficient plus one."""
    data = json.loads(json.dumps(data))
    key = min(data["coeffs"])
    data["coeffs"][key] = str(Fraction(data["coeffs"][key]) + 1)
    return data


def test_general_mirror_payloads_that_differ_read_two_jets():
    a = payload(3)
    entries = dict(gamma_payloads(), **{"2;1,2": a, "2;2,1": bump_one_coefficient(a)})
    conn = connection_from_json({"n": 2, "symmetric": False, "gamma": entries})
    assert_reads_as_entry_by_entry(conn.gamma, entries, gamma_index)
    assert not conn.gamma[(2, 1, 2)].same_payload(conn.gamma[(2, 2, 1)])
    comps = {"1,1": payload(4), "1,2": a, "2,1": bump_one_coefficient(a), "2,2": payload(5)}
    b = bilinear_from_json({"n": 2, "comps": comps})
    assert_reads_as_entry_by_entry(b.comps, comps, lambda key: tuple(map(int, key.split(","))))
    assert not b.comps[(1, 2)].same_payload(b.comps[(2, 1)])


def test_mirror_payloads_equal_in_python_but_not_in_json_are_read_each():
    a = payload(6)
    # 2.0 == 2 in Python, but a jet's D must be a JSON integer
    entries = dict(gamma_payloads(), **{"1;1,2": a, "1;2,1": dict(a, D=3.0)})
    with pytest.raises(ValueError, match="jet D must be an integer, not 3.0"):
        connection_from_json({"n": 2, "symmetric": False, "gamma": entries})
    # equal dicts, but the monomial spelled twice takes the value written last
    twice = {"n": 2, "D": 3, "valid_order": 3, "coeffs": {"1 0": "1/2", "+1 0": "1/3"}}
    swapped = dict(twice, coeffs={"+1 0": "1/3", "1 0": "1/2"})
    assert twice == swapped
    entries = dict(gamma_payloads(), **{"1;1,2": twice, "1;2,1": swapped})
    conn = connection_from_json({"n": 2, "symmetric": False, "gamma": entries})
    assert_reads_as_entry_by_entry(conn.gamma, entries, gamma_index)
    assert conn.gamma[(1, 1, 2)].coefficient((1, 0)) == Fraction(1, 3)
    assert conn.gamma[(1, 2, 1)].coefficient((1, 0)) == Fraction(1, 2)


def test_a_symmetric_table_tampered_on_one_side_is_rejected():
    g = random_normalized_metric(7, 2, 3, 3, 2)
    data = json.loads(canonical_dumps(connection_to_json(levi_civita(g))))
    data["gamma"]["1;2,1"] = bump_one_coefficient(data["gamma"]["1;2,1"])
    with pytest.raises(DimensionMismatchError, match="table marked symmetric but"):
        connection_from_json(data)
    data = json.loads(canonical_dumps(metric_to_json(g)))
    data["comps"]["2,1"] = bump_one_coefficient(data["comps"]["2,1"])
    with pytest.raises(DimensionMismatchError, match="metric table is not symmetric"):
        metric_from_json(data)


def test_mirror_entries_of_a_written_table_are_read_as_one_jet():
    g = random_normalized_metric(7, 3, 3, 3, 2)
    conn = connection_from_json(json.loads(canonical_dumps(connection_to_json(levi_civita(g)))))
    assert all(conn.gamma[(k, i, j)] is conn.gamma[(k, j, i)] for k, i, j in conn.gamma)
    metric = metric_from_json(json.loads(canonical_dumps(metric_to_json(g))))
    assert all(metric.comps[(i, j)] is metric.comps[(j, i)] for i, j in metric.comps)


def jets_of(value) -> list:
    """The jet objects a report value holds, one per entry."""
    if isinstance(value, Connection):
        return list(value.gamma.values())
    if isinstance(value, Bilinear):
        return list(value.comps.values())
    if isinstance(value, FreeData):
        gauge = [] if value.gauge_function is None else [value.gauge_function]
        slices = [sl.jet for sl in value.initial_slices.values()]
        return list(value.free_functions.values()) + slices + gauge
    return [value.jet if isinstance(value, SliceJet) else value]


def test_report_writer_encodes_each_jet_of_a_table_once(monkeypatch):
    report = _run_direct({"construction": "statistical", "n": 3, "D": 3, "seed": 1})
    tables = [*report.prescribed.values(), *report.outputs.values()]
    # a jet object once per table; each free-data jet, slice and jet value once
    distinct = sum(len({id(j) for j in jets_of(v)}) for v in tables)
    distinct += len(jets_of(report.free_data))
    conn = report.outputs["connection"]
    assert len({id(j) for j in conn.gamma.values()}) < len(conn.gamma)
    real, encoded = serialize._jet_text, []
    monkeypatch.setattr(serialize, "_jet_text", lambda jet: encoded.append(jet) or real(jet))
    text = report_text(report)
    assert len(encoded) == distinct
    # every entry encoded on its own by the Fraction writer: the same bytes
    assert canonical_dumps(ref_report_to_json(report)) == text


# ---------------------------------------------------------------------------
# the one-pass report writer against the JSON tree of the reference writer

# workspaces (n, D): a constant, exponents >= 10, and a few small ones
WORKSPACES = st.sampled_from([(0, 0), (0, 2), (1, 12), (2, 3), (2, 10), (3, 2)])
DENOMINATORS = st.sampled_from([1, 1, 1, 2, 3, 6, 7, 10**20 + 39])


@st.composite
def text_jets(draw, n: int, cap: int) -> Jet:
    """A jet of workspace (n, cap) with up to five nonzero coefficients,
    negative and fractional ones among them, at any valid order."""
    size = len(serialize._keys(n, cap))
    numerators = st.integers(-(10**25), 10**25)
    terms = draw(st.dictionaries(st.integers(0, size - 1), numerators, max_size=5))
    den = draw(DENOMINATORS)
    coeffs = [Fraction(terms.get(r, 0), den) for r in range(size)]
    return Jet(n, cap, coeffs, draw(st.integers(0, cap)))


@st.composite
def mirrored(draw, keys, mirror, n: int, cap: int) -> dict:
    """A table on keys whose entry at mirror(key) is, by draw, the jet of key
    itself, an equal but distinct jet object, or a jet of its own."""
    table = {}
    for key in keys:
        other = table.get(mirror(key))
        how = draw(st.sampled_from(["shared", "copy", "own"]))
        if other is None or how == "own":
            table[key] = draw(text_jets(n, cap))
        elif how == "shared":
            table[key] = other
        else:
            table[key] = Jet._from_nums(n, cap, other.nums, other.den, other.valid_order)
    return table


@st.composite
def report_values(draw, n: int, cap: int):
    """A jet, a slice, a connection (symmetric or not), a metric or a
    bilinear table, the last with table n = 10 at times."""
    kind = draw(st.sampled_from(["jet", "slice", "connection", "metric", "bilinear", "wide"]))
    if kind == "jet":
        return draw(text_jets(n, cap))
    if kind == "slice":
        return SliceJet(draw(text_jets(n, cap)))
    if kind == "connection":
        size = draw(st.integers(1, 2))
        indices = range(1, size + 1)
        keys = [(k, i, j) for k in indices for i in indices for j in indices]
        gamma = draw(mirrored(keys, lambda key: (key[0], key[2], key[1]), n, cap))
        return Connection(size, gamma, symmetric=Connection(size, gamma).is_symmetric_table())
    if kind == "wide":  # keys "10,1" and "2,1"; mirror entries share a jet
        pool = draw(st.lists(text_jets(0, 0), min_size=1, max_size=3))
        return Bilinear(10, {(i, j): pool[i * j % len(pool)] for i in TEN for j in TEN})
    size = draw(st.integers(1, 3))
    keys = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)]
    comps = draw(mirrored(keys, lambda key: key[::-1], n, cap))
    if kind == "metric":
        # constant terms over 10^25 on the diagonal: an invertible matrix
        for i in range(1, size + 1):
            comps[(i, i)] = Jet.constant(10**27 * i, n, cap)
        symmetric = {(i, j): comps[(min(i, j), max(i, j))] for i, j in comps}
        return Metric(size, symmetric)
    return Bilinear(size, comps)


TEN = range(1, 11)
NAMES = st.sampled_from(["r", "metric", "connection", "g11", "init12", "phi", "b", "\u00e9", 'q"'])
SLOTS = st.sampled_from(["Gamma^1_11", "g;1,2", "gamma;2,1", "phi", "\u00e9", "a\\b"])


@st.composite
def reports(draw) -> BuildReport:
    n, cap = draw(WORKSPACES)
    free_data = None
    if draw(st.booleans()):
        free_data = FreeData(
            draw(st.dictionaries(SLOTS, text_jets(n, cap), max_size=3)),
            draw(st.dictionaries(SLOTS, text_jets(n, cap).map(SliceJet), max_size=3)),
            draw(st.none() | text_jets(n, cap)),
        )
    checks = st.builds(Check, st.sampled_from(["codazzi", "ricci-residual", "x\u00e9"]),
                       st.integers(0, 12), st.booleans())
    return BuildReport(
        draw(st.sampled_from(["general", "statistical", "metric-2d"])),
        draw(st.integers(0, 12)),
        draw(st.integers(0, 12)),
        draw(st.dictionaries(NAMES, report_values(n, cap), max_size=3)),
        free_data,
        draw(st.dictionaries(NAMES, report_values(n, cap), max_size=3)),
        draw(st.lists(checks, max_size=3)),
    )


@settings(
    max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
# table n = 10 ("10,1" before "2,1") and exponent 10 (before 2), every entry nonzero
@example(
    report=BuildReport(
        "general", 10, 12,
        {"jet": Jet(1, 12, range(1, 14), 12)},
        None,
        {"b": Bilinear(10, {(i, j): Jet.constant(i - j or 1, 0, 0) for i in TEN for j in TEN})},
        [],
    )
)
@given(report=reports())
def test_report_text_is_the_canonical_dump_of_the_reference_tree(report):
    text = report_text(report)
    assert text == canonical_dumps(ref_report_to_json(report))
    assert text == canonical_dumps(report_to_json(report))

