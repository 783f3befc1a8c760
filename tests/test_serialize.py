"""Serialization: bit-exact round-trips for jets, tensors, and reports."""

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
from jetgeom.serialize import (
    canonical_dumps,
    connection_from_json,
    connection_to_json,
    jet_from_json,
    jet_to_json,
    metric_from_json,
    metric_to_json,
    report_from_json,
    report_to_json,
    slice_from_json,
    slice_to_json,
)
from oracles import ref_jet_from_json, ref_jet_to_json


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
@given(data=JETS)
def test_reader_reads_as_the_fraction_parse(data):
    got, want = outcome(jet_from_json, data), outcome(ref_jet_from_json, data)
    if isinstance(want, Jet):
        assert isinstance(got, Jet) and got.same_payload(want)
    else:
        assert got == want


def test_reader_takes_the_integer_path_on_written_jets(monkeypatch):
    import jetgeom.serialize as serialize

    def no_fraction(*args):
        raise AssertionError("a written jet is read without Fraction")

    monkeypatch.setattr(serialize, "Fraction", no_fraction)
    for seed in range(6):
        jet = random_poly(seed, 3, 4, 9, 4).scale(Fraction(seed - 3, 7))
        assert jet_from_json(jet_to_json(jet)).same_payload(jet)
