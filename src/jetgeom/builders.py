"""Theorem-level builders: assemble the Cauchy-Kowalevski systems and the
algebraic eliminations for each construction, consume the free data, solve,
and return reports whose residual checks all passed.

Free-data slots are named after the component they fill: a Christoffel slot
"k;i,j" is the symbol with upper index k and lower indices (i, j); a metric
slot "g;i,j" is the metric component. The gauge-function slot of the
torsion-free construction is called "phi". Every table the equations run on
keys an entry the way `parse_slot` parses its slot: G^k_ij is (k, i, j) and
g_ij is ("g", i, j), with i <= j on a symmetric table (`_canon`, the one
fold), and `gamma_slot(*key)` gives the slot back.

Every construction writes its equations in one row form, `_Row`: linear,
derivative and product atoms over one table of jets, evaluated one x1-layer
at a time by the package's one accumulation, `jets._accumulate`, on the
row's atoms (`_terms`); the tests hold the full-size evaluator, the
reference of every layer it writes. `_ck_solve` takes
data only: one row per first-order CK unknown, fixed entries, derived
entries (rows over the entries before them), the initial slices under the
unknowns' own keys and one unsplit pair of keys and algebraic rows linear
in them. It pops each
unknown's x1-derivative (coefficient +-1) and asserts that the rests and
the derived rows take x1-derivatives only of the fixed keys. It then
builds the solution one x1-layer at a time, as the proof of the
Cauchy-Kowalevski theorem does: layer t of a derived entry, a block key or
a row needs only layers <= t of the unknowns, so layers 1..D cost about one pass
over the product pairs where the D + 1 Picard rounds of
`ck.solve_first_order` (the public solver, and the reference) cost D + 1
full passes. No build uses `ck`: the second-order metric-2d equation,
Delta_r u = K_r - 1, linear in u = log(h / h(0)) / 2, is solved as the
first-order system of h and the log-derivatives p = (h)_1 / (2h) and
w = (h)_2 / (2h).

Each construction is stated once, in its record (`_Construction`, in
`_CONSTRUCTIONS`): its dimension rule, the name and type of every prescribed
and output value of its reports, the checks they must pass, its input
rules, its builder, how a direct `run` draws the builder's arguments (per
argument its scenario key, default policy and draw rule, in draw order) and
its round-trip data. Since every output is written to order D, an input must
be valid to the order the solve reads it to, and the metric entries it gives
must hold delta_ij at the origin. `census`, the CLI, the builders and
`verify` read the record; the CLI names no construction.

Every seeded table (a random connection, metric or prescribed tensor, and
random free data) is drawn by `_draws`: one seeded polynomial per key, in
key order, which fixes every byte of a seeded report. One slot map,
`_slot_output`, gives the output component a free-data slot fills: the
free-functions and initial-slices checks compare the free data there, and
the round-trip data (`_free_data_of`) are read off a seeded structure
there.

Each report is admitted once, by `_admit`, which holds every rule a report's
header, values and free data must meet: the dimension rule, the record's
values by name and type, free data filling exactly the census slots, every
jet, slice and table in workspace (n, D), and the input rules. Each builder
admits the report it starts, after its own rejections and before its solve,
and `verify` the report it reads, before any check; the checks then read the
report's values unchecked. So a report that `verify` accepts holds inputs
that a build accepts.

The three prescribed-Ricci constructions (unconstrained torsion, vanishing
torsion trace, torsion-free) share one equation path. `_ricci_spec` gives,
per construction, whether the Christoffel table is symmetric, which Ricci
component isolates the x1-derivative of which unknown, and how each
algebraically determined symbol is a signed sum of other symbols and of the
prescribed divergence functions. `_ricci_rows` generates the row
Ric_ab - r_ab = 0 of every equation mechanically from the Ricci formula: the
derivative terms with the determined symbols substituted and cancelled, and
the quadratic terms as the n^2 products over the canonical keys and the
divergence entries ("div", a, l) = sum_{k != a} G^k_kl of each equation's
Ricci component (a, b): the k = a products of the two quadratic sums cancel
and are not formed. `build_prescribed_ricci` passes the determined symbols
and the divergence entries as derived rows and solves; the three named
builders call it.

The statistical constructions (statistical-2d, trace-free-statistical-2d and
statistical) share one Codazzi path. `_codazzi_gap` gives the row of the gap
(nabla g)_ijk - (nabla g)_jik: derivative atoms of metric keys and product
atoms (symbol key, metric key); on a symmetric table the keys fold, so the
torsion terms cancel when the row is built. Each metric unknown g_ab takes
its x1-derivative from gap (1, b, a), and for n >= 3 the gaps that
`_codazzi_spec` lists form the jet-linear system for the determined symbols.
`_ck_solve` takes the symbols and the gaps unsplit and splits them by
structure (`jets._block_split`: a matching of gaps to symbols, then the
strongly connected components of the dependencies, in dependency order),
which makes the layer-0 coefficient matrix, of (n - 1)-variable jets, block
lower triangular; for the Codazzi gaps the blocks are the symbols of one
lower index pair, none of over n - 2. Of each diagonal block only the
constant matrix is inverted, over Q, once, at layer 0. Layer t of the
symbols is then a forward substitution, block by block: the block's rows
evaluated at layer t on a table that holds layer t of the symbols of
earlier blocks and not yet that of its own, and the block's symbols solved
from them degree by degree in the n - 1 variables against the constant
matrix. No build inverts a jet matrix or runs a full-size jet elimination;
`solve_determined_christoffels` runs the same solve over given tables.
`_codazzi_metric` holds the one assembly; the
builders differ only in the fixed entries (the Christoffel table, and g11
where it is given), the algebraic keys and rows and the initial slices.
trace-free-statistical-2d fixes nu^2 in place of g11 and solves
g11 g22 - g12^2 - nu^2 = 0, which is linear in g11, as its one algebraic
row, so no first-order build takes a reciprocal in its solve.
"""

# annotations are evaluated here, not kept as strings (`from __future__ import
# annotations`): `typing.NamedTuple` compiles each string field annotation of
# the records into a `ForwardRef`, which would double their cost at import
import random
from fractions import Fraction
from functools import partial
from math import comb, lcm
from typing import Mapping, NamedTuple

from . import multiindex as mi
from .errors import (
    DimensionMismatchError,
    EvaluationError,
    NotClosedError,
    RejectionError,
)
from .geometry import (
    Bilinear,
    Connection,
    Metric,
    OneForm,
    _torsion_trace_components,
    divergence_form,
    is_codazzi,
    is_ricci,
    levi_civita,
    parallel_volume_2d,
    potential_of_one_form,
    primitive_of_two_form,
    ricci,
    split,
)
from .jets import (
    Jet, SliceJet, _accumulate, _block_split, _linear_factor, _reduced,
    _solve_linear_by_degree, as_fraction, product_sum, random_poly,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# slot naming


def gamma_slot(k: int, i: int, j: int) -> str:
    return f"{k};{i},{j}"


def metric_slot(i: int, j: int) -> str:
    return f"g;{i},{j}"


def parse_slot(slot: str) -> tuple:
    head, lower = slot.split(";")
    i, j = (int(v) for v in lower.split(","))
    if head == "g":
        return ("g", i, j)
    return (int(head), i, j)


def _canon(symmetric: bool, k, i: int, j: int) -> tuple:
    """The table key of G^k_ij, or of g_ij for k = "g": the key its slot
    parses to, (k, i, j) with i <= j on a symmetric table."""
    return (k, min(i, j), max(i, j)) if symmetric else (k, i, j)


def _keyed(slots: Mapping) -> dict:
    """Values by slot, re-keyed by the table key each slot parses to."""
    return {parse_slot(slot): value for slot, value in slots.items()}


# ---------------------------------------------------------------------------
# constructions: one record each


class _RunValue(NamedTuple):
    """How a direct `run` makes one argument of a builder: the scenario key
    it is read from (under "prescribed"; the top-level "free_data" for census
    free data; a tuple of keys for a diagonal tensor; None for the
    construction and n), its default policy, its draw rule (`cli._RULES`)
    and the constant term forced on a drawn, "zero" or "one" value."""

    key: str | tuple[str, ...] | None
    default: object
    rule: str
    constant: int | None = None


class _Construction(NamedTuple):
    """Everything about one construction but its equations:
    - the dimension rule n_min <= n <= n_max (None: no bound);
    - the name and type of every prescribed and output value of its
      reports, and whether they carry free data (the census constructions);
    - the checks its reports must pass, in order, each as (check, orders
      below D it runs to; None for order 0);
    - the input rules of `_admit`: the inputs, named as `_input`
      names them, that must be valid to some order below D, each as (input,
      orders below D, rejection reason), and the inputs whose metric entries
      must hold delta_ij at the origin;
    - the builder `run` calls, named in this module, and its arguments in
      direct mode, in draw order;
    - the round-trip data of `run`'s round_trip mode (None: no such mode):
      the seeded structure, drawn by a function of (seed, n, D, degree,
      bound), and the function of (construction, structure) that gives the
      builder's arguments, both named in this module."""

    n_min: int
    n_max: int | None
    prescribed: Mapping[str, type]
    outputs: Mapping[str, type]
    checks: tuple[tuple[str, int | None], ...]
    exact: tuple[tuple[str, int, str], ...]
    build: str
    run: tuple[_RunValue, ...]
    normal: tuple[str, ...] = ()
    free_data: bool = False
    round_trip: tuple[str, str] | None = None


_TENSOR, _FREE = "prescribed-tensor-not-exact", "free-function-not-exact"
_SLICE = "initial-slice-not-exact"
_RICCI_TYPES = ({"r": Bilinear}, {"connection": Connection})
# Gamma at degree d takes r at degree d - 1, and the free functions (the
# gauge function too) and the initial slices at degree d
_RICCI_INPUTS = (("r", 1, _TENSOR), ("free symbols", 0, _FREE), ("initial slices", 0, _SLICE))
_CENSUS = _RunValue("free_data", "zero", "census")
_RICCI_RUN = {
    "build": "build_prescribed_ricci",
    "run": (_RunValue(None, None, "construction"), _RunValue("r", "zero", "tensor"), _CENSUS),
    "free_data": True,
}
# the initial slices of the 2D statistical metrics, normalized at the origin
_INITS = (_RunValue("init12", "zero", "slice", 0), _RunValue("init22", "one", "slice", 1))
_LEVI_CIVITA = ("random_normalized_metric", "_statistical_2d_round_trip")

_CONSTRUCTIONS = {
    "general": _Construction(
        2, None, *_RICCI_TYPES,
        checks=(("ricci-residual", 1), ("initial-slices", 0), ("free-functions", 0)),
        exact=_RICCI_INPUTS,
        round_trip=("random_connection", "_ricci_round_trip"),
        **_RICCI_RUN,
    ),
    "trace-free-torsion": _Construction(
        3, None, *_RICCI_TYPES,
        checks=(
            ("ricci-residual", 1), ("initial-slices", 0), ("free-functions", 0),
            ("torsion-trace-zero", 0),
        ),
        exact=_RICCI_INPUTS,
        round_trip=("random_trace_free_connection", "_ricci_round_trip"),
        **_RICCI_RUN,
    ),
    "torsion-free": _Construction(
        2, None, *_RICCI_TYPES,
        checks=(
            ("ricci-residual", 1), ("connection-symmetric", 0), ("initial-slices", 0),
            ("free-functions", 0),
        ),
        exact=(
            ("r", 1, _TENSOR), ("free symbols", 0, _FREE), ("phi", 0, _FREE),
            ("initial slices", 0, _SLICE),
        ),
        round_trip=("random_symmetric_connection", "_ricci_round_trip"),
        **_RICCI_RUN,
    ),
    # h at degree d takes r, and the slices phi of h and psi of (h)_1, at
    # degree d; a random r11, r22 or phi that vanishes at the origin gets
    # constant term 1, so a random scenario is nondegenerate
    "metric-2d": _Construction(
        2, 2, {"r": Bilinear, "phi": SliceJet, "psi": SliceJet},
        {"metric": Metric, "conformal_factor": Jet},
        checks=(("metric-ricci-residual", 2),),
        exact=(("r", 0, _TENSOR), ("phi", 0, _SLICE), ("psi", 0, _SLICE)),
        build="build_metric_2d_prescribed_ricci",
        run=(
            _RunValue(("r11", "r22"), "random", "diagonal"),
            _RunValue("phi", "random", "nonvanishing-slice"), _RunValue("psi", "zero", "slice"),
        ),
    ),
    # the metric at degree d takes the connection at degree d - 1, and g11
    # and the slices at degree d
    "statistical-2d": _Construction(
        2, 2, {"connection": Connection, "g11": Jet, "init12": SliceJet, "init22": SliceJet},
        {"metric": Metric},
        checks=(("codazzi", 1), ("metric-normalized-at-zero", None), ("initial-slices", 0)),
        exact=(
            ("connection", 1, _TENSOR), ("g11", 0, _TENSOR),
            ("init12", 0, _SLICE), ("init22", 0, _SLICE),
        ),
        build="build_statistical_2d",
        run=(
            _RunValue("connection", "random", "connection"), _RunValue("g11", "one", "jet", 1),
            *_INITS,
        ),
        normal=("g11", "init12", "init22"),
        round_trip=_LEVI_CIVITA,
    ),
    "trace-free-statistical-2d": _Construction(
        2, 2, {"connection": Connection, "init12": SliceJet, "init22": SliceJet},
        {"metric": Metric, "volume": Jet},
        checks=(
            ("codazzi", 1), ("volume-determinant", 0), ("metric-normalized-at-zero", None),
            ("initial-slices", 0),
        ),
        exact=(("connection", 1, _TENSOR), ("init12", 0, _SLICE), ("init22", 0, _SLICE)),
        build="build_trace_free_statistical_2d",
        run=(_RunValue("connection", "random-levi-civita", "connection"), *_INITS),
        normal=("init12", "init22"),
        round_trip=_LEVI_CIVITA,
    ),
    # the metric at degree d takes g11 and the slices at degree d, and the
    # free symbols at degree d - 1
    "statistical": _Construction(
        3, None, {}, {"connection": Connection, "metric": Metric},
        checks=(
            ("codazzi", 1), ("metric-normalized-at-zero", None), ("connection-symmetric", 0),
            ("initial-slices", 0), ("free-functions", 0),
        ),
        exact=(("g;1,1", 0, _FREE), ("free symbols", 1, _FREE), ("initial slices", 0, _SLICE)),
        build="build_statistical_nd",
        run=(_RunValue(None, None, "n"), _CENSUS),
        normal=("g;1,1", "initial slices"),
        free_data=True,
        round_trip=("random_normalized_metric", "_statistical_round_trip"),
    ),
}

# the constructions with a census of free data
CONSTRUCTIONS = tuple(name for name, rec in _CONSTRUCTIONS.items() if rec.free_data)


def _record(construction: str, n: int) -> _Construction | None:
    """The record of a construction whose dimension rule n meets; None for
    an unknown construction."""
    rec = _CONSTRUCTIONS.get(construction)
    if rec is None or rec.n_min <= n and (rec.n_max is None or n <= rec.n_max):
        return rec
    rule = f"n = {rec.n_min}" if rec.n_min == rec.n_max else f"n >= {rec.n_min}"
    raise RejectionError("unsupported-construction", f"{construction} needs {rule}, got {n}")


def _require_workspace_bound(n: int, cap: int):
    """Reject a workspace over `multiindex.MAX_PRODUCT_PAIRS`."""
    if mi.exceeds_pair_bound(n, cap):
        raise RejectionError(
            "workspace-too-large",
            f"n = {n}, D = {cap} needs more than {mi.MAX_PRODUCT_PAIRS} product pairs",
        )


# the largest determined-symbol node a statistical `run` may solve, as its
# key count times the C(2n + D, D) product pairs of its workspace; the work of
# the node's layers grows with both, and the pair bound alone admits
# n = 12, D = 4 (10.1M) and n = 20, D = 3 (30.2M). The tests, demos and
# benchmark solve at most 5445 (n = 4, D = 4); n = 10, D = 3 is 488796.
MAX_NODE_PAIRS = 500_000


def _require_node_bound(construction: str, n: int, cap: int):
    """Reject a statistical workspace whose node is over MAX_NODE_PAIRS. The
    node holds the 3 C(n - 1, 2) + 2 C(n - 1, 3) determined symbols of
    `_codazzi_spec`; counted in closed form, so nothing is built first."""
    if construction != "statistical":
        return
    keys = 3 * comb(n - 1, 2) + 2 * comb(n - 1, 3)
    if keys * comb(2 * n + cap, cap) > MAX_NODE_PAIRS:
        raise RejectionError(
            "workspace-too-large",
            f"statistical n = {n}, D = {cap} needs a node of {keys} keys over "
            f"{comb(2 * n + cap, cap)} product pairs, more than {MAX_NODE_PAIRS} in all",
        )


# ---------------------------------------------------------------------------
# censuses


class Census(NamedTuple):
    """Explicit slot lists for one construction: which component functions are
    freely choosable, which initial slices are prescribed, which symbols the
    CK solver produces, and which are determined algebraically."""

    construction: str
    n: int
    free_function_slots: tuple[str, ...]
    initial_slice_slots: tuple[str, ...]
    ck_unknowns: tuple[str, ...]
    determined: tuple[str, ...]


def _all_gamma_keys(n: int) -> list[tuple[int, int, int]]:
    return [
        (k, i, j)
        for k in range(1, n + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]


def _pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i <= j, row by row."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def _all_pair_keys(n: int) -> list[tuple[int, int, int]]:
    return [(k, i, j) for k in range(1, n + 1) for i, j in _pairs(n)]


def census(construction: str, n: int) -> Census:
    """Slot lists for (construction, n); raises RejectionError when the
    combination is unsupported, or when n is over the workspace bound at
    every D >= 2, before any list is built."""
    if construction not in CONSTRUCTIONS:
        raise RejectionError(
            "unsupported-construction", f"unknown construction {construction!r}"
        )
    _record(construction, n)
    _require_workspace_bound(n, 2)

    if construction == "statistical":
        spec = _codazzi_spec(n)
        keys = _all_pair_keys(n) + [("g", 1, 1)]
        unknowns, determined = spec.unknowns, spec.determined
    else:
        spec = _ricci_spec(construction, n)
        keys = _all_pair_keys(n) if spec.symmetric else _all_gamma_keys(n)
        unknowns = [unknown for _, unknown in spec.equations]
        determined = list(spec.substitutions)
    blocked = set(unknowns) | set(determined)
    free = [gamma_slot(*key) for key in keys if key not in blocked]
    free += ["phi"] if construction == "torsion-free" else []
    unknowns = tuple(gamma_slot(*key) for key in unknowns)
    determined = tuple(gamma_slot(*key) for key in determined)
    return Census(construction, n, tuple(free), unknowns, unknowns, determined)


# ---------------------------------------------------------------------------
# free data


class FreeData(NamedTuple):
    """Explicit assignment of the freely choosable functions and initial
    slices a census enumerates; the torsion-free gauge function is carried
    separately under its own field."""

    free_functions: dict[str, Jet]
    initial_slices: dict[str, SliceJet]
    gauge_function: Jet | None = None


def _with_constant(jet: Jet, value) -> Jet:
    return jet + (as_fraction(value) - jet.constant_term)


def _slot_normal_value(slot: str):
    kind = parse_slot(slot)
    if kind[0] == "g":
        return 1 if kind[1] == kind[2] else 0
    return None


def _normalized(slot: str, jet: Jet) -> Jet:
    normal = _slot_normal_value(slot)
    return jet if normal is None else _with_constant(jet, normal)


def zero_free_data(cen: Census, max_degree: int) -> FreeData:
    """All-zero data, except metric slots which keep their required values
    at the origin (g11(0) = 1, delta-normalized slices)."""
    n = cen.n
    free = {
        slot: _normalized(slot, Jet.zero(n, max_degree))
        for slot in cen.free_function_slots
        if slot != "phi"
    }
    slices = {
        slot: SliceJet(_normalized(slot, Jet.zero(n - 1, max_degree)))
        for slot in cen.initial_slice_slots
    }
    return FreeData(free, slices, None)


def random_free_data(
    cen: Census, seed: int, degree: int, coeff_bound: int, max_degree: int
) -> FreeData:
    """Deterministic random data; metric-slot constants are forced to their
    normalization values. The gauge slot, when present, becomes a random
    gauge function."""
    rng, args = random.Random(seed), (max_degree, degree, coeff_bound)
    free = _draws(rng, cen.free_function_slots, cen.n, *args)
    slices = _draws(rng, cen.initial_slice_slots, cen.n - 1, *args)
    gauge = free.pop("phi", None)
    return FreeData(
        {slot: _normalized(slot, jet) for slot, jet in free.items()},
        {slot: SliceJet(_normalized(slot, jet)) for slot, jet in slices.items()},
        gauge,
    )


# ---------------------------------------------------------------------------
# reports


class Check(NamedTuple):
    name: str
    order: int
    passed: bool


class BuildReport(NamedTuple):
    construction: str
    n: int
    max_degree: int
    prescribed: dict[str, object]
    free_data: FreeData | None
    outputs: dict[str, object] | None  # None: a build before its solve
    checks: list[Check]


# ---------------------------------------------------------------------------
# checks: one function per check name, computed from a report's values alone.
# The builders and `verify` run the same code; `run` does not run it again on
# the report it reads back, since values that compare equal to the checked
# build's pass the same checks (`verify_read_back`)


def _ricci_residual(report: BuildReport, order: int) -> bool:
    # an admitted r lives in the report's workspace (`_admit`)
    return is_ricci(report.outputs["connection"], report.prescribed["r"], order)


def _metric_ricci_residual(report: BuildReport, order: int) -> bool:
    # the derivative part of Ric to degree k needs the symbols to degree k + 1
    conn = levi_civita(report.outputs["metric"], min(order + 1, report.max_degree))
    return is_ricci(conn, report.prescribed["r"], order)


def _torsion_trace_zero(report: BuildReport, order: int) -> bool:
    tau = _torsion_trace_components(report.outputs["connection"])
    return all(jet.is_zero_up_to(order) for _, jet in tau)


def _connection_symmetric(report: BuildReport, order: int) -> bool:
    return report.outputs["connection"].is_symmetric_table()


def _codazzi(report: BuildReport, order: int) -> bool:
    out = report.outputs
    # the 2D statistical builds take the connection as input
    conn = out["connection"] if "connection" in out else report.prescribed["connection"]
    return is_codazzi(conn, out["metric"], order)


def _metric_normalized_at_zero(report: BuildReport, order: int) -> bool:
    return report.outputs["metric"].normalized_at_zero


def _volume_determinant(report: BuildReport, order: int) -> bool:
    g, volume = report.outputs["metric"], report.outputs["volume"]
    gap = product_sum(
        ((1, g.comp(1, 1), g.comp(2, 2)), (-1, g.comp(1, 2), g.comp(1, 2)), (-1, volume, volume))
    )
    return gap.is_zero_up_to(order)


def _slot_output(outputs: Mapping, slot: str) -> Jet:
    """The output component a free-data slot fills."""
    kind = parse_slot(slot)
    if kind[0] == "g":
        return outputs["metric"].comp(kind[1], kind[2])
    return outputs["connection"].gamma[kind]


# the metric slot each 2D statistical input gives
_METRIC_INPUTS = {"g11": "g;1,1", "init12": "g;1,2", "init22": "g;2,2"}


def _input(report: BuildReport, name: str) -> list[tuple[str, Jet | SliceJet]]:
    """The jets or slices of the report's input `name`, each with the metric
    slot it gives where it gives one: a prescribed value (a table's every
    entry), "free symbols" (the free functions of Christoffel slots),
    "initial slices", a free-function slot ("g;1,1") or "phi", the gauge
    function (none when it is not given)."""
    fd = report.free_data
    if name in report.prescribed:
        value = report.prescribed[name]
        if isinstance(value, Connection):
            return [(name, jet) for jet in value.gamma.values()]
        if isinstance(value, Bilinear):
            return [(name, jet) for jet in value.comps.values()]
        return [(_METRIC_INPUTS.get(name, name), value)]
    if name == "free symbols":
        free = fd.free_functions.items()
        return [(slot, jet) for slot, jet in free if parse_slot(slot)[0] != "g"]
    if name == "initial slices":
        return list(fd.initial_slices.items())
    if name == "phi":
        return [] if fd.gauge_function is None else [(name, fd.gauge_function)]
    return [(name, fd.free_functions[name])]


def _workspaces(value) -> set[tuple[int, int]]:
    """The (n, D) of a jet, of a slice (its ambient n) or of a table, whose
    own n counts next to that of its jets."""
    if isinstance(value, SliceJet):
        return {(value.ambient_n, value.max_degree)}
    if isinstance(value, Jet):
        return {(value.n, value.max_degree)}
    return {value.shape, (value.n, value.shape[1])}


def _values(report: BuildReport) -> list[tuple[str, str, object]]:
    """(part, name, value) of every value of a report: its prescribed
    values, its free data (free functions, initial slices and the gauge
    function "phi", by slot) and its outputs."""
    fd, free = report.free_data, []
    if fd is not None:
        free = [*fd.free_functions.items(), *fd.initial_slices.items()]
        free += [] if fd.gauge_function is None else [("phi", fd.gauge_function)]
    values = [("prescribed", *item) for item in report.prescribed.items()]
    values += [("free data", *item) for item in free]
    values += [("output", *item) for item in (report.outputs or {}).items()]
    return values


def _admit(report: BuildReport):
    """Admit a report, raising at the first of these rules it breaks:
    1. its n meets its construction's dimension rule (RejectionError
       unsupported-construction; ValueError for an unknown construction);
    2. its prescribed values, and its outputs unless it is a build before
       its solve, are exactly its construction's, by name and type (a metric
       stored as a bilinear table is not one; ValueError);
    3. it carries free data exactly when its construction has a census, and
       the free data fills exactly the census slots (RejectionError
       slot-mismatch);
    4. every jet, slice and table of it lives in workspace (n, D)
       (RejectionError slot-mismatch for the free data,
       DimensionMismatchError for the rest);
    5. the metric entries its inputs give hold delta_ij at the origin
       (normalization-violated), and each input is valid to the order the
       solve reads it to (the rule's reason), rules in record order.
    Each builder admits the report it starts and `verify` the report it
    reads; what runs after reads the report's values unchecked."""
    rec = _record(report.construction, report.n)
    if rec is None:
        raise ValueError(f"unknown construction {report.construction!r}")
    parts = [("prescribed", report.prescribed, rec.prescribed)]
    if report.outputs is not None:
        parts.append(("outputs", report.outputs, rec.outputs))
    for part, values, want in parts:
        if set(values) != set(want):
            raise ValueError(
                f"{part} {sorted(values)} of a {report.construction} report, "
                f"expected {sorted(want)}"
            )
        for name, cls in want.items():
            if not isinstance(values[name], cls):
                raise ValueError(
                    f"{part} {name!r} of a {report.construction} report is a "
                    f"{type(values[name]).__name__}, not a {cls.__name__}"
                )

    fd = report.free_data
    if (fd is not None) != rec.free_data:
        need = "needs" if rec.free_data else "takes no"
        raise RejectionError("slot-mismatch", f"a {report.construction} report {need} free data")
    if fd is not None:
        cen = census(report.construction, report.n)
        wanted = set(cen.free_function_slots) - {"phi"}
        if set(fd.free_functions) != wanted:
            raise RejectionError(
                "slot-mismatch",
                f"free-function slots {sorted(fd.free_functions)} do not match the "
                f"census {sorted(wanted)}",
            )
        if set(fd.initial_slices) != set(cen.initial_slice_slots):
            raise RejectionError(
                "slot-mismatch",
                f"initial-slice slots {sorted(fd.initial_slices)} do not match the "
                f"census {sorted(cen.initial_slice_slots)}",
            )
        if fd.gauge_function is not None and "phi" not in cen.free_function_slots:
            raise RejectionError("slot-mismatch", f"{cen.construction} takes no gauge function")

    declared = (report.n, report.max_degree)
    for part, name, value in _values(report):
        shapes = _workspaces(value) - {declared}
        if shapes:
            message = (
                f"{part} {name!r} lives in workspace (n, D) = {min(shapes)}, the report "
                f"declares {declared}"
            )
            if part == "free data":
                raise RejectionError("slot-mismatch", message)
            raise DimensionMismatchError(message)

    for name in rec.normal:
        for slot, value in _input(report, name):
            normal = _slot_normal_value(slot)
            if value.constant_term != normal:
                message = f"{slot} must be {normal} at the origin"
                raise RejectionError("normalization-violated", message)
    for name, below, reason in rec.exact:
        order = report.max_degree - below
        valid = min((value.valid_order for _, value in _input(report, name)), default=order)
        if valid < order:
            raise RejectionError(
                reason, f"{name} is valid to order {valid}, the solve reads it to {order}"
            )


def _initial_slices(report: BuildReport, order: int) -> bool:
    # the 2D statistical builds take their slices as prescribed inputs
    names = ("init12", "init22") if "init12" in report.prescribed else ("initial slices",)
    slices = [entry for name in names for entry in _input(report, name)]
    out = report.outputs
    return all(_slot_output(out, slot).restrict_x1().same_payload(sl) for slot, sl in slices)


def _free_functions(report: BuildReport, order: int) -> bool:
    return all(
        _slot_output(report.outputs, slot).same_payload(jet)
        for slot, jet in report.free_data.free_functions.items()
    )


# cheapest first: `verify` runs a report's required checks in this order
# and stops at the first that fails
_CHECKS = {
    "metric-normalized-at-zero": _metric_normalized_at_zero,
    "connection-symmetric": _connection_symmetric,
    "initial-slices": _initial_slices,
    "free-functions": _free_functions,
    "torsion-trace-zero": _torsion_trace_zero,
    "volume-determinant": _volume_determinant,
    "codazzi": _codazzi,
    "ricci-residual": _ricci_residual,
    "metric-ricci-residual": _metric_ricci_residual,
}


def _required_checks(report: BuildReport) -> list[tuple[str, int]]:
    plan, cap = _CONSTRUCTIONS[report.construction].checks, report.max_degree
    return [(name, 0 if below is None else cap - below) for name, below in plan]


def _run_checks(report: BuildReport, order: int | None = None) -> list[Check]:
    """Run every required check, in the order the construction record lists
    them, at its recorded order, or all at an order override; the
    structural checks do not read the order."""
    return [
        Check(name, recorded, _CHECKS[name](report, recorded if order is None else order))
        for name, recorded in _required_checks(report)
    ]


def _checked(report: BuildReport) -> BuildReport:
    """Fill the checks of a finished build from the registry; a failed check
    is a defect of the builder, not of its input."""
    report = report._replace(checks=_run_checks(report))
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        raise RuntimeError(
            f"internal verification failed for {report.construction}: {failed}"
        )
    return report


def verify(report: BuildReport, order: int | None = None) -> bool:
    """Re-run the checks that the report's construction and degree cap D
    require. The list of checks comes from the registry, not from the report:
    a report whose recorded (name, order, passed) list differs from the
    required one, each check passed, does not verify. An order override
    (0..D) applies to the residual checks; structural checks keep their
    recorded meaning. The structural checks run first, cheapest first in
    `_CHECKS`'s order, and `verify` stops at the first check that fails; a
    residual check stops at the first component that differs (`is_ricci`,
    `is_codazzi`). The verdict is the one that running every check gives.
    Raises what `_admit` raises for a report that no build could have
    started or produced, and ValueError for an order outside 0..D."""
    _admit(report)
    if order is not None and not 0 <= order <= report.max_degree:
        raise ValueError(f"order {order} outside 0..{report.max_degree}")
    required = _required_checks(report)
    if [(c.name, c.order, c.passed) for c in report.checks] != [(*c, True) for c in required]:
        return False
    orders = dict(required)
    return all(
        check(report, orders[name] if order is None else order)
        for name, check in _CHECKS.items()
        if name in orders
    )


def _same_value(a, b) -> bool:
    """Whether two report values are the same: the same type (a Metric is
    not a Bilinear), and a jet or slice of the same payload (shape, valid
    order and coefficients), or a table of the same key set (which fixes
    its n) and entries, a connection with the same symmetric flag too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Jet, SliceJet)):
        return a.same_payload(b)
    if isinstance(a, Connection):
        if a.symmetric != b.symmetric:
            return False
        a, b = a.gamma, b.gamma
    else:
        a, b = a.comps, b.comps
    return a.keys() == b.keys() and all(a[key].same_payload(b[key]) for key in a)


def verify_read_back(built: BuildReport, read: BuildReport) -> bool:
    """Whether `read`, the report read back from the bytes written for
    `built`, a build whose checks passed, holds that build: `read` is
    admitted (raising what `_admit` raises) and must match `built` in its
    construction, n, D and check list, in which prescribed values, free data
    and outputs it carries, and in every value (`_same_value`). Every check
    is a function of a report's values alone, so a read-back that matches
    passes the checks `built` passed, and none is run again."""
    _admit(read)
    a, b = ({(part, name): v for part, name, v in _values(r)} for r in (built, read))
    return (
        built.construction == read.construction
        and (built.n, built.max_degree, built.checks) == (read.n, read.max_degree, read.checks)
        and (built.free_data is None) == (read.free_data is None)
        and a.keys() == b.keys()
        and all(_same_value(a[key], b[key]) for key in a)
    )


# ---------------------------------------------------------------------------
# equation rows and the one first-order CK solve


class _Row(NamedTuple):
    """The sum of linear atoms c * table[key], derivative atoms
    c * (table[key])_axis and product atoms c * table[x] * table[y] over one
    table of jets; an equation row states that the sum vanishes."""

    linear: tuple[tuple[int, object], ...] = ()
    derivatives: tuple[tuple[int, object, int], ...] = ()
    products: tuple[tuple[int, object, object], ...] = ()


def _bump(counter: dict, key, delta: int):
    counter[key] = counter.get(key, 0) + delta


def _atoms(counter: dict) -> tuple:
    """The (coefficient, *key) atoms of a counter, cancelled terms dropped."""
    return tuple((c, *key) for key, c in counter.items() if c)


def _x1_consumed(derivatives, fixed: Mapping) -> list:
    """The entries whose x1-derivatives the derivative atoms take though
    they are not fixed before the solve."""
    return [atom for _, atom, ax in derivatives if ax == 1 and atom not in fixed]


def _ck_rows(equations: Mapping, fixed: Mapping) -> dict:
    """Each unknown key's row as (sign, rest) with (u)_1 = sign * rest: the row
    must hold the unknown's x1-derivative with coefficient -sign = +-1, and
    the rest may take x1-derivatives only of keys fixed before the solve."""
    rests = {}
    for key, row in equations.items():
        kept = [c for c, atom, ax in row.derivatives if (atom, ax) == (key, 1)]
        rest = tuple(d for d in row.derivatives if (d[1], d[2]) != (key, 1))
        consumed = _x1_consumed(rest, fixed)
        if kept not in ([1], [-1]) or consumed:
            raise AssertionError(
                f"the row of {key} holds its x1-derivative with coefficients "
                f"{kept} and consumes the x1-derivatives of {consumed}"
            )
        rests[key] = (-kept[0], _Row(row.linear, rest, row.products))
    return rests


def _terms(row: _Row, table: Mapping) -> tuple:
    """The row's products, linear and derivative atoms on the table, as the
    terms of `jets._accumulate`."""
    return (
        [(c, table[x], table[y]) for c, x, y in row.products],
        [(c, table[key]) for c, key in row.linear],
        [(c, table[key], ax) for c, key, ax in row.derivatives],
    )


def _write_layer(jet: Jet, ranks, nums: list, den: int, valid_order: int) -> Jet:
    """jet, zero at the ranks, with the numerators nums over den written
    there. Only the layer is reduced: it is written over L, the lcm of its
    reduced denominator and jet's, and jet is rescaled only when L grows.
    The sum is then in lowest terms with no gcd over the jet: its two parts
    are reduced and disjoint, and for each p^k that exactly divides L, the
    part whose denominator holds p^k keeps a numerator prime to p, which the
    factor L / (that denominator), prime to p, leaves prime to p."""
    nums, den = _reduced(nums, den)
    common = lcm(jet.den, den)
    out = list(jet.nums) if common == jet.den else [v * (common // jet.den) for v in jet.nums]
    k = common // den
    for r, v in zip(ranks, nums):
        out[r] = k * v
    return Jet._from_nums(jet.n, jet.max_degree, tuple(out), common, valid_order)


def _padded(jet: Jet, cap: int) -> Jet:
    """jet, of a cap k <= cap, in workspace (n, cap): zero above degree k,
    valid to its own valid order (at most k)."""
    nums = jet.nums + (0,) * (mi.size(jet.n, cap) - len(jet.nums))
    return Jet._from_nums(jet.n, cap, nums, jet.den, jet.valid_order)


def _blocks(keys, rows) -> list:
    """The (keys, rows) blocks of algebraic rows linear in the keys, in
    dependency order: `jets._block_split` of the keys each row holds as the
    first factor of a product atom."""
    solved = set(keys)
    reads = [{x for _, x, _ in row.products if x in solved} for row in rows]
    return [(block, [rows[i] for i in members]) for block, members in _block_split(keys, reads)]


def _degrees(rests: Mapping, derived: Mapping, outputs, cap: int, blocks=()) -> dict:
    """The degree of each unknown, derived entry and block key by
    `_ck_solve`'s rule (0 for no reader): D for an output, else the largest
    degree its readers need, at most D, and every key of a block the largest
    degree of any of them. An entry's readers mostly come after it, so each
    pass reads the rests first, each to its unknown's degree - 1, then the
    blocks and the derived entries in reverse, a block's rows to its degree
    and a derived row to its entry's degree so far. An unknown's rest reads
    the unknowns, which come after them, so the pass is repeated, the needs
    kept, from 0 (D for an output) until no degree moves: the least degrees
    that all readers allow."""
    need: dict = {}

    def read(row, k):
        atoms = [(key, k) for _, key in row.linear]
        atoms += [(key, k + (ax > 1)) for _, key, ax in row.derivatives]
        atoms += [(key, k) for _, x, y in row.products for key in (x, y)]
        for key, d in atoms:
            need[key] = max(need.get(key, 0), d)

    def degree(key) -> int:
        return cap if key in outputs else min(need.get(key, 0), cap)

    degrees = {key: degree(key) for key in rests}
    while True:
        for key, (_, row) in rests.items():
            read(row, degrees[key] - 1)
        for keys, rows in reversed(blocks):
            k = max(map(degree, keys))
            for key in keys:
                need[key] = max(need.get(key, 0), k)
                degrees[key] = k
            for row in rows:
                read(row, k)
        for target in reversed(derived):
            degrees[target] = degree(target)
            read(derived[target], degrees[target])
        moved = {key: degree(key) for key in degrees}
        if moved == degrees:
            return degrees
        degrees = moved


def _ck_solve(
    equations: Mapping,
    fixed: Mapping,
    derived: Mapping,
    initial: Mapping,
    outputs,
    algebraic=((), ()),
) -> dict:
    """Solve the first-order CK system with one equation row per unknown key,
    from the initial slice under the same key, the row holding the unknown's
    x1-derivative with coefficient s = +-1 and no other x1-derivative but of
    the fixed keys, as (u)_1 = -s * (rest of the row) on one table: the fixed
    entries, the unknowns, each derived entry as the sum of its row on the
    entries before it, and the algebraic keys. A derived row too takes
    x1-derivatives only of the fixed keys. Return that table of the solution,
    the caller's keys only: the outputs to order D (the builders have
    required the initial slices valid to D), every other entry to its degree;
    (n, D) is the workspace of the fixed entries and the unknowns. outputs
    are the keys the caller reads back.

    algebraic is one (keys, rows) pair, as many rows as keys, of algebraic
    rows that take no x1-derivative and hold the keys only as the first
    factor of product atoms, whose second factor is a fixed key or an
    unknown: row i reads sum_j M_ij key_j + rest_i = 0. At layer 0 the solve
    splits them into blocks by the keys each row holds (`_blocks`), in an
    order where a block's rows read keys of that block and of earlier
    blocks only, so layer 0 of M, a matrix of (n - 1)-variable jets, is
    block lower triangular in block order; rows whose keys admit no
    perfect matching are singular, and fail there. Then, before any derived
    layer is written, it forms the diagonal block B of each block from the
    coefficient rows of its keys and inverts only B's constant matrix, over
    Q (`jets._linear_factor`).
    Layer t of M key_j is B (key_j layer t) plus products of layers < t of
    key_j, and the other blocks' keys and the rests are known through layer
    t. So the block rows' layer t, evaluated after the caller's derived
    entries while the keys' own layer t is still zero, is the Y of
    B X + Y = 0, and X, solved degree by degree in the n - 1 variables
    against the constant matrix (`jets._solve_linear_by_degree`, on the
    graded solve `jets._solve_graded`), is layer
    t of the keys: a forward substitution, block by block, with no jet
    inverse.

    Each entry is formed only to the degree its readers need (`_degrees`).
    An output gets D; any other unknown or derived entry gets the largest
    degree a reader needs: the reader's own, one more where it
    differentiates along an axis >= 2, at most D; the keys of a block share
    the largest degree of any of them. Layer t + 1 of an unknown of degree
    k has one degree less room than layer t, so its rest is formed to k - 1,
    and an unknown's initial slice is cut to k. An entry formed to degree k
    is written at layers 0..k only, to degree k, and an unknown is valid to
    k. A derived entry is valid to the valid order that `jets._accumulate`
    gives its layer 0, min(k, the valid order of its row's atoms), and a
    block key to the least valid order it gives the block's rows at layer
    0, their keys, still zero, counted as exact; B's entries are atoms of
    those rows. Every entry's valid order is fixed after its layer-0 write,
    and a block key's is the one an elimination of the full-size system
    gives it.

    The solution is built one x1-layer at a time: with the unknowns known
    through layer t, layer t of each derived entry and then of each block's
    keys is written from `jets._accumulate` on its rows, which reads layers
    <= t of a product's factors, layer t of a linear atom or of a derivative
    along an axis >= 2, and layer t + 1 of a fixed key under an
    x1-derivative. Layer t of each rest then needs only layers <= t of the
    table, and layer t + 1 of the unknown is -s * (that layer) / (t + 1).
    Each write reduces only the layer it writes (`_write_layer`): every
    position it writes is zero before, and a sum of reduced parts over the
    lcm of their denominators is reduced. After layers 1..D this is the
    unique truncated solution, the one that D + 1 Picard rounds of
    `ck.solve_first_order` reach, every derived entry of the caller is the
    full-size sum of its row on it and the block keys are the full-size
    elimination of their rows on it, each entry truncated to its degree."""
    rests = _ck_rows(equations, fixed)
    for target, row in derived.items():
        consumed = _x1_consumed(row.derivatives, fixed)
        if consumed:
            raise AssertionError(
                f"the derived row of {target} consumes the x1-derivatives of {consumed}"
            )
    solved = algebraic[0]
    for row in algebraic[1]:
        reads = {key for _, key in row.linear} | {y for _, _, y in row.products}
        reads |= {key for _, key, _ in row.derivatives}
        if reads.intersection(solved) or any(ax == 1 for *_, ax in row.derivatives):
            raise AssertionError(
                f"{row} is not linear in {tuple(solved)} or takes an x1-derivative"
            )
        # the layer-0 matrix is formed before any derived layer is written
        early = [y for _, _, y in row.products if y in derived]
        if early:
            raise AssertionError(f"{row} holds the derived entry {early[0]} as a factor")
    values = {key: initial[key].promote() for key in equations}
    shapes = {(jet.n, jet.max_degree) for jet in (*fixed.values(), *values.values())}
    if len(shapes) != 1:
        raise DimensionMismatchError(f"table entries in workspaces {sorted(shapes)}")
    [(n, cap)] = shapes
    valid: dict = {}
    for t in range(cap + 1):
        try:
            if t == 0:
                blocks = _blocks(*algebraic)
                degrees = _degrees(rests, derived, frozenset(outputs), cap, blocks)
                values = {
                    key: _padded(jet.truncate(degrees[key]), cap) for key, jet in values.items()
                }
                values.update((key, Jet.zero(n, cap)) for key in (*derived, *solved))
                table = {**fixed, **values}
                factors = []
                for keys, rows in blocks:
                    k = degrees[keys[0]]
                    # entry (i, j): the coefficient row of key j in row i
                    matrix = [
                        [_Row(tuple((c, y) for c, x, y in row.products if x == j)) for j in keys]
                        for row in rows
                    ]
                    entries = [
                        [_accumulate(n, *_terms(c, table), k, 0)[:2] for c in row] for row in matrix
                    ]
                    factors.append(_linear_factor(entries, n - 1, k))
            else:
                table = {**fixed, **values}
            for target, row in derived.items():
                k = degrees[target]
                if t > k:
                    continue
                nums, den, v = _accumulate(n, *_terms(row, table), k, t)
                if t == 0:
                    valid[target] = v
                table[target] = values[target] = _write_layer(
                    values[target], mi.x1_layers(n, k)[t], nums, den, valid[target]
                )
            for (keys, rows), factor in zip(blocks, factors):
                k = degrees[keys[0]]
                if t > k:
                    continue
                layers = [_accumulate(n, *_terms(row, table), k, t) for row in rows]
                if t == 0:
                    valid.update(dict.fromkeys(keys, min(v for *_, v in layers)))
                solution, den = _solve_linear_by_degree(factor, [y[:2] for y in layers], k - t)
                for key, nums in zip(keys, solution):
                    table[key] = values[key] = _write_layer(
                        values[key], mi.x1_layers(n, k)[t], nums, den, valid[key]
                    )
            if t == cap:
                return table
            sums = {
                key: _accumulate(n, *_terms(row, table), degrees[key] - 1, t)
                for key, (_, row) in rests.items()
                if t < degrees[key]
            }
        except Exception as err:
            raise EvaluationError(f"right-hand side failed at x1-layer {t}: {err}") from err
        for key, (nums, den, _) in sums.items():
            # layer t + 1 = sign * (layer t to degree k - 1) / (den * (t + 1))
            sign, k = rests[key][0], degrees[key]
            values[key] = _write_layer(
                values[key], mi.x1_layers(n, k)[t + 1], [sign * v for v in nums], den * (t + 1), k
            )


# ---------------------------------------------------------------------------
# prescribed Ricci: one spec per torsion regime, one row generator, one builder


class _RicciSpec(NamedTuple):
    """How Ric(conn) = r becomes a CK system. Table keys are `_canon`'s. An
    equation is (the Ricci component (a, b) it uses, the unknown whose
    x1-derivative it isolates); a substitution expresses a determined symbol
    as (sign, atom) terms over other keys and the prescribed divergence jets
    ("d", k)."""

    symmetric: bool
    equations: tuple[tuple[tuple[int, int], tuple[int, int, int]], ...]
    substitutions: dict[tuple[int, int, int], tuple[tuple[int, object], ...]]


def _ricci_spec(construction: str, n: int) -> _RicciSpec:
    rng = range(1, n + 1)
    if construction == "torsion-free":
        # rows (1,1), (1,j) and (i,j) with 1 < i <= j; the (1,j) rows use Ric_j1
        equations = [((1, 1), (2, 1, 2))]
        equations += [((j, 1), (1, 1, j)) for j in range(2, n + 1)]
        equations += [((i, j), (1, i, j)) for i in range(2, n + 1) for j in range(i, n + 1)]
        # divergence form D_k = sum_l G^l_lk solved for G^1_11 and G^k_kk
        subs = {
            (k, k, k): ((1, ("d", k)),)
            + tuple((-1, _canon(True, l, l, k)) for l in rng if l != k)
            for k in rng
        }
        return _RicciSpec(True, tuple(equations), subs)
    if construction not in ("general", "trace-free-torsion"):
        raise RejectionError(
            "unsupported-construction", f"{construction} is not a prescribed-Ricci construction"
        )
    equations = [((1, j), (n, n, j)) for j in rng]
    equations += [((i, j), (1, i, j)) for i in range(2, n + 1) for j in rng]
    subs = {}
    if construction == "trace-free-torsion":
        # tau_k = sum_i (G^i_ik - G^i_ki) = 0 solved for G^{i0}_{k,i0}
        for k in rng:
            i0 = k + 1 if k < n else n - 1
            subs[(i0, k, i0)] = tuple((1, (i, i, k)) for i in rng) + tuple(
                (-1, (i, k, i)) for i in rng if i != i0
            )
    return _RicciSpec(False, tuple(equations), subs)


def _ricci_rows(spec: _RicciSpec, n: int) -> dict[tuple[int, int, int], _Row]:
    """The row Ric_ab - r_ab = 0 of each equation, keyed by its unknown: the
    derivative terms of `geometry.ricci` with the determined symbols
    substituted and cancelled, and its quadratic terms as the n^2 products
    of sum_l G^l_ab E^a_l - sum_{k != a} sum_l G^l_kb G^k_al over the
    canonical keys and the divergence entries ("div", a, l) = E^a_l =
    sum_{k != a} G^k_kl, (x, y) and (y, x) folded into one atom. The k = a
    terms of sum_l G^l_ab D_l - sum_{k,l} G^l_kb G^k_al, with D_l =
    sum_k G^k_kl, are the same product and cancel, so they are not formed
    (`tests/oracles.py` keeps the uncancelled form)."""
    rng, canon = range(1, n + 1), partial(_canon, spec.symmetric)
    rows = {}
    for (a, b), unknown in spec.equations:
        counter: dict = {}
        for k in rng:
            _bump(counter, (canon(k, a, b), k), 1)
            _bump(counter, (canon(k, k, b), a), -1)
        expanded: dict = {}
        for (sym, ax), c in counter.items():
            for sign, atom in spec.substitutions.get(sym, ((1, sym),)):
                _bump(expanded, (atom, ax), c * sign)
        products: dict = {}
        for l in rng:
            _bump(products, (canon(l, a, b), ("div", a, l)), 1)
            for k in rng:
                if k != a:
                    x, y = canon(l, k, b), canon(k, a, l)
                    _bump(products, (min(x, y), max(x, y)), -1)
        rows[unknown] = _Row(((-1, ("r", a, b)),), _atoms(expanded), _atoms(products))
    return rows


def build_prescribed_ricci(construction: str, r: Bilinear, fd: FreeData) -> BuildReport:
    """Connection with prescribed Ricci tensor r in one torsion regime:
    "general", "trace-free-torsion" (n >= 3) or "torsion-free". The
    torsion-free regime accepts r iff its antisymmetric part is closed, and a
    primitive plus the gauge gradient fixes the divergence functions. The
    determined symbols are substituted, and the CK system isolating one
    x1-derivative per Ricci equation is solved. Its rows (`_ricci_rows`)
    form the n^2 quadratic products of Ric_ab over the derived entries
    ("div", a, l) = E^a_l = sum_{k != a} G^k_kl, one for each first Ricci
    index a of an equation and each l, since the k = a terms of sum_l
    G^l_ab D_l - sum_{k,l} G^l_kb G^k_al cancel (`tests/oracles.py` keeps
    the uncancelled form)."""
    n = r.n
    _, cap = r.shape
    _record(construction, n)
    spec = _ricci_spec(construction, n)
    if spec.symmetric:
        try:
            alpha0 = primitive_of_two_form(split(r)[1])
        except NotClosedError as err:
            raise RejectionError(
                "antisymmetric-part-not-closed",
                f"antisymmetric part of the prescribed tensor: {err}",
            ) from None
    report = BuildReport(construction, n, cap, {"r": r}, fd, None, [])
    _admit(report)
    known = _keyed(fd.free_functions)
    known.update({("r", *pair): jet for pair, jet in r.comps.items()})
    if spec.symmetric:
        phi = fd.gauge_function if fd.gauge_function is not None else Jet.zero(n, cap)
        for k in range(1, n + 1):
            known[("d", k)] = alpha0.comp(k) + phi.partial(k)
    # the determined symbols, then the divergence entries E^a_l of the
    # products, one per first Ricci index a of an equation
    canon, rng = partial(_canon, spec.symmetric), range(1, n + 1)
    derived = {target: _Row(terms) for target, terms in spec.substitutions.items()}
    for a in sorted({a for (a, _), _ in spec.equations}):
        for l in rng:
            derived[("div", a, l)] = _Row(tuple((1, canon(k, k, l)) for k in rng if k != a))
    keys = {key: canon(*key) for key in _all_gamma_keys(n)}
    rows, initial = _ricci_rows(spec, n), _keyed(fd.initial_slices)
    table = _ck_solve(rows, known, derived, initial, set(keys.values()))
    gamma = {key: table[c] for key, c in keys.items()}
    connection = Connection(n, gamma, symmetric=spec.symmetric)
    return _checked(report._replace(outputs={"connection": connection}))


def build_prescribed_ricci_general(r: Bilinear, fd: FreeData) -> BuildReport:
    """Connection with prescribed Ricci tensor and unconstrained torsion."""
    return build_prescribed_ricci("general", r, fd)


def build_prescribed_ricci_trace_free_torsion(r: Bilinear, fd: FreeData) -> BuildReport:
    """Connection with prescribed Ricci tensor and vanishing torsion trace
    (needs n >= 3)."""
    return build_prescribed_ricci("trace-free-torsion", r, fd)


def build_prescribed_ricci_torsion_free(r: Bilinear, fd: FreeData) -> BuildReport:
    """Torsion-free connection with prescribed Ricci tensor."""
    return build_prescribed_ricci("torsion-free", r, fd)


# ---------------------------------------------------------------------------
# 2D metric with prescribed Ricci tensor (one scalar second-order equation,
# linear in u = log(h / h(0)) / 2, solved as a first-order system)


def build_metric_2d_prescribed_ricci(
    r: Bilinear, phi: SliceJet, psi: SliceJet
) -> BuildReport:
    """2D metric g = h r with Ricci tensor equal to the prescribed diagonal
    nondegenerate r = diag(E, G). In 2D Ric_g = K_g g, so Ric_g = r exactly
    when h K_g = 1, and with h = c e^(2u), c = h(0) = phi(0) != 0,
    K_g = (K_r - Delta_r u) / h (Kazdan-Warner), that is the one scalar
    equation

        Delta_r u = K_r - 1,

    linear in u. Multiplied by E it reads

        (u)_11 = b - a (u)_22 + e (u)_1 + f (u)_2,

    with the fixed entries a = E/G, b = E (K_r - 1), e = E r^ij Gamma(r)^1_ij
    and f = E r^ij Gamma(r)^2_ij, in closed form for an orthogonal r from the
    logarithmic derivatives u_i = E_i/E and v_i = G_i/G (subscripts are
    partial derivatives):

        e = (u1 - v1) / 2,   f = a (v2 - u2) / 2,
        4 K_r E G = -2 (E_22 + G_11) + E_2 (u2 + v2) + G_1 (u1 + v1)
                                                  (Brioschi's formula).

    They are formed by `product_sum` from r, its partials and the two
    reciprocals to D - 2, the degree of p's rest, their one reader; no
    `geometry` tensor routine is called, so the metric-ricci-residual check
    stays independent of the equation. `_ck_solve` solves the first-order
    system of h and the log-derivatives p = (h)_1 / (2h) = (u)_1 and
    w = (h)_2 / (2h) = (u)_2,

        (h)_1 = 2 p h,   (p)_1 = b - a (w)_2 + e p + f w,   (w)_1 = (p)_2,

    from the slices phi, psi / (2 phi) and (phi)_2 / (2 phi), the last two
    one-variable jets formed to D - 1, the degree of p and w. Its one
    nonlinear term is p h, and it takes no reciprocal. For any coefficients,
    h = c e^(2u) solves the second-order equation
    h Delta_r h - |dh|^2_r = 2 (K_r - 1) h^2 exactly when u solves the linear
    one, and the slices are those of h = phi, (h)_1 = psi, so h is the unique
    truncated solution, the one that `ck.solve_second_order` gives on that
    equation, bit for bit."""
    _record("metric-2d", r.n)
    _, cap = r.shape
    E, G = r.comp(1, 1), r.comp(2, 2)
    if not (r.comp(1, 2).is_zero() and r.comp(2, 1).is_zero()):
        raise RejectionError(
            "prescribed-tensor-not-diagonal", "r must be diagonal in these coordinates"
        )
    if E.constant_term == 0 or G.constant_term == 0:
        raise RejectionError(
            "degenerate-prescribed-tensor", "r must be nondegenerate at the origin"
        )
    if phi.constant_term == 0:
        raise RejectionError(
            "initial-value-vanishes", "the initial slice for h must not vanish at 0"
        )
    report = BuildReport("metric-2d", 2, cap, {"r": r, "phi": phi, "psi": psi}, None, None, [])
    _admit(report)
    k = max(cap - 2, 0)
    form = partial(product_sum, cap=k)
    E1, E2, G1, G2 = E.partial(1), E.partial(2), G.partial(1), G.partial(2)
    iE, iG = E.truncate(k).reciprocal(), G.truncate(k).reciprocal()
    a = form(((1, E, iG),))
    u1, u2, v1, v2 = (form(((1, x, y),)) for x, y in ((E1, iE), (E2, iE), (G1, iG), (G2, iG)))
    # 4 K_r E G
    kg = form(((1, E2, u2 + v2), (1, G1, u1 + v1)), derivatives=((-2, E2, 2), (-2, G1, 1)))
    fixed = {
        "a": a,
        "b": form(((1, kg, iG),), linear=((-4, E),)).scale(Fraction(1, 4)),
        "e": (u1 - v1).scale(HALF),
        "f": form(((1, a, v2 - u2),)).scale(HALF),
    }
    fixed = {key: _padded(jet, cap) for key, jet in fixed.items()}
    top = max(cap - 1, 0)
    iphi = phi.jet.truncate(top).reciprocal()
    initial = {"h": phi} | {
        key: SliceJet(_padded(product_sum(((1, x, iphi),), cap=top).scale(HALF), cap))
        for key, x in (("p", psi.jet), ("w", phi.jet.partial(1)))
    }
    equations = {
        "h": _Row(derivatives=((-1, "h", 1),), products=((2, "p", "h"),)),
        "p": _Row(
            ((1, "b"),), ((-1, "p", 1),), ((-1, "a", "(w)_2"), (1, "e", "p"), (1, "f", "w"))
        ),
        "w": _Row(derivatives=((-1, "w", 1), (1, "p", 2))),
    }
    derived = {"(w)_2": _Row(derivatives=((1, "w", 2),))}
    h = _ck_solve(equations, fixed, derived, initial, {"h"})["h"]
    metric = Metric(2, {(1, 1): E * h, (1, 2): Jet.zero(2, cap), (2, 2): G * h})
    return _checked(report._replace(outputs={"metric": metric, "conformal_factor": h}))


# ---------------------------------------------------------------------------
# statistical structures: one Codazzi gap, one CK assembly and solve


class _CodazziSpec(NamedTuple):
    """The Codazzi system of a statistical structure in dimension n. Each
    metric unknown ("g", a, b) (a <= b, (a, b) != (1, 1)) takes its
    x1-derivative from gap (1, b, a). The determined symbols (t, i, j) are the
    columns and the gaps the rows of the jet-linear algebraic system, empty
    for n = 2."""

    unknowns: tuple[tuple[str, int, int], ...]
    determined: tuple[tuple[int, int, int], ...]
    gaps: tuple[tuple[int, int, int], ...]


def _codazzi_spec(n: int) -> _CodazziSpec:
    """The Codazzi system in dimension n, `determined` in the order `census`
    lists the slots. The gaps are the algebraic rows, as many as the
    determined symbols, each listed next to the symbols of the lower index
    pair it holds: gaps (j, k, 1), (i, j, i) and (i, j, k) with
    2 <= i < k. `_ck_solve` splits rows and symbols into blocks by
    structure (`_blocks`)."""
    top = range(2, n + 1)
    unknowns = [("g", i, j) for i, j in _pairs(n)[1:]]  # all but g_11
    # lower (1, k), upper t > k; gap (t, k, 1)
    determined = [(t, 1, k) for k in top for t in range(k + 1, n + 1)]
    gaps = [(j, k, 1) for k in top for j in range(k + 1, n + 1)]
    # lower (i, i), upper t >= 2, t != i; gap (i, t, i)
    determined += [(t, i, i) for i in top for t in top if t != i]
    gaps += [(i, j, i) for i in top for j in top if j != i]
    # lower (i, k) with i < k, upper t > i, t != k; gap (i, t, k), but the
    # rows run over t before k
    determined += [
        (t, i, k)
        for i in top
        for k in range(i + 1, n + 1)
        for t in range(i + 1, n + 1)
        if t != k
    ]
    gaps += [
        (i, j, k)
        for i in top
        for j in range(i + 1, n + 1)
        for k in range(i + 1, n + 1)
        if k != j
    ]
    return _CodazziSpec(tuple(unknowns), tuple(determined), tuple(gaps))


def _codazzi_gap(i: int, j: int, k: int, n: int, symmetric: bool) -> _Row:
    """The Codazzi gap (nabla g)_ijk - (nabla g)_jik,

        (g_jk)_i - (g_ik)_j - sum_l (G^l_ij - G^l_ji) g_lk
                 - sum_l G^l_ik g_jl + sum_l G^l_jk g_il,

    as a row over `_canon`'s keys: derivative atoms (sign, g-key, axis) and
    product atoms (coefficient, symbol key, g-key). On a symmetric table the
    torsion terms cancel here."""
    g = partial(_canon, True, "g")
    products: dict = {}
    for l in range(1, n + 1):
        _bump(products, (_canon(symmetric, l, i, j), g(l, k)), -1)
        _bump(products, (_canon(symmetric, l, j, i), g(l, k)), 1)
        _bump(products, (_canon(symmetric, l, i, k), g(j, l)), -1)
        _bump(products, (_canon(symmetric, l, j, k), g(i, l)), 1)
    derivatives = ((1, g(j, k), i), (-1, g(i, k), j))
    return _Row(derivatives=derivatives, products=_atoms(products))


def solve_determined_christoffels(
    n: int,
    gtable: Mapping[tuple, Jet],
    free_gammas: Mapping[tuple, Jet],
    determined_keys: list,
) -> dict:
    """Solve the algebraic Codazzi gaps on the metric table (keys ("g", i, j))
    for the determined Christoffel symbols (keys (t, i, j)): the algebraic
    rows of `build_statistical_nd`, solved by one `_ck_solve` with no equations over
    the given tables. No build calls it; it stays only because the
    benchmark's tracing looks it up by name for its `builders.det_solve`
    span."""
    gaps = [_codazzi_gap(*gap, n, True) for gap in _codazzi_spec(n).gaps]
    algebraic = (determined_keys, gaps)
    table = _ck_solve({}, {**gtable, **free_gammas}, {}, {}, set(determined_keys), algebraic)
    return {key: table[key] for key in determined_keys}


def _codazzi_metric(
    n: int,
    symmetric: bool,
    initial: Mapping,
    fixed: Mapping,
    algebraic=((), ()),
) -> tuple[Metric, dict]:
    """The metric whose unknowns solve the CK rows of the Codazzi gap from the
    initial slices, and its table with the Christoffel symbols. g11 is fixed
    or an algebraic key, which the solve writes at every x1-layer."""
    unknowns = _codazzi_spec(n).unknowns
    rows = {key: _codazzi_gap(1, key[2], key[1], n, symmetric) for key in unknowns}
    # the algebraic keys are outputs too: g11, or the symbols of the connection
    outputs = {("g", *pair) for pair in _pairs(n)} | set(algebraic[0])
    table = _ck_solve(rows, fixed, {}, initial, outputs, algebraic)
    return Metric(n, {pair: table[("g", *pair)] for pair in _pairs(n)}), table


def _codazzi_metric_2d(
    conn: Connection, init12: SliceJet, init22: SliceJet, given: Mapping, algebraic=((), ())
) -> Metric:
    """The 2D Codazzi metric of a given connection, with the given entries
    (g11, or nu^2 for the algebraic row of g11) fixed next to its symbols."""
    symmetric = conn.is_symmetric_table()
    fixed = {_canon(symmetric, *key): jet for key, jet in conn.gamma.items()}
    initial = {("g", 1, 2): init12, ("g", 2, 2): init22}
    return _codazzi_metric(2, symmetric, initial, {**fixed, **given}, algebraic)[0]


def build_statistical_2d(
    conn: Connection, g11: Jet, init12: SliceJet, init22: SliceJet
) -> BuildReport:
    """2D metric making the cubic form of an arbitrary analytic connection
    symmetric: g11 is free, g12 and g22 solve a first-order CK system. D is
    init12's, so admission names a connection in another workspace."""
    cap = init12.max_degree
    prescribed = {"connection": conn, "g11": g11, "init12": init12, "init22": init22}
    report = BuildReport("statistical-2d", conn.n, cap, prescribed, None, None, [])
    _admit(report)
    metric = _codazzi_metric_2d(conn, init12, init22, {("g", 1, 1): g11})
    return _checked(report._replace(outputs={"metric": metric}))


def build_trace_free_statistical_2d(
    conn: Connection, init12: SliceJet, init22: SliceJet
) -> BuildReport:
    """Trace-free variant: the parallel volume form of the connection pins
    det g = nu^2, so only two one-variable slices remain free. The row
    g11 g22 - g12^2 - nu^2 = 0 is linear in g11, and the solve writes it as a
    one-key block at every x1-layer. Requires symmetric Ricci."""
    _record("trace-free-statistical-2d", conn.n)
    if not conn.is_symmetric_table():
        raise RejectionError("connection-not-symmetric", "needs a torsion-free input")
    cap = init12.max_degree  # D is init12's, as in build_statistical_2d
    prescribed = {"connection": conn, "init12": init12, "init22": init22}
    report = BuildReport("trace-free-statistical-2d", 2, cap, prescribed, None, None, [])
    _admit(report)
    volume = parallel_volume_2d(conn)  # rejects when Ricci is not symmetric
    det = _Row(((-1, "nu^2"),), (), ((1, ("g", 1, 1), ("g", 2, 2)), (-1, ("g", 1, 2), ("g", 1, 2))))
    given = {"nu^2": volume * volume}
    metric = _codazzi_metric_2d(conn, init12, init22, given, ([("g", 1, 1)], [det]))
    return _checked(report._replace(outputs={"metric": metric, "volume": volume}))


def build_statistical_nd(n: int, fd: FreeData) -> BuildReport:
    """Statistical structure in dimension n >= 3: the metric components solve
    the CK rows of the Codazzi gap while the solve writes, at every x1-layer,
    that layer of the determined Christoffel symbols from the blocks of the
    algebraic gaps, each block solved degree by degree against the inverse
    of its constant matrix, with no jet inverse."""
    _record("statistical", n)
    g11 = fd.free_functions.get(metric_slot(1, 1))
    if g11 is None:
        raise RejectionError("slot-mismatch", "missing the g;1,1 slot")
    cap = g11.max_degree
    report = BuildReport("statistical", n, cap, {}, fd, None, [])
    _admit(report)
    spec = _codazzi_spec(n)
    gaps = [_codazzi_gap(*gap, n, True) for gap in spec.gaps]
    fixed, initial = _keyed(fd.free_functions), _keyed(fd.initial_slices)
    metric, table = _codazzi_metric(n, True, initial, fixed, (spec.determined, gaps))
    connection = Connection.from_symmetric(n, table)
    return _checked(report._replace(outputs={"connection": connection, "metric": metric}))


# ---------------------------------------------------------------------------
# seeded tables and round-trip data (also used by the CLI's round-trip mode)


def _draw(rng: random.Random, n: int, cap: int, degree: int, bound: int) -> Jet:
    """One seeded polynomial: the rule every seeded table, free datum and
    random scenario jet is drawn by."""
    return random_poly(rng.randrange(2**32), n, degree, bound, cap)


def _draws(rng: random.Random, keys, n: int, cap: int, degree: int, bound: int) -> dict:
    """One `_draw` per key, in key order."""
    return {key: _draw(rng, n, cap, degree, bound) for key in keys}


def random_connection(seed: int, n: int, cap: int, degree: int, bound: int) -> Connection:
    return Connection(n, _draws(random.Random(seed), _all_gamma_keys(n), n, cap, degree, bound))


def random_symmetric_connection(
    seed: int, n: int, cap: int, degree: int, bound: int
) -> Connection:
    lower = _draws(random.Random(seed), _all_pair_keys(n), n, cap, degree, bound)
    return Connection.from_symmetric(n, lower)


def random_trace_free_connection(
    seed: int, n: int, cap: int, degree: int, bound: int
) -> Connection:
    """Random table whose torsion trace vanishes identically: free and
    CK-unknown slots are random, the trace-equation slots are solved."""
    gamma = dict(random_connection(seed, n, cap, degree, bound).gamma)
    for target, terms in _ricci_spec("trace-free-torsion", n).substitutions.items():
        gamma[target] = product_sum(linear=[(c, gamma[key]) for c, key in terms])
    return Connection(n, gamma)


def random_normalized_metric(
    seed: int, n: int, cap: int, degree: int, bound: int
) -> Metric:
    drawn = _draws(random.Random(seed), _pairs(n), n, cap, degree, bound)
    return Metric(n, {pair: _normalized(metric_slot(*pair), jet) for pair, jet in drawn.items()})


def random_prescribed_tensor(
    construction: str, seed: int, n: int, cap: int, degree: int, bound: int
) -> Bilinear:
    """A random prescribed tensor admissible for the given construction: the
    torsion-free builder needs a closed antisymmetric part, so that part is
    produced as the antisymmetrized gradient of a random 1-form."""
    rng, args = random.Random(seed), (n, cap, degree, bound)
    if construction != "torsion-free":
        square = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        return Bilinear(n, _draws(rng, square, *args))
    sym = _draws(rng, _pairs(n), *args)
    omega = _draws(rng, range(1, n + 1), *args)
    comps = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            anti = (omega[i].partial(j) - omega[j].partial(i)).scale(HALF)
            comps[(i, j)] = sym[min(i, j), max(i, j)] + anti
    return Bilinear(n, comps)


def _free_data_of(cen: Census, outputs: Mapping, gauge: Jet | None) -> FreeData:
    """The free data of a census read off outputs by `_slot_output`, where
    the free-functions and initial-slices checks compare them."""
    free = {slot: _slot_output(outputs, slot) for slot in cen.free_function_slots if slot != "phi"}
    slices = {slot: _slot_output(outputs, slot).restrict_x1() for slot in cen.initial_slice_slots}
    return FreeData(free, slices, gauge)


def connection_round_trip_data(
    construction: str, conn: Connection
) -> tuple[Bilinear, FreeData]:
    """Extract (r, free data) from a known connection so that rebuilding
    reproduces it. For the torsion-free construction the gauge function is
    recovered as the potential of the gap between the divergence form and the
    canonical primitive of the antisymmetric Ricci part."""
    n = conn.n
    cen = census(construction, n)
    r = ricci(conn)
    gauge = None
    if construction == "torsion-free":
        anti = split(r)[1]
        alpha0 = primitive_of_two_form(anti)
        dform = divergence_form(conn)
        diff = OneForm(
            n, {k: dform.comp(k) - alpha0.comp(k) for k in range(1, n + 1)}
        )
        gauge = potential_of_one_form(diff)
    return r, _free_data_of(cen, {"connection": conn}, gauge)


def statistical_nd_round_trip_data(g0: Metric) -> tuple[Connection, FreeData]:
    """Free data extracted from (g0, levi_civita(g0)); rebuilding returns the
    pair itself because the metric is parallel for its own connection."""
    c0 = levi_civita(g0)
    cen = census("statistical", g0.n)
    return c0, _free_data_of(cen, {"connection": c0, "metric": g0}, None)


# the round-trip rules of the records: a seeded structure -> the arguments of
# the record's builder that rebuild it


def _ricci_round_trip(construction: str, conn: Connection) -> tuple:
    return (construction, *connection_round_trip_data(construction, conn))


def _statistical_round_trip(construction: str, g0: Metric) -> tuple:
    return g0.n, statistical_nd_round_trip_data(g0)[1]


def _statistical_2d_round_trip(construction: str, g0: Metric) -> tuple:
    """The prescribed values of a 2D statistical construction that rebuild
    (g0, levi_civita(g0)): the connection, and g0's entries as g11 and the
    initial slices, those the record prescribes in its order."""
    values = {
        "connection": levi_civita(g0),
        "g11": g0.comp(1, 1),
        "init12": g0.comp(1, 2).restrict_x1(),
        "init22": g0.comp(2, 2).restrict_x1(),
    }
    return tuple(values[name] for name in _CONSTRUCTIONS[construction].prescribed)
