"""Pinned SHA-256 of the seeded generators and of the round-trip data: for
each public function, the canonical JSON of its outputs over a few
(seed, n, D). The golden reports catch a slip in the order of the seeded
draws only at the (n, D) they build; these pins catch it in each generator,
and in the free functions and initial slices that round-trip mode reads off
a seeded structure. An intended change of a generator updates its hash."""

import hashlib

import pytest

from jetgeom import serialize
from jetgeom.builders import (
    CONSTRUCTIONS,
    _CONSTRUCTIONS,
    FreeData,
    census,
    connection_round_trip_data,
    random_connection,
    random_free_data,
    random_normalized_metric,
    random_prescribed_tensor,
    random_symmetric_connection,
    random_trace_free_connection,
    statistical_nd_round_trip_data,
    zero_free_data,
)

# (seed, n, D); the degree of the draws is min(3, D - 1), the bound 2
CASES = ((1, 2, 3), (7, 3, 3), (11, 4, 2))


def _cases(n_min: int = 2):
    for seed, n, cap in CASES:
        if n >= n_min:
            yield seed, n, cap, min(3, cap - 1), 2


def _typed(*values) -> list:
    return [
        serialize.free_data_to_json(v) if isinstance(v, FreeData)
        else serialize.typed_to_json(v)
        for v in values
    ]


def _tables(generator, n_min: int = 2) -> list:
    return [_typed(generator(*case)) for case in _cases(n_min)]


def _tensors() -> list:
    return [
        _typed(random_prescribed_tensor(tag, *case))
        for tag in ("general", "torsion-free")
        for case in _cases()
    ]


def _connection_round_trips() -> list:
    seeded = {
        "general": (random_connection, 2),
        "trace-free-torsion": (random_trace_free_connection, 3),
        "torsion-free": (random_symmetric_connection, 2),
    }
    return [
        _typed(*connection_round_trip_data(tag, generator(*case)))
        for tag, (generator, n_min) in seeded.items()
        for case in _cases(n_min)
    ]


def _statistical_round_trips() -> list:
    return [
        _typed(*statistical_nd_round_trip_data(random_normalized_metric(*case)))
        for case in _cases(3)
    ]


def _census_data(draw) -> list:
    # every census construction at n = 2..5 (the torsion-free census carries
    # the gauge slot), D = 3
    return [
        _typed(draw(census(tag, n), 100 * n + i))
        for i, tag in enumerate(CONSTRUCTIONS)
        for n in range(max(2, _CONSTRUCTIONS[tag].n_min), 6)
    ]


OUTPUTS = {
    "random_connection": lambda: _tables(random_connection),
    "random_symmetric_connection": lambda: _tables(random_symmetric_connection),
    "random_trace_free_connection": lambda: _tables(random_trace_free_connection, 3),
    "random_normalized_metric": lambda: _tables(random_normalized_metric),
    "random_prescribed_tensor": _tensors,
    "connection_round_trip_data": _connection_round_trips,
    "statistical_nd_round_trip_data": _statistical_round_trips,
    "random_free_data": lambda: _census_data(
        lambda cen, seed: random_free_data(cen, seed, 2, 3, 3)
    ),
    "zero_free_data": lambda: _census_data(lambda cen, seed: zero_free_data(cen, 3)),
}

# function -> SHA-256 of the canonical JSON of its outputs
PINS = {
    "connection_round_trip_data":
        "261c4fea517e14d06b869e271ad06d8d910631ba1f3c45ea47731c27cb809828",
    "random_connection":
        "ce49a2bf08acc6f4b5e1ed1061ee5f4f5ed2766811c6627756aa97dd8ca88890",
    "random_free_data":
        "3549331e33dc2af2a2b7a6eb198538b72d84e6935ef9ae2f6444f8fa8a04be74",
    "random_normalized_metric":
        "7975321f506b14507c1a93ed92b405360c3bc233801ebde761acf5ee9229ef4f",
    "random_prescribed_tensor":
        "84a3bf2210e1948a33f3e1c33880dc319996c99cda4adcd66d082dd86bd25363",
    "random_symmetric_connection":
        "65f4eb312847d525a22b78f10089c3385b7096de02d5370c8461359ead54205a",
    "random_trace_free_connection":
        "9c619bf24f9a400d8a44602d69d6b819eae1def9f0c5b9db6c281ceb822cda66",
    "statistical_nd_round_trip_data":
        "c557fee4d38e41ea2e8ae7aa1f05779e55112c85cf6559a7f6829842203ccd96",
    "zero_free_data":
        "6674fef8950be4e0f872773b7616ba55ad2105faecc8306fc1251d36970ab2a2",
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_seeded_outputs_match_their_pin(name):
    text = serialize.canonical_dumps(OUTPUTS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[name]
