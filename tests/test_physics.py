"""Self-tests of the exact-physics oracle in ``physics.py``."""

import random

import pytest

from physics import (
    cuts_with_first,
    expectation,
    largest_schmidt_sq,
    reduced,
    state_vector,
)
from stabwitness.groups import build_color_code, span_group


@pytest.fixture(scope="module")
def color_texts():
    return [g.to_text() for g in build_color_code().generators]


@pytest.fixture(scope="module")
def color_state(color_texts):
    return state_vector(color_texts, [1] * len(color_texts), random.Random(7))


def test_each_generator_reads_its_sign(color_texts):
    rng = random.Random(11)
    for _ in range(4):
        signs = [rng.choice((1, -1)) for _ in color_texts]
        state = state_vector(color_texts, signs, rng)
        for text, sign in zip(color_texts, signs):
            assert sign * expectation(state, text) == pytest.approx(1.0, abs=1e-12)


def test_every_member_reads_plus_or_minus_one(color_state):
    members = [p.to_text() for p in span_group(build_color_code()).elements]
    assert len(members) == 128
    values = {text: expectation(color_state, text) for text in members}
    for value in values.values():
        assert abs(value) == pytest.approx(1.0, abs=1e-12)
    # the +1 generators fix the signs of the other members: 84 read -1
    assert sum(value < 0 for value in values.values()) == 84
    assert values["ZYYZXXI"] == pytest.approx(-1.0, abs=1e-12)


def test_a_pauli_outside_the_group_reads_zero(color_state):
    members = {p.to_text() for p in span_group(build_color_code()).elements}
    rng = random.Random(3)
    outside = ["XIIIIII", "IIIIIIZ", "YYIIIII"]
    while len(outside) < 20:
        text = "".join(rng.choice("IXYZ") for _ in range(7))
        if text not in members:
            outside.append(text)
    for text in outside:
        assert text not in members
        assert expectation(color_state, text) == pytest.approx(0.0, abs=1e-12)


def test_reduced_state_has_unit_trace(color_state):
    rho = reduced(color_state, (2, 5, 7))
    assert sum(rho[i][i] for i in range(len(rho))) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "texts, expected",
    [
        (["XX", "ZZ"], 0.5),  # a Bell pair
        (["ZI", "IX"], 1.0),  # a product state
        (["XXX", "ZZI", "IZZ"], 0.5),  # GHZ on three qubits
    ],
)
def test_largest_schmidt_sq_of_known_states(texts, expected):
    state = state_vector(texts, [1] * len(texts), random.Random(0))
    for cut in cuts_with_first(len(texts[0])):
        assert largest_schmidt_sq(state, cut) == pytest.approx(expected, abs=1e-12)


def test_cuts_with_first_name_each_bipartition_once():
    assert list(cuts_with_first(3)) == [(1,), (1, 2), (1, 3)]
    assert len(list(cuts_with_first(5))) == 2 ** 4 - 1


def test_refuses_more_than_ten_qubits():
    with pytest.raises(ValueError, match="11 qubits"):
        state_vector(["Z" * 11], [1], random.Random(0))


def test_refuses_a_vanishing_projection():
    with pytest.raises(ValueError, match="vanishes"):
        state_vector(["ZI", "IZ", "ZZ"], [1, 1, -1], random.Random(0))
