import collections
import dataclasses
import gc
import itertools
import random
import sys
from operator import itemgetter

import pytest

from stabwitness.binary import (
    BitMatrix,
    anticommutation_mask,
    parse_pauli,
    pauli_from_row,
    pauli_row,
    rank_mod2,
    rows_rank,
    rows_rref,
    solve_mod2,
)
from stabwitness.cliffords import (
    LocalClifford,
    _map_row,
    apply,
    apply_to_generators,
    find_graph_equivalence,
    find_local_symmetries,
)
from stabwitness.graphs import (
    _connected_mask,
    graph_generators,
    is_connected_within,
    lc_orbit,
    local_complement,
    reduced_generator_subset,
)
from stabwitness.groups import (
    _qubit_mask,
    _span_rows,
    GeneratorSet,
    GeneratorSubset,
    basis_key,
    build_color_code,
    span_group,
    span_paulis,
)
from stabwitness import witnesses
from stabwitness.witnesses import (
    MalformedSubsetError,
    SubsystemClass,
    WitnessSpec,
    all_subsystems,
    check_direct,
    classify_subsystem,
    direct_census,
    enumerate_direct,
    enumerate_graph_based,
    pseudo_incidence,
    run_census,
    two_measurement_from_standard,
)

from conftest import random_graph, random_local_clifford, random_stabilizer_set
from physics import cuts_with_first, largest_schmidt_sq, state_vector
from test_binary import naive_rank, random_pauli
from test_groups import random_nonsingular


def assert_graph_sublist(census, omega):
    """omega's graph-based keys are an in-order sublist of its direct keys,
    and its graph-based specs equal the direct specs of those keys."""
    graph_keys = census.graph_based.witness_keys[omega]
    direct_keys = census.direct.witness_keys[omega]
    rest = iter(direct_keys)
    assert all(key in rest for key in graph_keys), omega
    by_key = dict(zip(direct_keys, census.direct[omega]))
    assert census.graph_based[omega] == [by_key[key] for key in graph_keys], omega


FIG6_SUBSET = GeneratorSubset(
    (2, 3, 4),
    (parse_pauli("ZZZZIII"), parse_pauli("IXXIXXI"), parse_pauli("IIXXIXX")),
)

E1_SUBSET = GeneratorSubset(
    (1, 2, 3, 4),
    (
        parse_pauli("YYYYIII"),
        parse_pauli("ZZZZIII"),
        parse_pauli("IZZIZZI"),
        parse_pauli("IIZZIZZ"),
    ),
)


def spanned_texts(spec: WitnessSpec) -> frozenset:
    return frozenset(p.to_text() for p in span_paulis(list(spec.basis)))


class TestPseudoIncidence:
    def test_three_stabilizer_example(self):
        m = pseudo_incidence(FIG6_SUBSET)
        assert (m.n_rows, m.n_cols) == (7, 3)
        # pair {1,2} anticommutes on qubits 2,3; pair {1,3} on 3,4;
        # pair {2,3} commutes everywhere
        assert m.to_lists() == [
            [0, 0, 0],
            [1, 0, 0],
            [1, 1, 0],
            [0, 1, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
        ]
        assert rank_mod2(m) == 2

    def test_single_stabilizer(self):
        m = pseudo_incidence(GeneratorSubset((2,), (parse_pauli("IXI"),)))
        assert (m.n_rows, m.n_cols) == (3, 0)

    def test_disjoint_supports(self):
        subset = GeneratorSubset((1, 3), (parse_pauli("XII"), parse_pauli("IIZ")))
        assert pseudo_incidence(subset).row_bits == (0, 0, 0)

    def test_rank_invariant_under_recombination(self):
        rng = random.Random(61)
        for _ in range(60):
            gens = random_stabilizer_set(rng, 6)
            group = span_group(gens)
            n = rng.randint(2, 4)
            while True:
                picks = rng.sample(group.elements[1:], n)
                subset_rows = {p.to_text() for p in span_paulis(picks)}
                if len(subset_rows) == 1 << n:
                    break
            before = [p for p in picks]
            r = random_nonsingular(rng, n)
            after = []
            for row in r.matrix.row_bits:
                acc = parse_pauli("I" * 6)
                for i in range(n):
                    if (row >> i) & 1:
                        acc = acc * before[i]
                after.append(acc)
            omega = tuple(range(1, 7))[:n]  # placeholder labels; rank only
            m1 = pseudo_incidence(GeneratorSubset(omega, tuple(before)))
            m2 = pseudo_incidence(GeneratorSubset(omega, tuple(after)))
            assert rank_mod2(m1) == rank_mod2(m2)

    def test_invariant_under_local_cliffords(self):
        rng = random.Random(67)
        for _ in range(60):
            gens = random_stabilizer_set(rng, 5)
            group = span_group(gens)
            picks = rng.sample(group.elements[1:], 3)
            q = random_local_clifford(rng, 5)
            omega = (1, 2, 3)
            m1 = pseudo_incidence(GeneratorSubset(omega, tuple(picks)))
            m2 = pseudo_incidence(
                GeneratorSubset(omega, tuple(apply(q, p) for p in picks))
            )
            assert m1 == m2


class TestCheckDirect:
    def test_fig6_subset_is_valid(self):
        assert check_direct(FIG6_SUBSET)

    def test_plaquette_subset_is_valid(self):
        assert check_direct(E1_SUBSET)

    def test_all_z_pair_fails_rank(self):
        subset = GeneratorSubset(
            (2, 3), (parse_pauli("ZZZZIII"), parse_pauli("IZZIZZI"))
        )
        result = check_direct(subset)
        assert not result
        # all letters commute everywhere, so the pseudo-incidence rank is
        # 0 rather than 1; the reduced operators collapse too
        assert "iv" in result.failed_conditions
        assert rank_mod2(pseudo_incidence(subset)) == 0

    def test_anticommuting_pair_fails_first_condition(self):
        subset = GeneratorSubset((1, 2), (parse_pauli("XII"), parse_pauli("ZII")))
        result = check_direct(subset)
        assert not result
        assert result.failed_condition == "i"

    def test_dependent_pair_fails_first_condition(self):
        subset = GeneratorSubset((1, 2), (parse_pauli("XXI"), parse_pauli("XXI")))
        assert check_direct(subset).failed_condition == "i"

    def test_support_outside_omega_fails(self):
        # the pair commutes globally but anticommutes on qubit 4, outside omega
        subset = GeneratorSubset(
            (2, 3), (parse_pauli("ZZZZIII"), parse_pauli("IIXXIXX"))
        )
        result = check_direct(subset)
        assert not result
        assert "iii" in result.failed_conditions

    def test_malformed_sizes_raise(self):
        with pytest.raises(MalformedSubsetError):
            check_direct(
                GeneratorSubset((2,), (parse_pauli("IZI"),))
            )
        full = GeneratorSubset(
            (1, 2, 3),
            (parse_pauli("XXX"), parse_pauli("ZZI"), parse_pauli("IZZ")),
        )
        with pytest.raises(MalformedSubsetError):
            check_direct(full)

    def test_agrees_with_graph_connectivity(self):
        rng = random.Random(71)
        for _ in range(100):
            g = random_graph(rng, rng.randint(3, 8))
            n = rng.randint(2, g.n_vertices - 1)
            omega = tuple(sorted(rng.sample(range(1, g.n_vertices + 1), n)))
            subset = reduced_generator_subset(g, omega)
            assert bool(check_direct(subset)) == is_connected_within(g, omega)

    def test_random_candidates_match_naive_oracle(self):
        rng = random.Random(89)
        verdicts = set()
        for _ in range(400):
            n_qubits = rng.randint(4, 6)
            group = span_group(random_stabilizer_set(rng, n_qubits))
            n = rng.randint(2, n_qubits - 1)
            omega = tuple(sorted(rng.sample(range(1, n_qubits + 1), n)))
            picks = rng.sample(group.elements[1:], n)
            roll = rng.random()
            if roll < 0.2:
                # dependent: one pick is the product of two others
                picks[-1] = picks[0] * picks[1]
            elif roll < 0.4:
                # usually anticommutes with, or leaves, the group
                picks[-1] = random_pauli(rng, n_qubits)
            result = check_direct(GeneratorSubset(omega, tuple(picks)))
            expected = naive_failed(picks, omega, n_qubits)
            assert list(result.failed_conditions) == expected
            assert bool(result) == naive_check(picks, omega, n_qubits)
            verdicts.add(result.failed_condition)
        assert verdicts == {None, "i", "ii", "iii", "iv"}

    def test_scan_accepts_exactly_the_passing_subspaces(self):
        rng = random.Random(97)
        group = span_group(random_stabilizer_set(rng, 5))
        census = direct_census(group)
        found = {
            (omega, spec.identity_key)
            for omega, specs in census.items()
            for spec in specs
        }
        passing = set()
        for k in range(2, 5):
            keys = {
                basis_key(combo)
                for combo in itertools.combinations(group.elements[1:], k)
            }
            for key in keys:
                if len(key) != k:
                    continue
                basis = tuple(pauli_from_row(r, 5) for r in key)
                active = 0
                for a, b in itertools.combinations(basis, 2):
                    active |= anticommutation_mask(a, b)
                if bin(active).count("1") != k:
                    continue
                omega = tuple(q for q in range(1, 6) if (active >> (q - 1)) & 1)
                if check_direct(GeneratorSubset(omega, basis)):
                    passing.add((omega, key))
        assert passing
        assert passing == found


class TestEnumerateDirect:
    def test_color_code_counts(self, color_group):
        assert len(enumerate_direct(color_group, (5, 6))) == 72
        assert len(enumerate_direct(color_group, (1, 2, 5))) == 40
        assert len(enumerate_direct(color_group, (1, 2, 3, 4))) == 30

    def test_rejects_non_local_scope(self, color_group):
        with pytest.raises(MalformedSubsetError):
            enumerate_direct(color_group, tuple(range(1, 8)))
        with pytest.raises(MalformedSubsetError):
            enumerate_direct(color_group, (3,))

    def test_every_result_passes_check_direct(self, color_group):
        for spec in enumerate_direct(color_group, (2, 3, 4)):
            assert check_direct(spec.subset())

    def test_results_are_deduplicated_and_sorted(self, color_group):
        specs = enumerate_direct(color_group, (1, 2))
        keys = [s.identity_key for s in specs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestPerSubsystemPath:
    """``enumerate_direct`` and ``run_census`` with ``omegas`` search the
    whole group once per subsystem size, pruned to the submasks of the
    wanted subsystems (``_direct_lists``); ``direct_census``, the same
    search for every subsystem, is their cross-check."""

    def test_matches_scan_on_color_code(self, color_group):
        full = direct_census(color_group)
        for omega, specs in full.items():
            assert enumerate_direct(color_group, omega) == specs

    @pytest.mark.parametrize("n_qubits", [5, 6, 7])
    def test_matches_scan_on_random_states(self, n_qubits):
        group = span_group(random_stabilizer_set(random.Random(n_qubits), n_qubits))
        full = direct_census(group)
        assert any(full.values())
        for omega, specs in full.items():
            keys = [s.identity_key for s in specs]
            assert keys == sorted(keys)
            assert enumerate_direct(group, omega) == specs

    def test_restricted_census_matches_full_census(self):
        s = random_stabilizer_set(random.Random(61), 6)
        full = run_census(s, ("direct", "twomeas"))
        # scrambled random states rarely have an X/Z split: keep the
        # subsystems that do, plus a random handful
        split = [o for o in full.subsystems() if full.two_measurement[o]]
        rest = [o for o in full.subsystems() if o not in split]
        omegas = split + random.Random(62).sample(rest, 5)
        restricted = run_census(s, ("direct", "twomeas"), omegas)
        assert restricted.subsystems() == omegas
        assert any(restricted.direct.values())
        assert any(restricted.two_measurement.values())
        for omega in omegas:
            assert restricted.direct[omega] == full.direct[omega]
            assert restricted.two_measurement[omega] == full.two_measurement[omega]

    def test_restricted_census_skips_the_full_scan(self, color_code, monkeypatch):
        def full_scan(group):
            raise AssertionError("full scan for a restricted census")

        monkeypatch.setattr(witnesses, "direct_census", full_scan)
        census = run_census(color_code, ("direct", "twomeas"), [(5, 6)])
        assert len(census.direct[(5, 6)]) == 72
        assert len(census.two_measurement[(5, 6)]) == 4


def _rref_bases(n_cols: int, rank: int):
    """All reduced row-echelon bases of rank-``rank`` subspaces of GF(2)^n.

    Every subspace appears exactly once.  Rows carry their pivot at the
    lowest set bit; free entries sit at non-pivot columns right of the pivot.
    """
    for pivots in itertools.combinations(range(n_cols), rank):
        pivot_set = set(pivots)
        free_cols = [
            [c for c in range(p + 1, n_cols) if c not in pivot_set]
            for p in pivots
        ]
        row_choices = []
        for i, p in enumerate(pivots):
            base = 1 << p
            options = []
            for bits in range(1 << len(free_cols[i])):
                row = base
                for j, c in enumerate(free_cols[i]):
                    if (bits >> j) & 1:
                        row |= 1 << c
                options.append(row)
            row_choices.append(options)
        for rows in itertools.product(*row_choices):
            yield rows


def _direct_subgroups(element_rows, exponent_basis, rank, n_qubits):
    """Yield (active mask, RREF key) for every rank-``rank`` subgroup inside
    the span of ``exponent_basis`` that seeds a local witness for its active
    region, by scanning every subspace."""
    exponents = [0]
    for e in exponent_basis:
        exponents += [x ^ e for x in exponents]
    span = [element_rows[x] for x in exponents]
    for coords in _rref_bases(len(exponent_basis), rank):
        rows = [span[c] for c in coords]
        active = 0
        for m in witnesses._pair_masks(rows, n_qubits):
            active |= m
        if bin(active).count("1") != rank:
            continue
        if next(witnesses._failed_conditions(rows, active, n_qubits), None) is None:
            yield active, tuple(rows_rref(rows))


def mask_to_omega(mask):
    """The 1-based qubit labels of a bit mask, ascending."""
    return tuple(q + 1 for q in range(mask.bit_length()) if (mask >> q) & 1)


def standard_specs(omega, keys, n_qubits) -> list:
    """Standard witnesses for omega from subgroup keys, sorted by key, each
    built with the checked constructor, which reduces its own key."""
    kind = witnesses.WitnessKind.STANDARD
    return [WitnessSpec(kind, omega, n_qubits, key) for key in sorted(keys)]


def naive_direct_census(group) -> dict:
    """The direct census by a scan of every subgroup of rank 2..N-1, with
    no pruning: the oracle of the pruned search."""
    n_qubits = group.n_qubits
    element_rows = [pauli_row(e) for e in group.elements]
    units = [1 << i for i in range(n_qubits)]
    keys = {omega: [] for omega in all_subsystems(n_qubits)}
    for rank in range(2, n_qubits):
        for active, key in _direct_subgroups(element_rows, units, rank, n_qubits):
            keys[mask_to_omega(active)].append(key)
    return {
        omega: standard_specs(omega, found, n_qubits)
        for omega, found in keys.items()
    }


def masks_up_to(rank, n_qubits):
    """Every qubit mask with at most ``rank`` qubits: the allowed regions of
    the search for every subsystem of size ``rank``."""
    return {m for m in range(1 << n_qubits) if m.bit_count() <= rank}


def submasks(mask, n_qubits):
    """Every qubit mask inside ``mask``, 0 and ``mask`` included: the
    allowed regions of the search for the one subsystem ``mask``."""
    return {m for m in range(1 << n_qubits) if not m & ~mask}


def naive_subgroup_search(span, rank, n_qubits, allowed):
    """Depth-first search over the rank-``rank`` subgroups of a group,
    pruned by the active region; yields (active mask, rows) at each leaf,
    with no leaf test.

    ``span[c]`` is the packed 2N-bit row of the group element with exponent
    vector c.  Each subgroup is reached through the reduced row-echelon
    basis of its exponent subspace: a row's pivot is its lowest set bit and
    its free columns lie above the pivot, off the pivots already chosen.
    Rows are chosen from the highest pivot down, each subspace is reached
    once, and over ``_span_rows(group.key)`` the rows at a leaf, reversed,
    are the subgroup's ``rows_rref`` key.  A partial basis is pruned, with
    every extension, once its active region, the OR of its pair
    anticommutation masks, is not in ``allowed``; a leaf may have fewer
    active qubits than its rank.  The search ``_direct_keys`` runs, with the
    leaf test and the filing left out, and generators in place of its
    recursion and its listed candidate rows.
    """
    full = (1 << n_qubits) - 1
    rows = [0] * rank
    last = rank - 1

    def extend(depth, top, used, letters, active):
        for p in range(top - 1, last - depth - 1, -1):
            pivot = 1 << p
            free = full & ~used & -(pivot << 1)
            sub = free
            while True:
                r = span[pivot | sub]
                grown = active | (
                    ((letters >> n_qubits) & r) ^ (letters & (r >> n_qubits))
                )
                if grown in allowed:
                    rows[depth] = r
                    if depth == last:
                        yield grown, tuple(rows)
                    else:
                        yield from extend(
                            depth + 1, p, used | pivot, letters | r, grown
                        )
                if not sub:
                    break
                sub = (sub - 1) & free

    return extend(0, n_qubits, 0, 0, 0)


def direct_key_pairs(span, rank, n_qubits, allowed):
    """The set of (active mask, key) pairs ``_direct_keys`` accepts."""
    found = witnesses._direct_keys(span, rank, n_qubits, allowed)
    return {(active, key) for active, keys in found.items() for key in keys}


def naive_leaf_test(rows, active, n_qubits):
    """The two remaining ranks of a leaf with ``len(rows)`` active qubits,
    taken as one: the rows restricted to the active region, shifted above
    bit N, and the pair masks, stacked in one list whose rank is 2k - 1
    exactly when the first part has rank k and the second rank k - 1."""
    omega_rows = (active << n_qubits) | active
    stacked = witnesses._pair_masks(rows, n_qubits)
    stacked += [(r & omega_rows) << n_qubits for r in rows]
    return rows_rank(stacked) == 2 * len(rows) - 1


def naive_direct_keys(element_rows, rank, n_qubits, allowed):
    """Yield (active mask, RREF key) like ``_direct_keys``, searching the
    span by exponent vectors over the generators, testing every leaf with
    rank active qubits with the full predicate and reducing its rows to a
    key with ``rows_rref``."""
    for active, rows in naive_subgroup_search(
        element_rows, rank, n_qubits, allowed
    ):
        if active.bit_count() != rank:
            continue
        if next(witnesses._failed_conditions(rows, active, n_qubits), None) is None:
            yield active, tuple(rows_rref(rows))


def _letter_kernels(generator_rows, omega_mask, n_qubits):
    """For each choice of one letter P_mu per qubit mu outside omega, a basis
    of exponent vectors of the group elements whose letter on every such mu
    commutes with P_mu, i.e. is I or P_mu.

    Condition (iii) puts every witness subgroup for omega inside one of
    these kernels.
    """
    n_gens = len(generator_rows)
    choices = []
    for mu in range(n_qubits):
        if (omega_mask >> mu) & 1:
            continue
        # bit i of x_col (z_col): generator i has an X-part (Z-part) on
        # qubit mu, i.e. anticommutes with Z (X) there
        x_col = z_col = 0
        for i, row in enumerate(generator_rows):
            x_col |= ((row >> mu) & 1) << i
            z_col |= ((row >> (n_qubits + mu)) & 1) << i
        # the generators anticommuting with X, Y, Z on qubit mu
        choices.append((z_col, z_col ^ x_col, x_col))
    # An element commutes with P_mu on qubit mu exactly when an even number
    # of its generators anticommute with P_mu there: one linear constraint
    # on its exponent vector per qubit outside omega.
    for constraints in itertools.product(*choices):
        yield solve_mod2(BitMatrix(len(constraints), n_gens, constraints), 0)[1]


def naive_enumerate_direct(group, omega) -> list:
    """The direct witnesses for one subsystem by a scan of every subgroup
    inside the 3^(N - |omega|) letter-restricted kernels, deduplicated by
    key: the oracle of the search pruned outside omega."""
    n_qubits = group.n_qubits
    omega = tuple(sorted(omega))
    mask = _qubit_mask(omega)
    element_rows = [pauli_row(e) for e in group.elements]
    generator_rows = [element_rows[1 << i] for i in range(n_qubits)]
    # a subgroup that is all-I on some qubit outside omega lies in the
    # kernels of all three letters there
    keys = set()
    for kernel in _letter_kernels(generator_rows, mask, n_qubits):
        for _, key in _direct_subgroups(element_rows, kernel, len(omega), n_qubits):
            keys.add(key)
    return standard_specs(omega, keys, n_qubits)


def ring_group(n_qubits):
    """The group of the ring graph state on n qubits."""
    texts = [
        "".join(
            "X" if j == i else "Z" if (j - i) % n_qubits in (1, n_qubits - 1) else "I"
            for j in range(n_qubits)
        )
        for i in range(n_qubits)
    ]
    return span_group(GeneratorSet.from_texts(texts))


@pytest.fixture(scope="module")
def naive_color(color_group):
    return naive_direct_census(color_group)


class TestPrunedSearch:
    """``direct_census`` and ``enumerate_direct`` walk a pruned depth-first
    search; the unpruned scan ``naive_direct_census`` is their oracle, and
    the letter-kernel scan ``naive_enumerate_direct`` is the per-subsystem
    oracle where the full scan is too slow.  ``naive_direct_keys``, the
    search over generator coordinates with the full predicate at each
    leaf, is the oracle of the leaf test in RREF coordinates."""

    def test_census_matches_scan_on_color_code(self, color_group, naive_color):
        assert direct_census(color_group) == naive_color

    @pytest.mark.parametrize("n_qubits,seed", [(5, 305), (6, 306), (7, 307), (8, 8)])
    def test_census_matches_scan_on_random_states(self, n_qubits, seed):
        group = span_group(random_stabilizer_set(random.Random(seed), n_qubits))
        naive = naive_direct_census(group)
        assert any(naive.values())
        assert direct_census(group) == naive

    def test_every_subsystem_matches_scan_on_color_code(
        self, color_group, naive_color
    ):
        assert len(naive_color) == 119
        for omega, specs in naive_color.items():
            assert enumerate_direct(color_group, omega) == specs

    @pytest.mark.parametrize("n_qubits", [6, 7])
    def test_random_subsystems_match_scan(self, n_qubits):
        group = span_group(random_stabilizer_set(random.Random(n_qubits), n_qubits))
        rng = random.Random(410 + n_qubits)
        naive = naive_direct_census(group)
        # random subsystems with witnesses and without
        found = [o for o in sorted(naive) if naive[o]]
        empty = [o for o in sorted(naive) if not naive[o]]
        omegas = rng.sample(found, 6) + rng.sample(empty, 6)
        for omega in omegas:
            assert enumerate_direct(group, omega) == naive[omega]

    def test_ring9_subsystems_match_kernel_scan(self):
        # the full scan takes half a minute at N = 9; the kernel scan is fast
        group = ring_group(9)
        rng = random.Random(909)
        for size in range(2, 9):
            block = spread = tuple(range(1, size + 1))
            while spread == block:
                spread = tuple(sorted(rng.sample(range(1, 10), size)))
            for omega in (block, spread):
                naive = naive_enumerate_direct(group, omega)
                assert naive, omega
                assert enumerate_direct(group, omega) == naive

    @pytest.mark.parametrize("seed", range(4))
    def test_random8_subsystems_match_kernel_scan(self, seed):
        group = span_group(random_stabilizer_set(random.Random(seed), 8))
        rng = random.Random(800 + seed)
        for size in (2, 3, 4):
            omega = tuple(sorted(rng.sample(range(1, 9), size)))
            assert enumerate_direct(group, omega) == naive_enumerate_direct(
                group, omega
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_census_matches_full_predicate_per_rank_on_random8(self, seed):
        group = span_group(random_stabilizer_set(random.Random(seed), 8))
        census = direct_census(group)
        element_rows = [pauli_row(e) for e in group.elements]
        for rank in range(2, 8):
            keys = {omega: [] for omega in census if len(omega) == rank}
            for active, key in naive_direct_keys(
                element_rows, rank, 8, masks_up_to(rank, 8)
            ):
                keys[mask_to_omega(active)].append(key)
            expected = {
                omega: standard_specs(omega, found, 8)
                for omega, found in keys.items()
            }
            assert {omega: census[omega] for omega in keys} == expected, rank

    def test_leaves_are_their_keys_and_two_ranks_are_the_predicate(
        self, color_group
    ):
        groups = [color_group] + [
            span_group(random_stabilizer_set(random.Random(seed), n_qubits))
            for n_qubits, seed in [(5, 505), (6, 506), (6, 516), (6, 6)]
        ]
        failures = collections.Counter()
        for group in groups:
            n_qubits = group.n_qubits
            span = _span_rows(group.key)
            for rank in range(2, n_qubits):
                accepted = set()
                allowed = masks_up_to(rank, n_qubits)
                for active, rows in naive_subgroup_search(
                    span, rank, n_qubits, allowed
                ):
                    assert rows[::-1] == tuple(rows_rref(rows))
                    if active.bit_count() != rank:
                        continue
                    failed = tuple(
                        witnesses._failed_conditions(rows, active, n_qubits)
                    )
                    # (i) and (iii) hold by construction at such a leaf
                    assert set(failed) <= {"ii", "iv"}
                    failures[failed] += 1
                    if not failed:
                        accepted.add((active, rows[::-1]))
                found = direct_key_pairs(span, rank, n_qubits, allowed)
                assert found == accepted, (n_qubits, rank)
        # each of the two rank tests is the only one to reject some leaf
        assert failures[("ii",)] and failures[("iv",)]

    @pytest.mark.parametrize("n_qubits,seed", [(5, 505), (6, 506)])
    def test_outside_prune_keeps_exactly_the_leaves_inside_omega(
        self, n_qubits, seed
    ):
        group = span_group(random_stabilizer_set(random.Random(seed), n_qubits))
        span = [pauli_row(e) for e in group.elements]
        unpruned = {
            rank: set(
                naive_subgroup_search(
                    span, rank, n_qubits, masks_up_to(rank, n_qubits)
                )
            )
            for rank in range(2, n_qubits)
        }
        exact = 0
        for omega in all_subsystems(n_qubits):
            mask = _qubit_mask(omega)
            pruned = set(
                naive_subgroup_search(
                    span, len(omega), n_qubits, submasks(mask, n_qubits)
                )
            )
            inside = {leaf for leaf in unpruned[len(omega)] if not leaf[0] & ~mask}
            assert pruned == inside, omega
            exact += sum(active == mask for active, _ in pruned)
        assert exact


LEAF_CASES = [
    ("color_code_7", build_color_code()),
    ("ring8", ring_group(8).generator_set),
] + [
    (f"recipe{n}_{seed}", random_stabilizer_set(random.Random(seed), n))
    for n, seed in [(5, 505), (6, 506), (7, 307), (8, 0), (8, 1)]
]


def spy_reductions(monkeypatch):
    """Spy on ``witnesses._reduce_into`` and ``witnesses.rows_rank``:
    returns a dict of each basis a reduction went into, by id, and a list
    with one entry per rank taken."""
    bases, ranks = {}, []
    reduce_into, rank = witnesses._reduce_into, witnesses.rows_rank

    def reduced(basis, row):
        # holding each basis keeps its id from being reused
        bases[id(basis)] = basis
        return reduce_into(basis, row)

    def counted(rows):
        ranks.append(None)
        return rank(rows)

    monkeypatch.setattr(witnesses, "_reduce_into", reduced)
    monkeypatch.setattr(witnesses, "rows_rank", counted)
    return bases, ranks


class TestLeafTest:
    """``_direct_keys`` accepts the leaves of rank 2 and 3 untested and
    tests those of rank 4 and up with two early-exit reductions into one
    basis; the stacked rank ``naive_leaf_test`` and the full predicate
    ``_failed_conditions`` are its oracles at every leaf."""

    @pytest.mark.parametrize(
        "s",
        [s for _, s in LEAF_CASES] + [ring_group(9).generator_set],
        ids=[i for i, _ in LEAF_CASES] + ["ring9"],
    )
    def test_leaf_test_is_the_full_predicate(self, s):
        group = span_group(s)
        n_qubits = group.n_qubits
        span = _span_rows(group.key)
        rejected = collections.Counter()
        for rank in range(2, n_qubits):
            accepted = set()
            allowed = masks_up_to(rank, n_qubits)
            found = direct_key_pairs(span, rank, n_qubits, allowed)
            for active, rows in naive_subgroup_search(
                span, rank, n_qubits, allowed
            ):
                if active.bit_count() != rank:
                    continue
                failed = next(
                    witnesses._failed_conditions(rows, active, n_qubits), None
                )
                if rank <= 3:
                    # both remaining ranks hold by construction
                    assert failed is None, (rank, rows)
                else:
                    omega_rows = (active << n_qubits) | active
                    restricted = [r & omega_rows for r in rows]
                    masks = witnesses._pair_masks(rows, n_qubits)
                    separate = (rows_rank(restricted), rows_rank(masks))
                    stacked = naive_leaf_test(rows, active, n_qubits)
                    assert stacked == (separate == (rank, rank - 1))
                    verdict = (active, rows[::-1]) in found
                    assert verdict == stacked == (failed is None), (rank, rows)
                if failed is None:
                    accepted.add((active, rows[::-1]))
                else:
                    rejected[rank] += 1
            assert found == accepted, rank
        # rank 4 is the first rank whose leaves the test must reject
        if n_qubits > 5:
            assert rejected[4]

    def test_color_code_census_ranks_only_leaves_of_rank_four_and_up(
        self, color_group, monkeypatch
    ):
        # one basis per leaf of rank 4..6 with that many active qubits and
        # none at the leaves of rank 2 and 3; no leaf takes a whole rank
        bases, ranks = spy_reductions(monkeypatch)
        census = direct_census(color_group)
        assert sum(len(v) for v in census.values()) == 3927
        assert len(bases) == 987
        assert ranks == []


def naive_per_subsystem_direct(group, omegas) -> dict:
    """The direct witnesses of each sorted subsystem by a search of its
    own: at rank |omega|, pruned once the active region meets a qubit
    outside omega, each leaf with active region omega tested with the full
    predicate and reduced to its key by ``rows_rref``.  One search per
    subsystem, the loop ``_direct_lists`` replaced."""
    n_qubits = group.n_qubits
    span = _span_rows(group.key)
    out = {}
    for omega in omegas:
        mask = _qubit_mask(omega)
        allowed = submasks(mask, n_qubits)
        keys = [
            tuple(rows_rref(rows))
            for active, rows in naive_subgroup_search(
                span, len(omega), n_qubits, allowed
            )
            if active == mask
            and next(witnesses._failed_conditions(rows, mask, n_qubits), None)
            is None
        ]
        out[omega] = standard_specs(omega, keys, n_qubits)
    return out


def random_wanted(rng, n_qubits):
    """Sorted subsystems of mixed sizes in a shuffled order: a random
    subsystem with one nested in it, one it nests in and one overlapping
    it, and a random handful."""
    labels = range(1, n_qubits + 1)
    base = rng.sample(labels, rng.randrange(3, n_qubits - 1))
    spare = [q for q in labels if q not in base]
    wanted = {
        tuple(sorted(base)),
        tuple(sorted(base[1:])),
        tuple(sorted(base + spare[:1])),
        tuple(sorted(base[1:] + spare[:1])),
    }
    wanted.update(rng.sample(all_subsystems(n_qubits), 5))
    wanted = sorted(wanted)
    rng.shuffle(wanted)
    return wanted


class TestDirectLists:
    """``_direct_lists`` runs one search per distinct subsystem size,
    pruned to the submasks of the wanted subsystems of that size, and
    files each witness under its active region; one search per subsystem
    (``naive_per_subsystem_direct``) is its oracle."""

    @pytest.mark.parametrize(
        "s", [s for _, s in LEAF_CASES], ids=[i for i, _ in LEAF_CASES]
    )
    def test_every_subsystem_matches_oracle_and_census(self, s):
        group = span_group(s)
        wanted = all_subsystems(group.n_qubits)
        lists = witnesses._direct_lists(group, wanted)
        assert list(lists) == wanted
        assert any(lists.values())
        assert lists == naive_per_subsystem_direct(group, wanted)
        assert lists == direct_census(group)

    @pytest.mark.parametrize(
        "s", [s for _, s in LEAF_CASES], ids=[i for i, _ in LEAF_CASES]
    )
    def test_random_wanted_lists_match_oracle(self, s):
        group = span_group(s)
        rng = random.Random(2600 + group.n_qubits)
        found = 0
        for _ in range(3):
            wanted = random_wanted(rng, group.n_qubits)
            lists = witnesses._direct_lists(group, wanted)
            assert list(lists) == wanted
            assert lists == naive_per_subsystem_direct(group, wanted)
            found += sum(map(len, lists.values()))
        assert found

    def test_one_search_per_size(self, color_group, monkeypatch):
        searched = []
        direct_keys = witnesses._direct_keys

        def search(span, rank, n_qubits, allowed):
            searched.append((rank, set(allowed)))
            return direct_keys(span, rank, n_qubits, allowed)

        monkeypatch.setattr(witnesses, "_direct_keys", search)
        wanted = [(1, 2, 3), (5, 6), (2, 3), (1, 2, 4, 7), (1, 2, 4)]
        witnesses._direct_lists(color_group, wanted)
        assert [rank for rank, _ in searched] == [2, 3, 4]
        for rank, allowed in searched:
            assert allowed == set().union(
                *(submasks(_qubit_mask(o), 7) for o in wanted if len(o) == rank)
            )


class TestSearchMemory:
    """``_direct_keys`` drops its inner function before it returns, so the
    candidate rows it lists are freed when the call returns, by reference
    counts alone: a census leaves no cycle for the garbage collector."""

    @pytest.mark.parametrize(
        "omegas", [None, [(1, 2, 3), (4, 5)]], ids=["census", "omegas"]
    )
    def test_census_leaves_no_garbage_cycle(self, color_code, omegas):
        gc.collect()
        gc.disable()
        try:
            census = run_census(color_code, ("direct", "twomeas"), omegas)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert census.totals()["direct"] == (3927 if omegas is None else 116)
        assert unreachable == 0


def naive_gme(rows, omega) -> bool:
    """Whether the stabilizer state that the Pauli texts ``rows`` restrict
    to on the 1-based qubits ``omega`` is genuinely multipartite entangled,
    by the cut-rank rule (Fattal et al., quant-ph/0406168): for every
    non-empty proper subset B of omega, the rows restricted to B have rank
    greater than |B|."""
    bits = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
    for size in range(1, len(omega)):
        for cut in itertools.combinations(omega, size):
            restricted = [
                [b for q in cut for b in bits[text[q - 1]]] for text in rows
            ]
            if naive_rank(restricted, 2 * size) <= size:
                return False
    return True


GME_CASES = [("color_code_7", build_color_code())] + [
    (f"ring{n}", ring_group(n).generator_set) for n in (5, 6, 7)
] + [
    (f"recipe{n}_{seed}", random_stabilizer_set(random.Random(seed), n))
    for n, seed in [(5, 505), (6, 506), (7, 307)]
]


def full_rank_leaves(group, ranks):
    """(active, rows) of each search leaf of a rank in ``ranks`` whose active
    region has as many qubits as its rank and to which the rows restrict
    with full rank."""
    n_qubits = group.n_qubits
    span = _span_rows(group.key)
    for rank in ranks:
        allowed = masks_up_to(rank, n_qubits)
        for active, rows in naive_subgroup_search(span, rank, n_qubits, allowed):
            if active.bit_count() != rank:
                continue
            omega_rows = (active << n_qubits) | active
            if rows_rank([r & omega_rows for r in rows]) == rank:
                yield active, rows


class TestConditionFourIsGme:
    """At a search leaf whose active region has as many qubits as its rank
    and to which the rows restrict with full rank, the rows restrict to a
    stabilizer state on the active qubits; condition (iv) fails there
    exactly when that state is not genuinely multipartite entangled."""

    @pytest.mark.parametrize("case", [name for name, _ in GME_CASES])
    def test_condition_four_is_the_cut_rank_rule(self, case):
        group = span_group(dict(GME_CASES)[case])
        n_qubits = group.n_qubits
        verdicts = collections.Counter()
        for active, rows in full_rank_leaves(group, range(2, n_qubits)):
            failed = set(witnesses._failed_conditions(rows, active, n_qubits))
            texts = [pauli_from_row(r, n_qubits).to_text() for r in rows]
            gme = naive_gme(texts, mask_to_omega(active))
            assert ("iv" not in failed) == gme, texts
            verdicts[gme] += 1
        assert verdicts[True]
        if case == "color_code_7":
            # every accepted witness of the census, and 42 leaves that
            # fail (iv) alone
            assert verdicts == {True: 3927, False: 42}

    def test_condition_four_bounds_the_schmidt_coefficients(self):
        """With no GF(2) in the check: on the state vector of the restricted
        stabilizer state, every bipartition of a leaf that passes (iv) has
        largest squared Schmidt coefficient at most 1/2, and a leaf that
        fails (iv) is a product across some bipartition (coefficient 1).
        color_code_7, |omega| <= 4; each restricted state is built once."""
        group = span_group(build_color_code())
        n_qubits = group.n_qubits
        largest = {}
        verdicts = collections.Counter()
        for active, rows in full_rank_leaves(group, range(2, 5)):
            positions = [q - 1 for q in mask_to_omega(active)]
            texts = tuple(
                "".join(text[q] for q in positions)
                for text in (pauli_from_row(r, n_qubits).to_text() for r in rows)
            )
            if texts not in largest:
                rng = random.Random(len(largest))
                state = state_vector(texts, [1] * len(texts), rng)
                largest[texts] = max(
                    largest_schmidt_sq(state, cut)
                    for cut in cuts_with_first(len(positions))
                )
            gme = "iv" not in witnesses._failed_conditions(rows, active, n_qubits)
            if gme:
                assert largest[texts] <= 0.5 + 1e-12, texts
            else:
                assert largest[texts] >= 1.0 - 1e-12, texts
            verdicts[gme, len(positions)] += 1
        # every leaf of |omega| <= 4 of the cut-rank test above; the 42 that
        # fail (iv) are all on four qubits
        assert verdicts == {
            (True, 2): 1512, (True, 3): 1512, (True, 4): 714, (False, 4): 42
        }


def naive_span_texts(paulis, n_qubits):
    texts = {"I" * n_qubits}
    frontier = ["I" * n_qubits]
    while frontier:
        current = frontier.pop()
        for p in paulis:
            product = []
            for a, b in zip(current, p.to_text()):
                pair = {a, b} - {"I"}
                if len(pair) == 0:
                    product.append("I")
                elif len(pair) == 1 and a != "I" and b != "I":
                    product.append("I")
                elif len(pair) == 1:
                    product.append(pair.pop())
                else:
                    product.append(({"X", "Y", "Z"} - pair).pop())
            text = "".join(product)
            if text not in texts:
                texts.add(text)
                frontier.append(text)
    return frozenset(texts)


def naive_letters_commute(a, b):
    return a == "I" or b == "I" or a == b


def naive_pairs_commute(texts):
    return all(
        sum(0 if naive_letters_commute(a, b) else 1 for a, b in zip(s, t)) % 2 == 0
        for s, t in itertools.combinations(texts, 2)
    )


def naive_failed(paulis, omega, n_qubits):
    """Every violated direct condition, "i".."iv", by letter counting."""
    texts = [p.to_text() for p in paulis]
    n = len(texts)
    failed = []
    # (i) pairwise commutation by letter counting, independence by span size
    if not naive_pairs_commute(texts) or len(
        naive_span_texts(paulis, n_qubits)
    ) != 1 << n:
        failed.append("i")
    # (ii) reduced operators: restrict, re-check commutation and independence
    positions = [q - 1 for q in omega]
    reduced = ["".join(t[i] for i in positions) for t in texts]
    reduced_paulis = [parse_pauli(t) for t in reduced]
    if not naive_pairs_commute(reduced) or len(
        naive_span_texts(reduced_paulis, len(omega))
    ) != 1 << n:
        failed.append("ii")
    # (iii) letterwise commutation outside omega
    outside = [i for i in range(n_qubits) if i not in positions]
    if any(
        not naive_letters_commute(s[i], t[i])
        for s, t in itertools.combinations(texts, 2)
        for i in outside
    ):
        failed.append("iii")
    # (iv) pseudo-incidence rank n-1, built as explicit lists
    columns = []
    for s, t in itertools.combinations(texts, 2):
        columns.append(
            [0 if naive_letters_commute(a, b) else 1 for a, b in zip(s, t)]
        )
    rows = [[col[mu] for col in columns] for mu in range(n_qubits)]
    if naive_rank(rows, len(columns)) != n - 1:
        failed.append("iv")
    return failed


def naive_check(paulis, omega, n_qubits):
    return not naive_failed(paulis, omega, n_qubits)


class TestMicroOracle:
    @pytest.mark.parametrize(
        "texts",
        [
            ("XXXX", "ZZII", "IZZI", "IIZZ"),
            ("XZII", "ZXZI", "IZXZ", "IIZX"),
            ("YZII", "ZYZI", "IZYZ", "IIZY"),
        ],
    )
    def test_direct_enumeration_matches_naive_subset_scan(self, texts):
        gens = GeneratorSet.from_texts(list(texts))
        group = span_group(gens)
        non_identity = [e for e in group.elements if not e.is_identity]
        for omega in all_subsystems(4):
            n = len(omega)
            expected = set()
            for combo in itertools.combinations(non_identity, n):
                if naive_check(combo, omega, 4):
                    expected.add(naive_span_texts(combo, 4))
            got = {
                spanned_texts(spec)
                for spec in enumerate_direct(group, omega)
            }
            assert got == expected


class TestGraphBased:
    def test_color_code_table(self, full_census):
        gb = full_census.graph_based
        assert len(gb[(5, 6)]) == 54
        assert len(gb[(1, 2, 5)]) == 32
        assert len(gb[(1, 2, 3)]) == 34
        assert len(gb[(1, 2, 3, 4)]) == 17
        assert len(gb[(1, 2, 3, 5)]) == 18
        assert sum(len(v) for v in gb.values()) == 3122

    def test_includes_paper_witness_for_5_6(self, full_census):
        wanted = WitnessSpec.standard_local(
            (5, 6), (parse_pauli("IZZIZZI"), parse_pauli("IIIIXXX"))
        )
        keys = {s.identity_key for s in full_census.graph_based[(5, 6)]}
        assert wanted.identity_key in keys

    def test_counterexample_not_graph_reachable(self, full_census, color_group):
        spec = WitnessSpec.standard_local((2, 3, 4), FIG6_SUBSET.stabilizers)
        direct_keys = {s.identity_key for s in full_census.direct[(2, 3, 4)]}
        graph_keys = {s.identity_key for s in full_census.graph_based[(2, 3, 4)]}
        assert spec.identity_key in direct_keys
        assert spec.identity_key not in graph_keys
        # the subset carries X on qubits 5, 6 and 7, and their product
        # IIIIXXX = s_R^X s_L^X is a member, so no letter kernel of
        # dimension 3 contains the witness
        for q in (5, 6, 7):
            assert {p.letter_at(q) for p in FIG6_SUBSET.stabilizers} == {"I", "X"}
        assert parse_pauli("IIIIXXX") in color_group.elements
        key = spec.identity_key
        assert witnesses._graph_reachable([key], (2, 3, 4), color_group) == []

    def test_subset_of_direct_everywhere(self, full_census):
        for omega in full_census.subsystems():
            direct_keys = {s.identity_key for s in full_census.direct[omega]}
            graph_keys = {s.identity_key for s in full_census.graph_based[omega]}
            assert graph_keys <= direct_keys

    def test_small_graph_state_agrees_with_direct(self):
        rng = random.Random(73)
        for _ in range(5):
            gens = random_stabilizer_set(rng, 4)
            group = span_group(gens)
            gb = enumerate_graph_based(gens)
            for omega in all_subsystems(4):
                direct_keys = {
                    s.identity_key for s in enumerate_direct(group, omega)
                }
                graph_keys = {s.identity_key for s in gb[omega]}
                assert graph_keys <= direct_keys

    def test_graph_results_pass_check_direct(self, full_census):
        rng = random.Random(79)
        omegas = rng.sample(full_census.subsystems(), 10)
        for omega in omegas:
            for spec in full_census.graph_based[omega]:
                assert check_direct(spec.subset())


def naive_lc_unitary(g, vertex: int) -> LocalClifford:
    """Letter maps realizing a local complementation at ``vertex``, the
    step of the Clifford-path re-walk: Z <-> Y on the complemented vertex
    and X <-> Y on each of its neighbors, so the image of the graph
    generators spans the complemented graph's group."""
    row = g.adjacency[vertex - 1]
    names = ["S" if (row >> mu) & 1 else "I" for mu in range(g.n_vertices)]
    names[vertex - 1] = "HSH"
    return LocalClifford.from_names(names)


def naive_maps_back(s: GeneratorSet) -> list:
    """(member, letter map back to the state) per orbit member, in orbit
    order, by the Clifford path: re-walk the member's whole complementation
    sequence from the seed, compose the letter maps and invert them."""
    q_le, _, graph0 = find_graph_equivalence(s)
    out = []
    for member, sequence in lc_orbit(graph0).items():
        q_total = q_le
        current = graph0
        for vertex in sequence:
            q_total = naive_lc_unitary(current, vertex).compose(q_total)
            current = local_complement(current, vertex)
        out.append((member, q_total.inverse()))
    return out


def naive_pulled_rows(s: GeneratorSet) -> list:
    """(member, pulled rows) per orbit member, in orbit order: the member's
    graph generators mapped back by the Clifford path's letter map."""
    out = []
    for member, inv in naive_maps_back(s):
        pulled = [apply(inv, g) for g in graph_generators(member).generators]
        out.append((member, [pauli_row(p) for p in pulled]))
    return out


def naive_graph_based(s: GeneratorSet) -> dict:
    """The graph-based census without the incremental walk: every member
    re-walked, every connected subsystem of every member keyed, and the
    symmetry sweep through PauliOperator objects."""
    n_qubits = s.n_qubits
    symmetries = find_local_symmetries(s)
    subsystems = all_subsystems(n_qubits)
    found = {omega: set() for omega in subsystems}
    for member, rows in naive_pulled_rows(s):
        for omega in subsystems:
            mask = sum(1 << (q - 1) for q in omega)
            if _connected_mask(member.adjacency, mask):
                found[omega].add(tuple(rows_rref([rows[q - 1] for q in omega])))
    out = {}
    for omega in subsystems:
        keys = set(found[omega])
        for sym in symmetries:
            if sym.is_identity():
                continue
            inv_sym = sym.inverse()
            for key in found[omega]:
                image = [
                    pauli_row(apply(inv_sym, pauli_from_row(r, n_qubits)))
                    for r in key
                ]
                keys.add(tuple(rows_rref(image)))
        out[omega] = [
            WitnessSpec.standard_local(
                omega, [pauli_from_row(r, n_qubits) for r in key]
            )
            for key in sorted(keys)
        ]
    return out


def _pullback_cases() -> list:
    """color_code_7, the five-qubit code state, and one random graph state
    of N = 5, 6, 7 qubits under three letter-map scrambles each; the
    scrambles land the graph-form search on different seed graphs."""
    cases = [
        ("color_code_7", build_color_code()),
        (
            "five_qubit",
            GeneratorSet.from_texts(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "XXXXX"]),
        ),
    ]
    for n in (5, 6, 7):
        rng = random.Random(100 + n)
        graph = random_graph(rng, n)
        for k in range(3):
            scramble = random_local_clifford(rng, n)
            cases.append(
                (f"random{n}_{k}", apply_to_generators(scramble, graph_generators(graph)))
            )
    return cases


PULLBACK_CASES = _pullback_cases()


class TestIncrementalPullback:
    @pytest.mark.parametrize(
        "s", [s for _, s in PULLBACK_CASES], ids=[i for i, _ in PULLBACK_CASES]
    )
    def test_matches_naive_graph_based(self, s):
        assert enumerate_graph_based(s) == naive_graph_based(s)

    @pytest.mark.parametrize(
        "s", [s for _, s in PULLBACK_CASES], ids=[i for i, _ in PULLBACK_CASES]
    )
    def test_parent_rows_equal_clifford_path_rows(self, s):
        q_le, _, graph0 = find_graph_equivalence(s)
        orbit = lc_orbit(graph0)
        derived = [
            (member, frame_rows(member, z_frame, x_frame))
            for member, _, z_frame, x_frame in witnesses._orbit_pullback(q_le, orbit)
        ]
        assert derived == naive_pulled_rows(s)

    @pytest.mark.parametrize(
        "s", [s for _, s in PULLBACK_CASES], ids=[i for i, _ in PULLBACK_CASES]
    )
    def test_frames_are_the_clifford_path_images(self, s):
        q_le, _, graph0 = find_graph_equivalence(s)
        derived = [
            (member, z_frame, x_frame)
            for member, _, z_frame, x_frame in witnesses._orbit_pullback(
                q_le, lc_orbit(graph0)
            )
        ]
        assert derived == [
            (member, inv.z_image, inv.x_image) for member, inv in naive_maps_back(s)
        ]

    def test_scrambles_change_the_seed_graph(self):
        for n in (5, 6, 7):
            seeds = {
                find_graph_equivalence(s)[2]
                for case, s in PULLBACK_CASES
                if case.startswith(f"random{n}_")
            }
            assert len(seeds) > 1


def pulled_rows(z: int, x: int, adjacency, vertices, n_qubits: int) -> list:
    """The graph generators of 0-based ``vertices``, X on u and Z on its
    neighbors, carried back to the state by a member's Z and X frames, as
    packed 2N-bit rows.  u is not its own neighbor, so the parts are disjoint."""
    qubit = (1 << n_qubits) | 1
    return [
        (x & qubit << u) | (z & ((adjacency[u] << n_qubits) | adjacency[u]))
        for u in vertices
    ]


def frame_rows(member, z_frame: int, x_frame: int) -> list:
    """The pulled generator rows of every vertex of an orbit member, read
    off its frames."""
    n_qubits = member.n_vertices
    return pulled_rows(
        z_frame, x_frame, member.adjacency, range(n_qubits), n_qubits
    )


def naive_incremental_graph_based(s: GeneratorSet) -> dict:
    """The graph-based census by the incremental walk without the frame
    memo: every connected touched subsystem of every member keyed by
    ``rows_rref``, and every key's image under every symmetry reduced."""
    n_qubits = s.n_qubits
    q_le, _, graph0 = find_graph_equivalence(s)
    symmetries = find_local_symmetries(s)
    subsystems = all_subsystems(n_qubits)
    masks = {sum(1 << (q - 1) for q in omega): omega for omega in subsystems}
    found = {mask: set() for mask in masks}
    for member, sequence, z_frame, x_frame in witnesses._orbit_pullback(
        q_le, lc_orbit(graph0)
    ):
        rows = frame_rows(member, z_frame, x_frame)
        touched = list(masks)
        if sequence:
            vertex = sequence[-1]
            hood = member.adjacency[vertex - 1]
            touched = [m for m in masks if m & hood and not (m >> (vertex - 1)) & 1]
        for mask in touched:
            if _connected_mask(member.adjacency, mask):
                omega_rows = [rows[q - 1] for q in masks[mask]]
                found[mask].add(tuple(rows_rref(omega_rows)))
    inverses = [sym.inverse() for sym in symmetries if not sym.is_identity()]
    out = {}
    for mask, omega in masks.items():
        keys = set(found[mask])
        for inv_sym in inverses:
            for key in found[mask]:
                image = [_map_row(inv_sym, r) for r in key]
                keys.add(tuple(rows_rref(image)))
        out[omega] = [
            WitnessSpec.standard_local(
                omega, [pauli_from_row(r, n_qubits) for r in key]
            )
            for key in sorted(keys)
        ]
    return out


def naive_orbit_projection_graph_based(s: GeneratorSet) -> dict:
    """The graph-based census projecting every orbit member's Z frame for
    every subsystem: one member per distinct masked frame, its
    connectivity tested and a connected one keyed, then the symmetry
    sweep by frame images.  Nothing is carried from one subsystem to the
    next."""
    n_qubits = s.n_qubits
    q_le, _, graph0 = find_graph_equivalence(s)
    orbit = lc_orbit(graph0)
    symmetries = find_local_symmetries(s)
    frames = [
        (member.adjacency, z, x)
        for member, _, z, x in witnesses._orbit_pullback(q_le, orbit)
    ]
    others = [sym for sym in symmetries if not sym.is_identity()]
    full = (1 << n_qubits) - 1
    out = {}
    for omega in all_subsystems(n_qubits):
        mask = _qubit_mask(omega)
        outside = ((full ^ mask) << n_qubits) | (full ^ mask)
        keys = {}
        distinct = {outside & frame[1]: frame for frame in frames}
        for masked, (adjacency, z, x) in distinct.items():
            if _connected_mask(adjacency, mask):
                rows = pulled_rows(
                    z, x, adjacency, [q - 1 for q in omega], n_qubits
                )
                keys[masked] = tuple(rows_rref(rows))
        for masked, key in list(keys.items()):
            for sym in others:
                image = _map_row(sym, masked)
                if image not in keys:
                    keys[image] = tuple(rows_rref([_map_row(sym, r) for r in key]))
        out[omega] = standard_specs(omega, set(keys.values()), n_qubits)
    return out


# graphs 0-3 of the random-state recipe on 8 qubits
RECIPE8_CASES = [
    (f"recipe8_{g}", random_stabilizer_set(random.Random(g), 8)) for g in range(4)
]
FRAME_CASES = PULLBACK_CASES + RECIPE8_CASES
CONNECTIVITY_CASES = PULLBACK_CASES + RECIPE8_CASES[:1]
MEMO_FREE_CASES = RECIPE8_CASES + [
    ("color_code_7", build_color_code()),
    ("ring8", ring_group(8).generator_set),
]


class TestFrameMemo:
    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_CASES], ids=[i for i, _ in FRAME_CASES]
    )
    def test_neighbors_carry_the_frame(self, s):
        # the graph generator of u carries Z on each neighbor mu of u
        q_le, _, graph0 = find_graph_equivalence(s)
        # per qubit, the packed-row mask of its Z and X bits
        qubits = [((1 << s.n_qubits) | 1) << mu for mu in range(s.n_qubits)]
        for member, _, frame, x_frame in witnesses._orbit_pullback(
            q_le, lc_orbit(graph0)
        ):
            rows = frame_rows(member, frame, x_frame)
            for mu, qubit in enumerate(qubits):
                assert frame & qubit
                for u, row in enumerate(rows):
                    if (member.adjacency[mu] >> u) & 1:
                        assert row & qubit == frame & qubit

    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_CASES], ids=[i for i, _ in FRAME_CASES]
    )
    def test_key_is_the_frame_kernel(self, s):
        # span{K_u : u in omega} = {g : letter on each mu outside omega is
        # I or the frame's Z letter of mu}, on the seed and sampled members
        n_qubits = s.n_qubits
        full = (1 << n_qubits) - 1
        elements = [pauli_row(g) for g in span_group(s).elements]
        q_le, _, graph0 = find_graph_equivalence(s)
        members = list(witnesses._orbit_pullback(q_le, lc_orbit(graph0)))
        sample = members[:1] + random.Random(n_qubits).sample(
            members[1:], min(4, len(members) - 1)
        )
        checked = 0
        for member, _, frame, x_frame in sample:
            rows = frame_rows(member, frame, x_frame)
            for omega in all_subsystems(n_qubits):
                mask = sum(1 << (q - 1) for q in omega)
                if not _connected_mask(member.adjacency, mask):
                    continue
                outside = full ^ mask
                kernel = []
                for g in elements:
                    off = g ^ frame
                    # qubits where g is not I and not the frame's letter
                    clash = ((g >> n_qubits) | g) & ((off >> n_qubits) | off)
                    if not clash & outside:
                        kernel.append(g)
                pulled = rows_rref([rows[q - 1] for q in omega])
                assert pulled == rows_rref(kernel)
                checked += 1
        assert checked

    @pytest.mark.parametrize(
        "s", [s for _, s in CONNECTIVITY_CASES], ids=[i for i, _ in CONNECTIVITY_CASES]
    )
    def test_connectivity_is_a_function_of_the_masked_frame(self, s):
        # the census tests one member per (subsystem, masked Z frame), so
        # every member with that frame must agree on the subsystem
        n_qubits = s.n_qubits
        full = (1 << n_qubits) - 1
        q_le, _, graph0 = find_graph_equivalence(s)
        members = list(witnesses._orbit_pullback(q_le, lc_orbit(graph0)))
        seen = {}
        for omega in all_subsystems(n_qubits):
            mask = sum(1 << (q - 1) for q in omega)
            outside = ((full ^ mask) << n_qubits) | (full ^ mask)
            for member, _, z_frame, _ in members:
                connected = _connected_mask(member.adjacency, mask)
                assert seen.setdefault((mask, z_frame & outside), connected) == connected
        assert len(seen) < len(members) * len(all_subsystems(n_qubits))

    @pytest.mark.parametrize(
        "s", [s for _, s in MEMO_FREE_CASES], ids=[i for i, _ in MEMO_FREE_CASES]
    )
    def test_matches_memo_free_loop(self, s):
        assert enumerate_graph_based(s) == naive_incremental_graph_based(s)

    def test_color_code_reduces_each_masked_frame_once(self, monkeypatch):
        # each kept member carries its subsystem's key and connectivity to
        # the children: one row insertion per (subsystem, neighbourhood
        # frame), for a leaf only a connected one, and a flood fill only
        # below a parent that is not connected; the sweep folds each new
        # image's rows into a key, 845 insertions for 327 images, and no
        # key is reduced by rows_rref.  Keying every connected touched
        # subsystem and every image took 21,244 rows_rref; the
        # touched-subsystem walk with a frame memo took 4,237 and 14,279
        # flood fills, one of each per masked Z frame 4,333 and 6,863, and
        # one rows_rref per witness 3,122 and 5,386 flood fills.  Projecting
        # all 532 members for each of the 119 subsystems took 63,308
        # projections and the subsystem tree, with the pairs projecting the
        # whole orbit, 20,241; the one-qubit subsystems now project it and
        # are parents only.
        counts = {
            "rows_rref": 0, "_insert_reduced": 0, "_connected_mask": 0, "projected": 0
        }

        def counted(name):
            call = getattr(witnesses, name)

            def wrapper(*args):
                counts[name] += 1
                return call(*args)

            return wrapper

        def counted_getter(index):
            get = itemgetter(index)

            def projected(frame):
                counts["projected"] += 1
                return get(frame)

            return projected

        for name in ("rows_rref", "_insert_reduced", "_connected_mask"):
            monkeypatch.setattr(witnesses, name, counted(name))
        monkeypatch.setattr(witnesses, "itemgetter", counted_getter)
        census = enumerate_graph_based(build_color_code())
        assert sum(len(v) for v in census.values()) == 3122
        assert counts == {
            "rows_rref": 0,
            "_insert_reduced": 4865 + 845,
            "_connected_mask": 1979,
            "projected": 19224,
        }


def naive_letter_kernel_graph_based(s: GeneratorSet) -> dict:
    """The graph-based keys by brute force over letter kernels, N <= 7.

    For every subsystem omega and every c in {X, Y, Z}^O on the qubits O
    outside it, the kernel K_c is the set of members whose letter on each
    mu in O is I or c_mu.  A kernel of 2^|omega| members whose basis passes
    ``check_direct`` is a graph-based witness (Van den Nest, Dehaene and De
    Moor, 2004; Hein, Eisert and Briegel, 2004).  Letters are read off the
    members' texts; keys are sorted per subsystem."""
    n_qubits = s.n_qubits
    assert n_qubits <= 7
    members = [(p, p.to_text()) for p in span_group(s).elements]
    out = {}
    for omega in all_subsystems(n_qubits):
        outside = [mu for mu in range(n_qubits) if mu + 1 not in omega]
        keys = set()
        for c in itertools.product("XYZ", repeat=len(outside)):
            kernel = [
                p
                for p, text in members
                if all(text[mu] in ("I", letter) for mu, letter in zip(outside, c))
            ]
            if len(kernel) != 2 ** len(omega):
                continue
            key = basis_key(kernel)
            basis = tuple(pauli_from_row(r, n_qubits) for r in key)
            if check_direct(GeneratorSubset(omega, basis)):
                keys.add(key)
        out[omega] = sorted(keys)
    return out


DEGENERATE_STATES = {
    "product": ["ZIII", "IZII", "IIZI", "IIIZ"],
    "ghz": ["XXX", "ZZI", "IZZ"],
    "disjoint_pairs": ["XXII", "ZZII", "IIXX", "IIZZ"],
}


def _filter_cases(max_qubits: int) -> list:
    """color_code_7, the rings, the product, GHZ and disjoint-pair states,
    and the ``conftest`` random recipes put through two more letter-map
    scrambles each, up to ``max_qubits`` qubits."""
    cases = [("color_code_7", build_color_code())]
    cases += [
        (f"ring{n}", ring_group(n).generator_set)
        for n in range(5, min(9, max_qubits) + 1)
    ]
    cases += [
        (name, GeneratorSet.from_texts(texts))
        for name, texts in DEGENERATE_STATES.items()
    ]
    for n in range(5, min(8, max_qubits) + 1):
        for seed in range(2):
            s = random_stabilizer_set(random.Random(seed), n)
            rng = random.Random(1000 * n + seed)
            for k in range(2):
                scrambled = apply_to_generators(random_local_clifford(rng, n), s)
                cases.append((f"random{n}_{seed}_{k}", scrambled))
    return cases


FILTER_CASES = _filter_cases(9)
SMALL_FILTER_CASES = _filter_cases(7)


def letter_functionals(key, n_qubits) -> list:
    """For each 0-based qubit mu, the exponent functionals over the group
    basis ``key`` whose kernels are the members with letter I or L on mu,
    indexed by L's letter code x | z << 1: X keeps z(mu), Z keeps x(mu), Y
    keeps x(mu) ^ z(mu).  Bit i of a functional is its value on key[i]."""
    out = []
    for mu in range(n_qubits):
        x = z = 0
        for i, row in enumerate(key):
            x |= (row >> mu & 1) << i
            z |= (row >> (n_qubits + mu) & 1) << i
        out.append((0, z, x, x ^ z))
    return out


def naive_extends_to_kernel(letters, outside) -> bool:
    """Whether some completion of the letters outside omega has linearly
    independent functionals, by trying all 3^(free qubits) completions.
    ``outside`` holds, per qubit outside omega, its X bit, its Z bit and
    its ``letter_functionals`` entry."""
    choices = []
    for x_bit, z_bit, functionals in outside:
        code = (1 if letters & x_bit else 0) | (2 if letters & z_bit else 0)
        choices.append((functionals[code],) if code else functionals[1:])
    return any(
        rows_rank(list(picked)) == len(picked)
        for picked in itertools.product(*choices)
    )


def naive_graph_reachable(keys, omega, key, n_qubits) -> list:
    """The direct keys for omega whose letters outside omega complete to a
    letter kernel of dimension |omega|, by ``naive_extends_to_kernel`` once
    per letter pattern."""
    functionals = letter_functionals(key, n_qubits)
    outside = [
        (1 << mu, 1 << (n_qubits + mu), functionals[mu])
        for mu in range(n_qubits)
        if mu + 1 not in omega
    ]
    outside_rows = sum(x_bit | z_bit for x_bit, z_bit, _ in outside)
    verdicts = {}
    kept = []
    for witness in keys:
        letters = 0
        for row in witness:
            letters |= row & outside_rows
        if letters not in verdicts:
            verdicts[letters] = naive_extends_to_kernel(letters, outside)
        if verdicts[letters]:
            kept.append(witness)
    return kept


def naive_idle_members(group, omega) -> list:
    """The members other than I whose text is I on every qubit of omega."""
    return [
        e for e in group.non_identity()
        if all(e.to_text()[q - 1] == "I" for q in omega)
    ]


IDLE_CASES = [
    (name, s) for name, s in FILTER_CASES + RECIPE8_CASES if s.n_qubits <= 8
]


class TestIdleKernelRule:
    """``_graph_reachable`` keeps a direct witness exactly when no product
    of its letters outside omega, other than I, is a member.  Such a
    product is I on omega, so the rule tests only the members idle on
    omega.  Its oracle tries every completion of the letters to one letter
    per outside qubit and keeps the witness when one completion gives a
    letter kernel of dimension |omega|."""

    @pytest.mark.parametrize(
        "s", [s for _, s in IDLE_CASES], ids=[i for i, _ in IDLE_CASES]
    )
    def test_matches_all_completions(self, s):
        group = span_group(s)
        for omega, keys in direct_census(group).witness_keys.items():
            kept = witnesses._graph_reachable(keys, omega, group)
            assert kept == naive_graph_reachable(
                keys, omega, group.key, s.n_qubits
            ), omega

    @pytest.mark.parametrize(
        "s", [s for _, s in IDLE_CASES], ids=[i for i, _ in IDLE_CASES]
    )
    def test_census_with_omegas_matches_all_completions(self, s):
        n_qubits = s.n_qubits
        group = span_group(s)
        subsystems = all_subsystems(n_qubits)
        omegas = random.Random(3000 + n_qubits).sample(
            subsystems, min(10, len(subsystems))
        )
        census = run_census(s, ("direct", "graph"), omegas)
        for omega in omegas:
            keys = census.direct.witness_keys[omega]
            assert census.graph_based.witness_keys[omega] == naive_graph_reachable(
                keys, omega, group.key, n_qubits
            ), omega

    def test_subsystems_without_idle_members_on_the_color_code(
        self, color_group, full_census
    ):
        # with I the only idle member, the direct list is the graph list:
        # every 5- and 6-qubit subsystem and every non-plaquette-like
        # 4-qubit one; each of the other 63 has 1 to 7 idle members
        idle = {
            omega: len(naive_idle_members(color_group, omega))
            for omega in all_subsystems(7)
        }
        free = [omega for omega, count in idle.items() if not count]
        assert len(free) == 56
        assert free == [
            omega for omega in all_subsystems(7)
            if len(omega) > 4
            or classify_subsystem(omega) is SubsystemClass.NON_PLAQUETTE_LIKE
        ]
        assert {count for count in idle.values() if count} == {1, 3, 7}
        for omega in free:
            keys = full_census.direct.witness_keys[omega]
            assert witnesses._graph_reachable(keys, omega, color_group) == keys
            assert full_census.graph_based.witness_keys[omega] == keys
            assert_graph_sublist(full_census, omega)

    def test_no_rank_on_the_color_code(self, color_code, color_group, monkeypatch):
        # the filter reads the idle members off the group's rows and reduces
        # no row; the census's 987 leaf tests are the direct search's, one
        # basis each
        census = direct_census(color_group)
        bases, ranks = spy_reductions(monkeypatch)
        kept = {
            omega: witnesses._graph_reachable(keys, omega, color_group)
            for omega, keys in census.witness_keys.items()
        }
        assert sum(len(v) for v in kept.values()) == 3122
        assert bases == {} and ranks == []
        assert run_census(color_code).totals() == {
            "direct": 3927,
            "graph_based": 3122,
            "two_measurement": 476,
        }
        assert len(bases) == 987
        assert ranks == []

    def test_disjoint_pairs(self):
        s = GeneratorSet.from_texts(DEGENERATE_STATES["disjoint_pairs"])
        group = span_group(s)
        passing = WitnessSpec.standard_local(
            (1, 2), (parse_pauli("XXII"), parse_pauli("ZZII"))
        )
        # XXXX carries X on qubits 3 and 4, and IIXX is a member
        failing = WitnessSpec.standard_local(
            (1, 2), (parse_pauli("XXXX"), parse_pauli("ZZII"))
        )
        assert parse_pauli("IIXX") in group.elements
        keys = [spec.identity_key for spec in enumerate_direct(group, (1, 2))]
        assert passing.identity_key in keys and failing.identity_key in keys
        kept_keys = set(witnesses._graph_reachable(keys, (1, 2), group))
        assert passing.identity_key in kept_keys
        assert failing.identity_key not in kept_keys
        graph_keys = {
            spec.identity_key for spec in enumerate_graph_based(s)[(1, 2)]
        }
        assert graph_keys == kept_keys


TREE_CASES = (
    MEMO_FREE_CASES
    + [("ring9", ring_group(9).generator_set)]
    + [
        (name, s)
        for name, s in FILTER_CASES
        if name.startswith("random") or name in DEGENERATE_STATES
    ]
)


def subsystem_sample(n_qubits, seed):
    """Wanted subsystems for a graph-only census with ``omegas``, in a
    shuffled order: a chain of parents and children, one subsystem whose
    parent is missing, and a random handful."""
    omegas = [(1, 2), (1, 2, 3), (1, 2, n_qubits), (2, 3, 4, 5), (1, 2, 3, 4)]
    rest = [o for o in all_subsystems(n_qubits) if o not in omegas + [(2, 3, 4)]]
    rng = random.Random(seed)
    omegas += rng.sample(rest, 8)
    rng.shuffle(omegas)
    return omegas


class TestGraphFilter:
    """With the direct search running, ``run_census`` reads the graph-based
    witnesses off it with a letter-kernel filter.  The orbit walk
    ``enumerate_graph_based`` is its oracle, and so is the brute-force
    letter-kernel scan for N <= 7."""

    @pytest.mark.parametrize(
        "s", [s for _, s in FILTER_CASES], ids=[i for i, _ in FILTER_CASES]
    )
    def test_matches_orbit_walk(self, s):
        census = run_census(s, ("direct", "graph"))
        assert census.graph_based == enumerate_graph_based(s)

    @pytest.mark.parametrize(
        "s",
        [s for _, s in SMALL_FILTER_CASES],
        ids=[i for i, _ in SMALL_FILTER_CASES],
    )
    def test_matches_letter_kernel_scan(self, s):
        census = run_census(s, ("direct", "graph"))
        assert {
            omega: [w.identity_key for w in specs]
            for omega, specs in census.graph_based.items()
        } == naive_letter_kernel_graph_based(s)

    def test_graph_lists_are_sublists_of_the_direct_lists(self, full_census):
        for omega in full_census.graph_based:
            assert_graph_sublist(full_census, omega)

    @pytest.mark.parametrize(
        "methods", [("direct", "graph"), ("graph", "twomeas"), ("graph",)]
    )
    def test_restricted_census_matches_full_census(
        self, methods, full_census, color_code
    ):
        omegas = [(5, 6), (1, 2, 5), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5, 6)]
        rng = random.Random(21)
        omegas += rng.sample(full_census.subsystems(), 8)
        census = run_census(color_code, methods, omegas)
        assert census.graph_based == {
            omega: full_census.graph_based[omega] for omega in census.subsystems()
        }
        if "direct" in methods:
            for omega in census.graph_based:
                assert_graph_sublist(census, omega)
        else:
            assert census.direct is None

    @pytest.mark.parametrize("seed", range(2))
    def test_restricted_census_matches_orbit_walk_on_random8(self, seed):
        s = random_stabilizer_set(random.Random(seed), 8)
        walk = enumerate_graph_based(s)
        omegas = random.Random(300 + seed).sample(all_subsystems(8), 12)
        for methods in (("direct", "graph"), ("graph", "twomeas"), ("graph",)):
            census = run_census(s, methods, omegas)
            assert census.graph_based == {omega: walk[omega] for omega in omegas}

    def test_direct_search_replaces_the_walk(self, color_code, monkeypatch):
        calls = []

        def walk(graph):
            calls.append(graph)
            return lc_orbit(graph)

        monkeypatch.setattr(witnesses, "lc_orbit", walk)
        for methods in (
            ("direct", "graph", "twomeas"),
            ("direct", "graph"),
            ("graph", "twomeas"),
        ):
            run_census(color_code, methods)
            run_census(color_code, methods, [(5, 6)])
        census = run_census(color_code, ("graph",), [(5, 6)])
        assert calls == []
        assert len(census.graph_based[(5, 6)]) == 54

    @pytest.mark.parametrize(
        "case",
        ["color_code_7", "ring9", "recipe8_0", "recipe8_1"],
    )
    def test_graph_only_omegas_match_full_census(self, case, monkeypatch):
        s = dict(TREE_CASES)[case]
        full = run_census(s, ("graph",))
        omegas = subsystem_sample(s.n_qubits, 22)
        walks, searched = [], []
        direct_keys = witnesses._direct_keys

        def walk(graph):
            walks.append(graph)
            return lc_orbit(graph)

        def search(span, rank, n_qubits, allowed):
            searched.append(rank)
            return direct_keys(span, rank, n_qubits, allowed)

        monkeypatch.setattr(witnesses, "lc_orbit", walk)
        monkeypatch.setattr(witnesses, "_direct_keys", search)
        census = run_census(s, ("graph",), omegas)
        assert list(census.graph_based) == omegas
        assert census.graph_based == {o: full.graph_based[o] for o in omegas}
        assert any(census.graph_based.values())
        assert walks == []
        # one search per distinct subsystem size, not one per subsystem
        assert sorted(searched) == sorted({len(o) for o in omegas})


class TestSubsystemTree:
    """``enumerate_graph_based`` projects each subsystem's frames from the
    members its parent, the subsystem without its largest qubit, kept.
    Projecting the whole orbit for every subsystem is its oracle."""

    @pytest.mark.parametrize(
        "s", [s for _, s in TREE_CASES], ids=[i for i, _ in TREE_CASES]
    )
    def test_matches_whole_orbit_projection(self, s):
        census = enumerate_graph_based(s)
        naive = naive_orbit_projection_graph_based(s)
        assert list(census) == list(naive) == all_subsystems(s.n_qubits)
        assert census == naive

    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_CASES], ids=[i for i, _ in FRAME_CASES]
    )
    def test_parent_frames_give_every_masked_frame(self, s):
        n_qubits = s.n_qubits
        full = (1 << n_qubits) - 1
        q_le, _, graph0 = find_graph_equivalence(s)
        orbit = lc_orbit(graph0)
        z_frames = [z for _, _, z, _ in witnesses._orbit_pullback(q_le, orbit)]
        rng = random.Random(n_qubits)

        def spread(mask):
            return (mask << n_qubits) | mask

        projected = 0
        subsystems = all_subsystems(n_qubits)[n_qubits * (n_qubits - 1) // 2 :]
        for omega in subsystems:
            outside = spread(full ^ _qubit_mask(omega))
            parent = spread(full ^ _qubit_mask(omega[:-1]))
            # any member per distinct parent frame will do: pick one at random
            classes = collections.defaultdict(list)
            for z in z_frames:
                classes[parent & z].append(z)
            kept = [rng.choice(members) for members in classes.values()]
            projected += len(kept)
            assert {outside & z for z in kept} == {outside & z for z in z_frames}
        assert projected < len(subsystems) * len(z_frames)

    def test_graph_only_census_of_every_subsystem_is_the_walk(
        self, color_code, monkeypatch
    ):
        calls = []

        def walk(s):
            calls.append(s)
            return enumerate_graph_based(s)

        monkeypatch.setattr(witnesses, "enumerate_graph_based", walk)
        census = run_census(color_code, ("graph",))
        assert calls == [color_code]
        assert census.totals()["graph_based"] == 3122
        run_census(color_code, ("graph",), [(5, 6), (1, 2, 5)])
        assert calls == [color_code]


def naive_masked_frame_graph_based(s: GeneratorSet) -> dict:
    """The graph-based census keyed by masked Z frame: the subsystem tree of
    ``_graph_census``, with one flood fill and one key per distinct Z frame
    masked to the qubits outside omega, the symmetry sweep by masked frame
    images, and a set to merge the frames that give one key."""
    n_qubits = s.n_qubits
    q_le, _, graph0 = find_graph_equivalence(s)
    orbit = lc_orbit(graph0)
    symmetries = find_local_symmetries(s)
    frames = [
        (member.adjacency, z, x)
        for member, _, z, x in witnesses._orbit_pullback(q_le, orbit)
    ]
    others = [sym for sym in symmetries if not sym.is_identity()]
    full = (1 << n_qubits) - 1
    out = {}
    size, parents, level = 0, {}, {}
    for omega in all_subsystems(n_qubits):
        if len(omega) != size:
            size, parents, level = len(omega), level, {}
        mask = _qubit_mask(omega)
        outside = ((full ^ mask) << n_qubits) | (full ^ mask)
        leaf = omega[-1] == n_qubits
        members = (parents.pop if leaf else parents.get)(omega[:-1], frames)
        distinct = {outside & frame[1]: frame for frame in members}
        if not leaf:
            level[omega] = list(distinct.values())
        indices = [q - 1 for q in omega]
        keys = {}
        for masked, (adjacency, z, x) in distinct.items():
            if _connected_mask(adjacency, mask):
                rows = pulled_rows(z, x, adjacency, indices, n_qubits)
                keys[masked] = tuple(rows_rref(rows))
        for masked, key in list(keys.items()):
            for sym in others:
                image = _map_row(sym, masked)
                if image not in keys:
                    keys[image] = tuple(rows_rref([_map_row(sym, r) for r in key]))
        out[omega] = standard_specs(omega, set(keys.values()), n_qubits)
    return out


def neighbourhood(adjacency, mask: int, n_qubits: int) -> int:
    """The packed-row mask of S, the qubits outside the subsystem ``mask``
    with a neighbour in it: its Z and X bits on each such qubit."""
    hood = 0
    for u in range(n_qubits):
        if (mask >> u) & 1:
            hood |= adjacency[u]
    hood &= ~mask
    return (hood << n_qubits) | hood


def masked_frame_members(members, mask: int, n_qubits: int) -> list:
    """One orbit member, as (member, sequence, Z frame, X frame), per
    distinct Z frame masked to the qubits outside ``mask``: the members the
    census projects, and any one per frame gives the frame's key."""
    full = (1 << n_qubits) - 1
    outside = ((full ^ mask) << n_qubits) | (full ^ mask)
    return list({outside & entry[2]: entry for entry in members}.values())


def naive_frame_loop_graph_based(s: GeneratorSet) -> dict:
    """The graph-based keys by the subsystem tree's frame loop without
    carried keys: each subsystem masks the frames its parent kept, tests
    connectivity by one flood fill per new neighbourhood frame, reduces a
    connected one's pulled rows from scratch with ``rows_rref``, and sweeps
    every key it found by every symmetry."""
    n_qubits = s.n_qubits
    q_le, _, graph0 = find_graph_equivalence(s)
    orbit = lc_orbit(graph0)
    symmetries = find_local_symmetries(s)
    frames = [
        (member.adjacency, z, x)
        for member, _, z, x in witnesses._orbit_pullback(q_le, orbit)
    ]
    others = [sym for sym in symmetries if not sym.is_identity()]
    full = (1 << n_qubits) - 1
    out = {}
    size, parents, level = 1, {}, {(q,): frames for q in range(1, n_qubits)}
    for omega in all_subsystems(n_qubits):
        if len(omega) != size:
            size, parents, level = len(omega), level, {}
        mask = _qubit_mask(omega)
        outside = ((full ^ mask) << n_qubits) | (full ^ mask)
        leaf = omega[-1] == n_qubits
        members = parents.pop(omega[:-1]) if leaf else parents[omega[:-1]]
        distinct = {outside & frame[1]: frame for frame in members}
        if not leaf:
            level[omega] = list(distinct.values())
        indices = [q - 1 for q in omega]
        keys, apart = {}, set()
        for masked, (adjacency, z, x) in distinct.items():
            hood = 0
            for u in indices:
                hood |= adjacency[u]
            frame = masked & ((hood << n_qubits) | hood)
            if frame in keys or frame in apart:
                continue
            if _connected_mask(adjacency, mask):
                rows = pulled_rows(z, x, adjacency, indices, n_qubits)
                keys[frame] = tuple(rows_rref(rows))
            else:
                apart.add(frame)
        for frame, key in list(keys.items()):
            for sym in others:
                image = _map_row(sym, frame)
                if image not in keys:
                    keys[image] = tuple(rows_rref([_map_row(sym, r) for r in key]))
        out[omega] = sorted(keys.values())
    return out


# recipe graph 1 on 8 qubits has a 3,004-member orbit and graph 2 eight
# local symmetries
FRAME_LOOP_CASES = PULLBACK_CASES + RECIPE8_CASES[1:3]


class TestNeighbourhoodFrame:
    """``_graph_census`` keys a subsystem omega by the neighbourhood frame
    z & spread(S), S the qubits outside omega with a neighbour in omega:
    the span K of omega's generators is L(S, c_S), the members that are I
    outside omega and S and carry I or the frame's Z letter c_mu on each mu
    in S.  The parent's one key per masked Z frame is its oracle."""

    @pytest.mark.parametrize(
        "s", [s for _, s in TREE_CASES], ids=[i for i, _ in TREE_CASES]
    )
    def test_matches_masked_frame_keying(self, s):
        census = enumerate_graph_based(s)
        naive = naive_masked_frame_graph_based(s)
        assert list(census) == list(naive) == all_subsystems(s.n_qubits)
        for omega, specs in census.items():
            assert len(specs) == len(naive[omega])
            for spec, expected in zip(specs, naive[omega]):
                assert spec == expected
                assert spec.identity_key == expected.identity_key

    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_LOOP_CASES], ids=[i for i, _ in FRAME_LOOP_CASES]
    )
    def test_matches_frame_loop_without_carried_keys(self, s):
        census = enumerate_graph_based(s)
        assert census.witness_keys == naive_frame_loop_graph_based(s)
        assert list(census) == all_subsystems(s.n_qubits)

    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_CASES], ids=[i for i, _ in FRAME_CASES]
    )
    def test_key_is_the_neighbourhood_kernel(self, s):
        # L(S, c_S) brute-forced from the group's elements, on the seed and
        # sampled members, for every subsystem connected in the member
        n_qubits = s.n_qubits
        full = (1 << n_qubits) - 1
        elements = [pauli_row(g) for g in span_group(s).elements]
        q_le, _, graph0 = find_graph_equivalence(s)
        members = list(witnesses._orbit_pullback(q_le, lc_orbit(graph0)))
        sample = members[:1] + random.Random(n_qubits).sample(
            members[1:], min(4, len(members) - 1)
        )
        checked = 0
        for member, _, frame, x_frame in sample:
            rows = frame_rows(member, frame, x_frame)
            for omega in all_subsystems(n_qubits):
                mask = _qubit_mask(omega)
                if not _connected_mask(member.adjacency, mask):
                    continue
                hood = neighbourhood(member.adjacency, mask, n_qubits)
                # the packed-row mask of omega's letters
                inside = (mask << n_qubits) | mask
                kernel = []
                for g in elements:
                    off = g ^ frame
                    # qubits where g is not I and not the frame's letter
                    clash = ((g >> n_qubits) | g) & ((off >> n_qubits) | off)
                    if not g & ~(hood | inside) and not clash & (hood & full):
                        kernel.append(g)
                pulled = rows_rref([rows[q - 1] for q in omega])
                assert pulled == rows_rref(kernel)
                checked += 1
        assert checked

    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_CASES], ids=[i for i, _ in FRAME_CASES]
    )
    def test_distinct_frames_give_distinct_keys(self, s):
        # over one member per masked frame, the members the census projects,
        # neighbourhood frames and keys of connected members match one to one
        n_qubits = s.n_qubits
        q_le, _, graph0 = find_graph_equivalence(s)
        members = list(witnesses._orbit_pullback(q_le, lc_orbit(graph0)))
        merged = 0
        for omega in all_subsystems(n_qubits):
            mask = _qubit_mask(omega)
            kept = masked_frame_members(members, mask, n_qubits)
            by_frame, by_key = {}, {}
            for member, _, z, x in kept:
                if not _connected_mask(member.adjacency, mask):
                    continue
                frame = z & neighbourhood(member.adjacency, mask, n_qubits)
                rows = pulled_rows(
                    z, x, member.adjacency, [q - 1 for q in omega], n_qubits
                )
                key = tuple(rows_rref(rows))
                assert by_frame.setdefault(frame, key) == key
                assert by_key.setdefault(key, frame) == frame
            merged += len(kept) - len(by_frame)
        # some masked frames share a neighbourhood frame
        assert merged

    @pytest.mark.parametrize(
        "s", [s for _, s in FRAME_CASES], ids=[i for i, _ in FRAME_CASES]
    )
    def test_connectivity_is_a_function_of_the_neighbourhood_frame(self, s):
        # the census tests one member per (subsystem, neighbourhood frame),
        # so every member with that frame must agree on the subsystem
        n_qubits = s.n_qubits
        q_le, _, graph0 = find_graph_equivalence(s)
        members = list(witnesses._orbit_pullback(q_le, lc_orbit(graph0)))
        seen = {}
        for omega in all_subsystems(n_qubits):
            mask = _qubit_mask(omega)
            for member, _, z, _ in members:
                frame = z & neighbourhood(member.adjacency, mask, n_qubits)
                connected = _connected_mask(member.adjacency, mask)
                assert seen.setdefault((mask, frame), connected) == connected
        assert len(seen) < len(members) * len(all_subsystems(n_qubits))

    @pytest.mark.parametrize("case", ["ring8", "recipe8_0", "recipe8_1", "recipe8_2"])
    def test_each_key_grows_by_one_row_insertion(self, case, monkeypatch):
        # a child's key is its parent's key plus one pulled row, and a
        # symmetry image's key its mapped rows folded in: every insertion
        # adds an independent row, none is a rows_rref from scratch, and the
        # walk inserts fewer rows than rebuilding every key would
        s = dict(TREE_CASES)[case]
        grown = []
        insert = witnesses._insert_reduced

        def counted(key, row):
            out = insert(key, row)
            grown.append(len(out) - len(key))
            return out

        def refused(rows):
            raise AssertionError("the census reduced a key from scratch")

        monkeypatch.setattr(witnesses, "_insert_reduced", counted)
        monkeypatch.setattr(witnesses, "rows_rref", refused)
        census = enumerate_graph_based(s)
        rows = sum(len(key) for keys in census.witness_keys.values() for key in keys)
        assert set(grown) == {1}
        assert len(grown) < rows


def naive_xz_form(paulis):
    """The X/Z split read off all 2^n members of the spanned subgroup: the
    (X part, Z part) pair of ``rows_rref`` bases as Paulis, or None."""
    n_qubits = paulis[0].n_qubits
    members = span_paulis(list(paulis))
    x_basis = rows_rref(pauli_row(p) for p in members if p.z_bits == 0)
    z_basis = rows_rref(pauli_row(p) for p in members if p.x_bits == 0)
    if len(x_basis) + len(z_basis) != rows_rank(pauli_row(p) for p in paulis):
        return None
    return (
        tuple(pauli_from_row(r, n_qubits) for r in x_basis),
        tuple(pauli_from_row(r, n_qubits) for r in z_basis),
    )


def xz_form(spec: WitnessSpec):
    """The (X part, Z part) of a spec's two-measurement variant, or None."""
    variant = two_measurement_from_standard(spec)
    return None if variant is None else (variant.x_basis, variant.z_basis)


def subset_spec(subset: GeneratorSubset) -> WitnessSpec:
    return WitnessSpec.standard_local(subset.omega, subset.stabilizers)


def naive_xz_split(rows, n_qubits):
    """The X/Z split of the subgroup whose ``rows_rref`` basis is ``rows``,
    by a rank test and the span: the X-only members have dimension n minus
    the rank of the Z parts and the Z-only members n minus the rank of the
    X parts, so a split exists exactly when the two ranks add up to n, and
    its parts are the ``rows_rref`` keys of those members."""
    n = len(rows)
    x_mask = (1 << n_qubits) - 1
    z_rank = rows_rank(r >> n_qubits for r in rows)
    if z_rank + rows_rank(r & x_mask for r in rows) != n:
        return None
    members = _span_rows(rows)
    x_rows = rows_rref(m for m in members if m >> n_qubits == 0)
    z_rows = rows_rref(m for m in members if m & x_mask == 0)
    return tuple(x_rows), tuple(z_rows)


def random_rref_bases(rng, n_qubits, count):
    """``rows_rref`` bases of random packed rows, commuting or not: each row
    is X-only, Z-only or unrestricted with equal odds, so splits and
    misses both occur."""
    x_mask = (1 << n_qubits) - 1
    masks = (x_mask, x_mask << n_qubits, (x_mask << n_qubits) | x_mask)
    for _ in range(count):
        rows = [
            rng.getrandbits(2 * n_qubits) & rng.choice(masks)
            for _ in range(rng.randint(1, 2 * n_qubits))
        ]
        basis = rows_rref(rows)
        if basis:
            yield basis


# (state, direct witnesses, of which split)
SPLIT_CASES = (
    [("color_code_7", build_color_code(), 3927, 476)]
    + [
        (name, s, total, hits)
        for (name, s), total, hits in zip(
            RECIPE8_CASES, (18348, 17095, 19220, 18832), (0, 1, 2, 0)
        )
    ]
    + [("ring9", ring_group(9).generator_set, 74640, 0)]
)


class TestXZSplitRule:
    """``_xz_split`` partitions a key's rows; the rank test and the span,
    ``naive_xz_split``, are its oracle."""

    @pytest.mark.parametrize(
        "s,total,hits", [c[1:] for c in SPLIT_CASES], ids=[c[0] for c in SPLIT_CASES]
    )
    def test_matches_oracle_on_every_census_witness(self, s, total, hits):
        splits = []
        for specs in direct_census(span_group(s)).values():
            for spec in specs:
                split = witnesses._xz_split(spec.rows, s.n_qubits)
                assert split == naive_xz_split(spec.rows, s.n_qubits)
                splits.append(split)
        assert len(splits) == total
        assert sum(split is not None for split in splits) == hits

    @pytest.mark.parametrize("n_qubits", range(2, 8))
    def test_matches_oracle_on_random_rref_bases(self, n_qubits):
        rng = random.Random(1200 + n_qubits)
        hits = misses = 0
        for rows in random_rref_bases(rng, n_qubits, 300):
            split = witnesses._xz_split(rows, n_qubits)
            assert split == naive_xz_split(rows, n_qubits)
            hits += split is not None
            misses += split is None
        assert hits and misses

    def test_census_reduces_once(self, color_code, monkeypatch):
        # the group's own basis, reduced once as ``StabilizerGroup.key`` and
        # shared by the search and ``group_key``; the split reads each
        # witness's key as it is, where reducing every census witness again
        # took 953 calls.  Every module's binding of ``rows_rref`` counts.
        calls = []
        reduce = rows_rref

        def counted(rows):
            calls.append(None)
            return reduce(rows)

        for name, module in list(sys.modules.items()):
            if name == "stabwitness" or name.startswith("stabwitness."):
                for attr, value in list(vars(module).items()):
                    if value is reduce:
                        monkeypatch.setattr(module, attr, counted)
        census = run_census(color_code, ("direct", "twomeas"))
        assert census.totals()["two_measurement"] == 476
        assert len(calls) == 1

    def test_census_splits_only_keys_of_pure_members(self, color_code, monkeypatch):
        # the census splits only the keys whose rows are all X-only or Z-only
        # members: each of its ``_xz_split`` calls returns a split, where
        # splitting every direct witness took 3,927 calls for the 476 variants
        results = []
        split = witnesses._xz_split

        def counted(rows, n_qubits):
            results.append(split(rows, n_qubits))
            return results[-1]

        monkeypatch.setattr(witnesses, "_xz_split", counted)
        census = run_census(color_code, ("direct", "twomeas"))
        assert census.totals()["direct"] == 3927
        assert len(results) == 476
        assert sum(r is not None for r in results) == 476


def naive_two_measurement_variants(specs):
    """The two-measurement column before the set test on pure members:
    every direct witness through ``two_measurement_from_standard``, the
    variants sorted by key."""
    variants = [v for v in map(two_measurement_from_standard, specs) if v is not None]
    variants.sort(key=lambda w: w.identity_key)
    return variants


def _xz_swap_cases() -> list:
    """color_code_7 and the rings of 5..8 qubits under three seeded letter
    maps each that swap X and Z on a random set of qubits, and the even
    rings under the swap on every other qubit, which makes every member X-
    or Z-type up to the swap: each map changes which members are X-only or
    Z-only."""
    bases = [("color_code_7", build_color_code())]
    bases += [(f"ring{n}", ring_group(n).generator_set) for n in range(5, 9)]
    cases = []
    for name, s in bases:
        n = s.n_qubits
        rng = random.Random(n)
        maps = ["".join(rng.choice("IH") for _ in range(n)) for _ in range(3)]
        if name.startswith("ring") and n % 2 == 0:
            maps.append("IH" * (n // 2))
        for names in maps:
            swapped = apply_to_generators(LocalClifford.from_names(names), s)
            cases.append((f"{name}_{names}", swapped))
    return cases


TWO_MEASUREMENT_CASES = _filter_cases(8) + _xz_swap_cases()

# two-measurement witnesses of each case with a split; every other case has none
TWO_MEASUREMENT_TOTALS = {
    "color_code_7": 476,
    "ghz": 3,
    "disjoint_pairs": 6,
    "random5_1_0": 2,
    "random6_0_0": 2,
    "random6_0_1": 2,
    "random8_1_1": 1,
    "color_code_7_IIIIHHI": 2,
    "color_code_7_IIHIIII": 37,
    "ring5_HHIHI": 4,
    "ring6_HHHIHH": 1,
    "ring6_IHIHIH": 140,
    "ring7_HIHIIIH": 4,
    "ring8_IIHIHHHH": 1,
    "ring8_HIHIHIIH": 13,
    "ring8_IHIHIHIH": 1184,
}


class TestTwoMeasurementColumn:
    """The census splits only the direct witnesses whose key rows are all
    X-only or Z-only members of the group, one set test each
    (``_two_measurement_variants``); splitting every direct witness,
    ``naive_two_measurement_variants``, is its oracle."""

    @pytest.mark.parametrize(
        "name,s", TWO_MEASUREMENT_CASES, ids=[name for name, _ in TWO_MEASUREMENT_CASES]
    )
    def test_census_matches_oracle(self, name, s):
        census = run_census(s, ("direct", "twomeas"))
        assert list(census.two_measurement) == census.subsystems()
        for omega in census.subsystems():
            expected = naive_two_measurement_variants(census.direct[omega])
            assert census.two_measurement[omega] == expected
        assert census.totals()["two_measurement"] == TWO_MEASUREMENT_TOTALS.get(name, 0)

    @pytest.mark.parametrize(
        "s", [s for _, s in TWO_MEASUREMENT_CASES],
        ids=[name for name, _ in TWO_MEASUREMENT_CASES],
    )
    def test_restricted_census_matches_oracle(self, s):
        # every subsystem with a split, plus a seeded handful, shuffled
        full = run_census(s, ("direct", "twomeas"))
        rng = random.Random(s.n_qubits)
        split = [o for o in full.subsystems() if full.two_measurement[o]]
        rest = [o for o in full.subsystems() if o not in split]
        omegas = split + rng.sample(rest, min(5, len(rest)))
        rng.shuffle(omegas)
        census = run_census(s, ("direct", "twomeas"), omegas)
        assert list(census.two_measurement) == omegas
        for omega in omegas:
            expected = naive_two_measurement_variants(census.direct[omega])
            assert census.two_measurement[omega] == expected
            assert census.two_measurement[omega] == full.two_measurement[omega]

    def test_enumerate_matches_oracle_on_every_color_code_subsystem(
        self, color_code, color_group
    ):
        total = 0
        for omega in all_subsystems(7):
            census = run_census(color_code, ("twomeas",), [omega])
            variants = census.two_measurement[omega]
            expected = naive_two_measurement_variants(enumerate_direct(color_group, omega))
            assert variants == expected
            total += len(variants)
        assert total == 476

    def test_column_reads_build_no_spec(self, color_code, monkeypatch):
        census = run_census(color_code)
        columns = (census.direct, census.graph_based, census.two_measurement)
        assert len({type(column) for column in columns}) == 1
        built = []
        post_init = WitnessSpec.__post_init__

        def counted(spec, key):
            built.append(spec)
            post_init(spec, key)

        monkeypatch.setattr(WitnessSpec, "__post_init__", counted)
        column = census.two_measurement
        assert len(column) == 119 and (5, 6) in column and (5,) not in column
        assert list(column) == census.subsystems()
        assert sum(map(len, column.witness_keys.values())) == 476
        assert column.witness_keys[(5, 6)] == sorted(column.witness_keys[(5, 6)])
        assert not built
        # each read builds a subsystem's specs from its splits, and keeps none
        specs = column[(5, 6)]
        assert len(built) == 4
        again = column[(5, 6)]
        assert len(built) == 8 and again == specs
        assert [w.identity_key for w in specs] == column.witness_keys[(5, 6)]

    @pytest.mark.parametrize("state", ["color_code_7", "recipe8_0"])
    def test_no_spec_outlives_its_reader(self, state):
        # a column keeps none of the specs it builds: once the reader drops
        # its lists, a heap scan finds no more specs than before the reads
        s = build_color_code() if state == "color_code_7" else RECIPE8_CASES[0][1]
        census = run_census(s)

        def live_specs():
            return sum(type(o) is WitnessSpec for o in gc.get_objects())

        before = live_specs()
        read = 0
        for column in (census.direct, census.graph_based, census.two_measurement):
            lists = [column[omega] for omega in column]
            read += sum(map(len, lists))
            assert live_specs() - before == sum(map(len, lists))
            del lists
        assert read == sum(census.totals().values())
        assert live_specs() == before

    def test_pure_members_are_the_x_only_and_z_only_members(self, color_group):
        pure = witnesses._pure_members(color_group)
        expected = {
            pauli_row(p) for p in color_group.elements if not (p.x_bits and p.z_bits)
        }
        assert pure == expected
        # I, the 15 X-only members (the three X plaquettes and XXXXXXX
        # span 16) and the 7 Z-only ones
        assert len(pure) == 1 + 15 + 7


class TestXZForm:
    def test_rank_test_matches_oracle_on_color_code(self, full_census):
        hits = 0
        for specs in full_census.direct.values():
            for spec in specs:
                form = xz_form(spec)
                assert form == naive_xz_form(spec.basis)
                hits += form is not None
        assert hits > 0

    @pytest.mark.parametrize("n_qubits", [5, 6])
    def test_rank_test_matches_oracle_on_random_subgroups(self, n_qubits):
        rng = random.Random(200 + n_qubits)
        hits = misses = 0
        for _ in range(20):
            elements = span_group(random_stabilizer_set(rng, n_qubits)).elements
            for _ in range(20):
                basis = rng.sample(elements[1:], rng.randint(1, n_qubits))
                rows = tuple(pauli_row(p) for p in basis)
                spec = WitnessSpec(witnesses.WitnessKind.STANDARD, None, n_qubits, rows)
                form = xz_form(spec)
                assert form == naive_xz_form(basis)
                hits += form is not None
                misses += form is None
        assert hits and misses

    def test_plaquette_example(self):
        form = xz_form(subset_spec(E1_SUBSET))
        assert form is not None
        x_part, z_part = form
        assert [p.to_text() for p in x_part] == ["XXXXIII"]
        # spans {ZIZIZIZ, IZZIZZI, IIZZIZZ} up to basis choice
        assert len(z_part) == 3
        for p in z_part:
            assert set(p.to_text()) <= {"I", "Z"}
        assert basis_key(z_part) == basis_key(
            [parse_pauli("ZIZIZIZ"), parse_pauli("IZZIZZI"), parse_pauli("IIZZIZZ")]
        )

    def test_all_z_subset_is_its_own_form(self):
        subset = GeneratorSubset(
            (2, 3), (parse_pauli("ZZZZIII"), parse_pauli("IZZIZZI"))
        )
        form = xz_form(subset_spec(subset))
        assert form is not None
        x_part, z_part = form
        assert x_part == ()
        assert len(z_part) == 2

    def test_y_heavy_subgroup_has_no_form(self):
        # every non-identity member carries a Y letter
        subset = GeneratorSubset((1, 2), (parse_pauli("YI"), parse_pauli("IY")))
        for member in span_paulis(list(subset.stabilizers)):
            if not member.is_identity:
                assert "Y" in member.to_text()
        assert xz_form(subset_spec(subset)) is None


class TestTwoMeasurement:
    def test_color_code_counts(self, color_code):
        for omega, count in [((5, 6), 4), ((1, 2, 3, 4), 9)]:
            census = run_census(color_code, ("twomeas",), [omega])
            assert len(census.two_measurement[omega]) == count

    def test_total(self, full_census):
        assert sum(len(v) for v in full_census.two_measurement.values()) == 476

    def test_parts_are_pure(self, full_census):
        rng = random.Random(83)
        omegas = rng.sample(full_census.subsystems(), 8)
        for omega in omegas:
            for spec in full_census.two_measurement[omega]:
                for p in spec.x_basis:
                    assert set(p.to_text()) <= {"I", "X"}
                for p in spec.z_basis:
                    assert set(p.to_text()) <= {"I", "Z"}

    def test_census_matches_per_subsystem_enumeration(
        self, full_census, color_code
    ):
        for omega in full_census.subsystems():
            census = run_census(color_code, ("twomeas",), [omega])
            assert full_census.two_measurement[omega] == census.two_measurement[omega]

    def test_census_bases_are_rref_fixed_points(self, full_census):
        # the census split takes a witness's basis rows as its RREF basis
        census = direct_census(span_group(random_stabilizer_set(random.Random(6), 6)))
        buckets = [full_census.direct, full_census.graph_based, census]
        for bucket in buckets:
            for specs in bucket.values():
                for spec in specs:
                    rows = [pauli_row(p) for p in spec.basis]
                    assert rows == rows_rref(rows)
        # the census keys two-measurement variants by the split's own rows
        for specs in full_census.two_measurement.values():
            for spec in specs:
                for part in (spec.x_basis, spec.z_basis):
                    rows = [pauli_row(p) for p in part]
                    assert rows == rows_rref(rows)

    def test_census_split_matches_public_split(self, full_census):
        seen = {}
        for omega, specs in full_census.direct.items():
            for spec in specs:
                variant = two_measurement_from_standard(spec)
                if variant is not None:
                    seen[(omega, variant.identity_key)] = variant
        expected = {
            omega: [seen[k] for k in sorted(seen) if k[0] == omega]
            for omega in full_census.subsystems()
        }
        assert full_census.two_measurement == expected

    def test_derived_from_standard(self, color_group):
        for spec in enumerate_direct(color_group, (5, 6)):
            variant = two_measurement_from_standard(spec)
            if variant is None:
                continue
            from stabwitness.groups import basis_key

            assert basis_key(variant.basis) == spec.identity_key


def naive_standard_specs(omega, keys, n_qubits):
    """Census witnesses as they were built while specs held operators: one
    ``PauliOperator`` per row of each subgroup key, sorted by key, as
    (omega, basis) pairs."""
    return [
        (omega, tuple(pauli_from_row(r, n_qubits) for r in key))
        for key in sorted(keys)
    ]


def naive_two_measurement_parts(bases, n_qubits):
    """The (X part, Z part) operator pairs of the two-measurement variants
    of census bases, as they were built while specs held operators: the
    split of each basis's rows, one ``PauliOperator`` per split row,
    deduplicated and sorted by the split."""
    seen = {}
    for basis in bases:
        split = naive_xz_split([pauli_row(p) for p in basis], n_qubits)
        if split is not None:
            seen[split] = tuple(
                tuple(pauli_from_row(r, n_qubits) for r in part) for part in split
            )
    return [seen[k] for k in sorted(seen)]


def texts(paulis):
    return [p.to_text() for p in paulis]


class TestPackedSpecs:
    """Specs hold packed rows; the operator construction is the oracle for
    the derived ``basis``, ``x_basis`` and ``z_basis`` views."""

    @pytest.mark.parametrize("state", ["color_code_7", 0, 1, 2, 3])
    def test_census_specs_match_operator_construction(self, state):
        if state == "color_code_7":
            s = build_color_code()
        else:
            s = random_stabilizer_set(random.Random(state), 8)
        n_qubits = s.n_qubits
        census = run_census(s)
        direct_specs = {}
        for bucket in (census.direct, census.graph_based):
            assert list(bucket) == census.subsystems()
            for omega, keys in bucket.witness_keys.items():
                assert keys == sorted(keys)
                specs = bucket[omega]
                # built on each access, equal each time
                assert bucket[omega] == specs
                naive = naive_standard_specs(omega, keys, n_qubits)
                assert len(specs) == len(naive)
                for (naive_omega, basis), spec in zip(naive, specs):
                    assert spec.omega == naive_omega
                    assert texts(spec.basis) == texts(basis)
                    assert spec.identity_key == basis_key(spec.basis)
                    rebuilt = WitnessSpec.standard_local(naive_omega, basis)
                    assert rebuilt == spec and hash(rebuilt) == hash(spec)
                    assert rebuilt.identity_key == spec.identity_key
                if bucket is census.direct:
                    direct_specs.update(((omega, k), w) for k, w in zip(keys, specs))
                else:
                    # the graph column's specs equal the direct specs of its keys
                    assert specs == [direct_specs[omega, k] for k in keys]
        assert sum(map(len, census.graph_based.values())) > 0

        for omega, specs in census.two_measurement.items():
            bases = [w.basis for w in census.direct[omega]]
            naive = naive_two_measurement_parts(bases, n_qubits)
            assert len(specs) == len(naive)
            for (x_part, z_part), spec in zip(naive, specs):
                assert texts(spec.x_basis) == texts(x_part)
                assert texts(spec.z_basis) == texts(z_part)
                assert texts(spec.basis) == texts(x_part + z_part)
                assert spec.identity_key == (
                    basis_key(spec.x_basis),
                    basis_key(spec.z_basis),
                )
        if state == "color_code_7":
            assert census.totals() == {
                "direct": 3927, "graph_based": 3122, "two_measurement": 476
            }

    def test_views_are_built_on_each_access(self, full_census):
        spec = full_census.two_measurement[(5, 6)][0]
        for view in ("basis", "x_basis", "z_basis"):
            assert getattr(spec, view) == getattr(spec, view)
            assert getattr(spec, view) is not getattr(spec, view)
        assert "basis" not in vars(spec) and "x_basis" not in vars(spec)

    def test_pauli_constructors_keep_basis_order(self, color_group):
        spec = enumerate_direct(color_group, (1, 2, 3, 4))[5]
        basis = spec.basis[::-1]
        reordered = WitnessSpec.standard_local((4, 3, 2, 1), basis)
        assert texts(reordered.basis) == texts(basis)
        assert reordered != spec
        assert reordered.identity_key == spec.identity_key
        alternative = WitnessSpec.alternative_from(reordered)
        assert alternative.rows == reordered.rows
        assert alternative.identity_key is reordered.identity_key
        genuine = WitnessSpec.standard_genuine(color_group.generator_set)
        assert texts(genuine.basis) == texts(color_group.generator_set.generators)

    def test_replaced_rows_get_their_own_key(self, color_group):
        spec, other = enumerate_direct(color_group, (5, 6))[:2]
        moved = dataclasses.replace(spec, rows=other.rows[::-1])
        assert moved != other
        assert moved.identity_key == other.identity_key != spec.identity_key

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            WitnessSpec.standard_local(
                (1, 2), [parse_pauli("XXI"), parse_pauli("ZZ")]
            )
        with pytest.raises(ValueError, match="out of range for 2 qubits"):
            WitnessSpec(witnesses.WitnessKind.STANDARD, None, 2, (1 << 4,))


class TestUncheckedSpecs:
    """The census views build each spec with the checked constructor from
    a key that is its rows; the constructor that reduces its own key is
    their oracle."""

    @pytest.mark.parametrize("state", ["color_code_7", "ring7"])
    def test_census_specs_equal_checked_construction(self, state):
        if state == "color_code_7":
            group = span_group(build_color_code())
        else:
            group = ring_group(7)
        n_qubits = group.n_qubits
        direct = direct_census(group)
        omegas = [(1, 2), (2, 5, 6), (1, 2, 3, 4), (3, 4, 5, 6, 7)]
        buckets = [
            direct,
            {omega: enumerate_direct(group, omega) for omega in omegas},
            enumerate_graph_based(group.generator_set),
        ]
        checked = 0
        for bucket in buckets:
            assert any(bucket.values())
            for omega, specs in bucket.items():
                for spec in specs:
                    oracle = WitnessSpec(
                        witnesses.WitnessKind.STANDARD, omega, n_qubits, spec.rows
                    )
                    assert spec == oracle
                    assert hash(spec) == hash(oracle)
                    assert repr(spec) == repr(oracle)
                    assert spec.identity_key == oracle.identity_key
                    # same fields, set in the same order
                    assert list(vars(spec).items()) == list(vars(oracle).items())
                    checked += 1
        assert checked > sum(map(len, direct.values()))


class TestTwoMeasurementParts:
    """A two-measurement spec's basis is its X part then its Z part."""

    def test_census_basis_is_x_then_z(self, full_census):
        for specs in full_census.two_measurement.values():
            for spec in specs:
                assert spec.rows == spec.x_rows + spec.z_rows
                assert spec.basis == spec.x_basis + spec.z_basis

    def test_unrelated_basis_rejected(self):
        kind = witnesses.WitnessKind.TWO_MEASUREMENT
        x_rows = (0b011,)  # XXI
        z_rows = (0b110 << 3,)  # IZZ
        spec = WitnessSpec(kind, None, 3, x_rows + z_rows, x_rows, z_rows)
        assert texts(spec.basis) == ["XXI", "IZZ"]
        for rows in [z_rows + x_rows, (0b111,) + z_rows, x_rows]:
            with pytest.raises(ValueError, match="X part then its Z part"):
                WitnessSpec(kind, None, 3, rows, x_rows, z_rows)
        with pytest.raises(ValueError, match="needs X and Z parts"):
            WitnessSpec(kind, None, 3, x_rows, x_rows)
        with pytest.raises(ValueError, match="at least one basis"):
            WitnessSpec(kind, None, 3, (), x_rows=(), z_rows=())

    def test_z_row_in_x_part_rejected(self):
        kind = witnesses.WitnessKind.TWO_MEASUREMENT
        z1, x2 = 1 << 2, 1 << 1  # ZI, IX on two qubits
        with pytest.raises(ValueError, match="^two-measurement X part holds ZI,"):
            WitnessSpec(kind, None, 2, (z1, x2), x_rows=(z1,), z_rows=(x2,))
        y1 = (1 << 2) | 1  # YI
        with pytest.raises(ValueError, match="^two-measurement X part holds YI,"):
            WitnessSpec(kind, None, 2, (y1, z1 << 1), x_rows=(y1,), z_rows=(z1 << 1,))

    def test_x_row_in_z_part_rejected(self):
        kind = witnesses.WitnessKind.TWO_MEASUREMENT
        x1, y2 = 1, (1 << 3) | (1 << 1)  # XI, IY on two qubits
        with pytest.raises(ValueError, match="^two-measurement Z part holds IY,"):
            WitnessSpec(kind, None, 2, (x1, y2), x_rows=(x1,), z_rows=(y2,))
        with pytest.raises(ValueError, match="^two-measurement Z part holds XI,"):
            WitnessSpec(kind, None, 2, (x1,), x_rows=(), z_rows=(x1,))

    def test_standard_parts_must_split_its_subgroup(self):
        # a standard or alternative spec takes no X/Z parts, valid or not:
        # its X/Z split is read off its key
        xx, zz, xi, iz = 0b11, 0b11 << 2, 0b01, 0b10 << 2
        for kind in (witnesses.WitnessKind.STANDARD, witnesses.WitnessKind.ALTERNATIVE):
            for parts in [
                {"x_rows": (xi,), "z_rows": (iz,)},  # no members of the span
                {"x_rows": (xx,)},
                {"z_rows": (zz,)},
                {"x_rows": (zz,), "z_rows": (xx,)},  # parts of the wrong type
                {"x_rows": (), "z_rows": (xx,)},
                {"x_rows": (xx,), "z_rows": (zz,)},  # the subgroup's own split
                {"x_rows": (), "z_rows": ()},
            ]:
                with pytest.raises(
                    ValueError, match=f"^{kind.value} witness takes no X/Z parts$"
                ):
                    WitnessSpec(kind, None, 2, (zz, xx ^ zz), **parts)
            spec = WitnessSpec(kind, None, 2, (zz, xx ^ zz))
            assert spec.identity_key == tuple(rows_rref((xx, zz)))
            split = two_measurement_from_standard(spec)
            assert (split.x_rows, split.z_rows) == ((xx,), (zz,))

    def test_kind_is_a_witness_kind(self):
        # a kind's value string is that kind; any other kind is refused
        # before the spec is built
        kind = witnesses.WitnessKind.TWO_MEASUREMENT
        spec = WitnessSpec("two-measurement", None, 2, (1, 8), (1,), (8,))
        assert spec.kind is kind
        assert spec == WitnessSpec(kind, None, 2, (1, 8), (1,), (8,))
        assert spec.identity_key == ((1,), (8,))
        standard = WitnessSpec("standard", None, 2, (8, 1))
        assert standard.kind is witnesses.WitnessKind.STANDARD
        assert two_measurement_from_standard(standard) == spec
        for bad in ("bogus", "twomeas", None, 2):
            with pytest.raises(ValueError, match="is not a valid WitnessKind"):
                WitnessSpec(bad, None, 2, (1, 8))


class TestSpecArguments:
    """A spec's rows and parts are tuples of ints and its scope is None or a
    subsystem, checked at construction."""

    def test_rows_parts_and_scope_are_tuples(self):
        # a list was kept as given, so the spec compared unequal to the same
        # spec with a tuple and could not be hashed, and list parts were
        # refused as "not its X part then its Z part"
        standard = WitnessSpec("standard", [1, 2], 3, [3, 24])
        assert (standard.omega, standard.rows) == ((1, 2), (3, 24))
        assert standard == WitnessSpec("standard", (1, 2), 3, (3, 24))
        assert hash(standard) == hash(WitnessSpec("standard", (1, 2), 3, (3, 24)))
        split = WitnessSpec("two-measurement", None, 2, (1, 8), [1], [8])
        assert (split.rows, split.x_rows, split.z_rows) == ((1, 8), (1,), (8,))
        assert split == WitnessSpec("two-measurement", None, 2, (1, 8), (1,), (8,))
        hash(split)

    @pytest.mark.parametrize(
        "field,args,message",
        [
            ("rows", ("standard", None, 3, (True, 8)), "True"),
            ("rows", ("standard", None, 3, (3, 24.0)), "24.0"),
            ("rows", ("standard", None, 3, ("3", 24, None)), "'3', None"),
            ("x_rows", ("two-measurement", None, 2, (1, 8), (True,), (8,)), "True"),
            ("z_rows", ("two-measurement", None, 2, (1, 8), (1,), (8.0,)), "8.0"),
        ],
        ids=["bool", "float", "str-and-none", "bool-x-part", "float-z-part"],
    )
    def test_entries_that_are_not_ints_are_named(self, field, args, message):
        with pytest.raises(ValueError) as err:
            WitnessSpec(*args)
        assert str(err.value) == f"{field} holds entries that are not integers: {message}"

    @pytest.mark.parametrize(
        "field,args",
        [
            ("rows", ("standard", None, 3, 5)),
            ("omega", ("standard", 5, 3, (1,))),
            ("x_rows", ("two-measurement", None, 2, (1, 8), 5, (8,))),
            ("z_rows", ("two-measurement", None, 2, (1, 8), (1,), 5)),
        ],
    )
    def test_fields_that_are_not_collections_are_named(self, field, args):
        # a bare int raised "TypeError: 'int' object is not iterable"
        with pytest.raises(ValueError) as err:
            WitnessSpec(*args)
        assert str(err.value) == f"{field} must be a collection, not 5"

    @pytest.mark.parametrize(
        "omega,message",
        [
            ((0, 9), "omega outside 1..3"),
            ((1, 4), "omega outside 1..3"),
            ((2, 1), "omega must be sorted and duplicate-free"),
            ((1, 1), "omega must be sorted and duplicate-free"),
        ],
    )
    def test_scope_is_a_subsystem(self, omega, message):
        # such a scope was built and failed only later, in subset(), with
        # GeneratorSubset's message; it fails at construction with that
        # message now
        rows = (0b011, 0b110 << 3)  # XXI, IZZ
        for kind in (witnesses.WitnessKind.STANDARD, witnesses.WitnessKind.ALTERNATIVE):
            with pytest.raises(ValueError, match=f"^{message}$"):
                WitnessSpec(kind, omega, 3, rows)
        if omega != (2, 1):  # standard_local sorts its scope
            basis = [parse_pauli("XXI"), parse_pauli("IZZ")]
            with pytest.raises(ValueError, match=f"^{message}$"):
                WitnessSpec.standard_local(omega, basis)


# The paper's tables of the color code's subsystem classes; the library
# derives both from the code's group.
PAPER_STRING_LIKE = [
    (1, 2, 5), (1, 4, 7), (5, 6, 7), (1, 3, 6), (3, 4, 5), (2, 3, 7), (2, 4, 6),
]
PAPER_PLAQUETTE_LIKE = [
    (1, 2, 3, 4), (2, 3, 5, 6), (3, 4, 6, 7), (1, 2, 6, 7),
    (1, 4, 5, 6), (2, 4, 5, 7), (1, 3, 5, 7),
]


class TestClassify:
    def test_string_like(self):
        for omega in PAPER_STRING_LIKE:
            assert classify_subsystem(omega) is SubsystemClass.STRING_LIKE
        assert classify_subsystem((1, 2, 3)) is SubsystemClass.NON_STRING_LIKE

    def test_plaquette_like(self):
        for omega in PAPER_PLAQUETTE_LIKE:
            assert classify_subsystem(omega) is SubsystemClass.PLAQUETTE_LIKE
        assert classify_subsystem((1, 2, 3, 5)) is SubsystemClass.NON_PLAQUETTE_LIKE

    def test_classes_are_the_paper_tables(self):
        # every 3- and 4-subset, in any label order, lands where the
        # paper's tables put it
        tables = {3: set(PAPER_STRING_LIKE), 4: set(PAPER_PLAQUETTE_LIKE)}
        listed = {
            3: (SubsystemClass.STRING_LIKE, SubsystemClass.NON_STRING_LIKE),
            4: (SubsystemClass.PLAQUETTE_LIKE, SubsystemClass.NON_PLAQUETTE_LIKE),
        }
        for size, table in tables.items():
            for omega in itertools.combinations(range(1, 8), size):
                inside, outside = listed[size]
                expected = inside if omega in table else outside
                assert classify_subsystem(omega) is expected
                assert classify_subsystem(omega[::-1]) is expected

    def test_other_sizes(self):
        assert classify_subsystem((1, 2)) is SubsystemClass.UNCLASSIFIED
        assert classify_subsystem((1, 2, 3, 4, 5)) is SubsystemClass.UNCLASSIFIED


class TestSubsystems:
    def test_count_for_seven_qubits(self):
        assert len(all_subsystems(7)) == 119

    def test_ordering(self):
        subs = all_subsystems(4)
        assert subs[0] == (1, 2)
        assert subs == sorted(subs, key=lambda o: (len(o), o))
