import itertools
import random

import pytest

from stabwitness.binary import (
    anticommutation_mask,
    parse_pauli,
    pauli_from_row,
    rank_mod2,
)
from stabwitness.cliffords import apply
from stabwitness.graphs import is_connected_within, reduced_generator_subset
from stabwitness.groups import (
    GeneratorSet,
    GeneratorSubset,
    basis_key,
    span_group,
    span_paulis,
)
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
    enumerate_two_measurement,
    find_xz_form,
    pseudo_incidence,
    two_measurement_from_standard,
)

from conftest import random_graph, random_local_clifford, random_stabilizer_set
from test_binary import naive_rank, random_pauli
from test_groups import random_nonsingular

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

    def test_counterexample_not_graph_reachable(self, full_census):
        spec = WitnessSpec.standard_local((2, 3, 4), FIG6_SUBSET.stabilizers)
        direct_keys = {s.identity_key for s in full_census.direct[(2, 3, 4)]}
        graph_keys = {s.identity_key for s in full_census.graph_based[(2, 3, 4)]}
        assert spec.identity_key in direct_keys
        assert spec.identity_key not in graph_keys

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


class TestXZForm:
    def test_plaquette_example(self):
        form = find_xz_form(E1_SUBSET)
        assert form is not None
        assert [p.to_text() for p in form.x_part] == ["XXXXIII"]
        z_texts = {p.to_text() for p in form.z_part}
        # spans {ZIZIZIZ, IZZIZZI, IIZZIZZ} up to basis choice
        assert len(form.z_part) == 3
        for p in form.z_part:
            assert set(p.to_text()) <= {"I", "Z"}
        from stabwitness.groups import basis_key

        assert basis_key(form.z_part) == basis_key(
            [parse_pauli("ZIZIZIZ"), parse_pauli("IZZIZZI"), parse_pauli("IIZZIZZ")]
        )

    def test_all_z_subset_is_its_own_form(self):
        subset = GeneratorSubset(
            (2, 3), (parse_pauli("ZZZZIII"), parse_pauli("IZZIZZI"))
        )
        form = find_xz_form(subset)
        assert form is not None
        assert form.x_part == ()
        assert len(form.z_part) == 2

    def test_y_heavy_subgroup_has_no_form(self):
        # every non-identity member carries a Y letter
        subset = GeneratorSubset((1, 2), (parse_pauli("YI"), parse_pauli("IY")))
        for member in span_paulis(list(subset.stabilizers)):
            if not member.is_identity:
                assert "Y" in member.to_text()
        assert find_xz_form(subset) is None


class TestTwoMeasurement:
    def test_color_code_counts(self, color_group):
        assert len(enumerate_two_measurement(color_group, (5, 6))) == 4
        assert len(enumerate_two_measurement(color_group, (1, 2, 3, 4))) == 9

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
        self, full_census, color_group
    ):
        for omega in full_census.subsystems():
            assert full_census.two_measurement[omega] == (
                enumerate_two_measurement(color_group, omega)
            )

    def test_derived_from_standard(self, color_group):
        for spec in enumerate_direct(color_group, (5, 6)):
            variant = two_measurement_from_standard(spec)
            if variant is None:
                continue
            from stabwitness.groups import basis_key

            assert basis_key(variant.basis) == spec.identity_key


class TestClassify:
    def test_string_like(self):
        for omega in [(1, 2, 5), (1, 4, 7), (5, 6, 7), (1, 3, 6), (3, 4, 5), (2, 3, 7), (2, 4, 6)]:
            assert classify_subsystem(omega) is SubsystemClass.STRING_LIKE
        assert classify_subsystem((1, 2, 3)) is SubsystemClass.NON_STRING_LIKE

    def test_plaquette_like(self):
        for omega in [
            (1, 2, 3, 4), (2, 3, 5, 6), (3, 4, 6, 7), (1, 2, 6, 7),
            (1, 4, 5, 6), (2, 4, 5, 7), (1, 3, 5, 7),
        ]:
            assert classify_subsystem(omega) is SubsystemClass.PLAQUETTE_LIKE
        assert classify_subsystem((1, 2, 3, 5)) is SubsystemClass.NON_PLAQUETTE_LIKE

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
