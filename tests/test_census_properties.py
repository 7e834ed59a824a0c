"""Cross-cutting properties of the census machinery."""

import itertools
import subprocess
import sys

import pytest

from stabwitness import witnesses
from stabwitness.binary import pauli_row, rows_rank, rows_rref
from stabwitness.groups import GeneratorSet, build_color_code, span_group
from stabwitness.witnesses import (
    MalformedSubsetError,
    all_subsystems,
    check_direct,
    direct_census,
    enumerate_direct,
    enumerate_graph_based,
    run_census,
)

from test_witnesses import _rref_bases


def gaussian_binomial(n, k):
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


class TestSubspaceEnumeration:
    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 3), (7, 2), (7, 3), (7, 6)])
    def test_counts_match_gaussian_binomials(self, n, k):
        bases = list(_rref_bases(n, k))
        assert len(bases) == gaussian_binomial(n, k)
        # each basis spans a distinct subspace: the echelon form is unique
        assert len(set(bases)) == len(bases)

    def test_spans_are_distinct(self):
        seen = set()
        for rows in _rref_bases(5, 2):
            key = tuple(rows_rref(rows))
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n_qubits", [5, 6])
    def test_unpruned_search_reaches_every_subspace_once(self, n_qubits):
        # on an all-Z product state no pair anticommutes anywhere, so the
        # active region stays empty and no prune fires, even with the empty
        # region the only one allowed
        texts = ["I" * q + "Z" + "I" * (n_qubits - q - 1) for q in range(n_qubits)]
        group = span_group(GeneratorSet.from_texts(texts))
        span = [pauli_row(e) for e in group.elements]
        for rank in range(1, n_qubits + 1):
            leaves = list(
                witnesses._subgroup_search(span, rank, n_qubits, {0})
            )
            assert len(leaves) == gaussian_binomial(n_qubits, rank)
            assert {active for active, _ in leaves} == {0}
            keys = {tuple(rows_rref(rows)) for _, rows in leaves}
            assert len(keys) == len(leaves)
            assert all(len(rows) == rank for _, rows in leaves)


class TestDegenerateStates:
    def test_product_state_has_no_witnesses(self):
        gens = GeneratorSet.from_texts(["ZIII", "IZII", "IIZI", "IIIZ"])
        census = run_census(gens)
        assert census.totals() == {
            "direct": 0,
            "graph_based": 0,
            "two_measurement": 0,
        }

    def test_two_disjoint_pairs_have_no_crossing_witnesses(self):
        # two Bell-type pairs: witnesses exist inside each pair but never
        # across them
        gens = GeneratorSet.from_texts(["XXII", "ZZII", "IIXX", "IIZZ"])
        group = span_group(gens)
        census = direct_census(group)
        for omega in all_subsystems(4):
            inside_first = set(omega) <= {1, 2}
            inside_second = set(omega) <= {3, 4}
            if inside_first or inside_second:
                assert census[omega], omega
            else:
                assert not census[omega], omega

    def test_ghz_counts_symmetric_under_qubit_exchange(self):
        gens = GeneratorSet.from_texts(["XXX", "ZZI", "IZZ"])
        group = span_group(gens)
        census = direct_census(group)
        pair_counts = {o: len(census[o]) for o in itertools.combinations((1, 2, 3), 2)}
        assert len(set(pair_counts.values())) == 1
        assert all(count > 0 for count in pair_counts.values())

    def test_graph_based_on_product_state(self):
        gens = GeneratorSet.from_texts(["ZII", "IZI", "IIZ"])
        buckets = enumerate_graph_based(gens)
        assert all(not specs for specs in buckets.values())


@pytest.fixture(scope="module")
def five_qubit_census():
    gens = GeneratorSet.from_texts(
        ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "XXXXX"]
    )
    return run_census(gens)


class TestFiveQubitCode:
    """Non-CSS stress case: the cyclic five-qubit code state with the all-X
    logical operator; every generator mixes X and Z letters."""

    def test_regression_totals(self, five_qubit_census):
        census = five_qubit_census
        # derived once from the enumeration and pinned
        assert census.totals() == {
            "direct": 195,
            "graph_based": 185,
            "two_measurement": 0,
        }

    def test_no_xz_split_exists(self, five_qubit_census):
        census = five_qubit_census
        # the generators' X-blocks span all five bits, so no non-identity
        # member is pure-Z and no witness can split into X/Z parts
        x_parts = [0b10010, 0b01001, 0b10100, 0b01010, 0b11111]
        assert rows_rank(x_parts) == 5
        assert all(not v for v in census.two_measurement.values())

    def test_cyclic_symmetry_in_pair_counts(self, five_qubit_census):
        census = five_qubit_census
        counts = {
            omega: len(census.direct[omega])
            for omega in itertools.combinations(range(1, 6), 2)
        }
        assert set(counts.values()) == {12}

    def test_graph_based_subset_and_validity(self, five_qubit_census):
        census = five_qubit_census
        for omega in all_subsystems(5):
            direct_keys = {s.identity_key for s in census.direct[omega]}
            graph_keys = {s.identity_key for s in census.graph_based[omega]}
            assert graph_keys <= direct_keys
            for spec in census.direct[omega]:
                assert check_direct(spec.subset())


class TestCensusValidation:
    def test_rejects_out_of_range_labels(self):
        code = build_color_code()
        with pytest.raises(MalformedSubsetError):
            run_census(code, ("direct",), [(8, 9)])

    @pytest.mark.parametrize(
        "omega,message",
        [
            ((1, 2, 1), "subsystem (1, 1, 2) repeats labels 1"),
            ((2, 2, 3, 3), "subsystem (2, 2, 3, 3) repeats labels 2, 3"),
            ((9, 1), "subsystem (1, 9) has labels outside 1..7"),
            ((3,), "subsystem (3,) is not a local scope on 7 qubits"),
        ],
    )
    def test_message_names_the_fault(self, omega, message):
        with pytest.raises(MalformedSubsetError) as err:
            run_census(build_color_code(), ("direct",), [omega])
        assert str(err.value) == message

    @pytest.mark.parametrize("omega", [(0, 3), (1, 1, 2), (5, 9), (3,), tuple(range(1, 8))])
    def test_every_entry_point_rejects_malformed_subsystems(self, omega):
        code = build_color_code()
        group = span_group(code)
        with pytest.raises(MalformedSubsetError):
            run_census(code, ("direct",), [omega])
        with pytest.raises(MalformedSubsetError):
            enumerate_direct(group, omega)
        with pytest.raises(MalformedSubsetError):
            run_census(code, ("twomeas",), [omega])

    @pytest.mark.parametrize(
        "omega,message",
        [
            ((1.5, 2), "subsystem (1.5, 2) has labels that are not integers: 1.5"),
            ((1, "2"), "subsystem (1, '2') has labels that are not integers: '2'"),
            # a bool is not qubit 1
            ((True, 2), "subsystem (True, 2) has labels that are not integers: True"),
            ((2.0, 3, None), "subsystem (2.0, 3, None) has labels that are not "
             "integers: 2.0, None"),
        ],
    )
    def test_labels_that_are_not_ints_are_named(self, omega, message):
        code = build_color_code()
        group = span_group(code)
        for entry_point in (
            lambda: run_census(code, ("direct",), [omega]),
            lambda: enumerate_direct(group, omega),
            lambda: run_census(code, ("twomeas",), [omega]),
        ):
            with pytest.raises(MalformedSubsetError) as err:
                entry_point()
            assert str(err.value) == message

    def test_deduplicates_equivalent_omegas(self):
        code = build_color_code()
        census = run_census(code, ("direct",), [(5, 6), (6, 5), (5, 6)])
        assert census.subsystems() == [(5, 6)]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_census(build_color_code(), ("direct", "magic"))

    def test_methods_given_as_one_string_are_named(self):
        # a string is a collection of letters, which named the letters as
        # unknown methods
        with pytest.raises(ValueError) as err:
            run_census(build_color_code(), "graph")
        assert str(err.value) == (
            "methods must be a collection of method names, "
            "such as ('graph',), not a string"
        )

    @pytest.mark.parametrize(
        "omegas,entry",
        [
            ((1, 2), "entry 0 is of type int"),
            ([(1, 2), 3], "entry 1 is of type int"),
        ],
    )
    def test_flat_subsystem_is_named(self, omegas, entry):
        # one flat subsystem for a list of them was a bare TypeError
        with pytest.raises(MalformedSubsetError) as err:
            run_census(build_color_code(), ("direct",), omegas=omegas)
        assert str(err.value) == (
            "omegas must be a collection of subsystems, such as [(1, 2)]; "
            f"{entry}, not a collection of qubit labels"
        )

    def test_omegas_that_are_not_a_collection_are_named(self):
        with pytest.raises(MalformedSubsetError) as err:
            run_census(build_color_code(), ("direct",), omegas=5)
        assert str(err.value) == (
            "omegas must be a collection of subsystems, such as [(1, 2)]; "
            "got an object of type int"
        )


class TestCrossProcessDeterminism:
    def test_census_byte_identical_across_processes(self):
        script = (
            "from stabwitness.groups import build_color_code\n"
            "from stabwitness.witnesses import run_census\n"
            "from stabwitness.reporting import build_census_report, "
            "witness_rows, witness_rows_to_csv\n"
            "census = run_census(build_color_code(), ('direct', 'twomeas'),"
            " [(5, 6), (1, 2, 5)])\n"
            "print(build_census_report(census).to_csv())\n"
            "print(witness_rows_to_csv(witness_rows(census)))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        }
        assert len(outputs) == 1
