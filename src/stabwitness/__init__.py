"""Local entanglement witnesses for stabilizer states.

Construct witnesses for qubit subsystems of a stabilizer state by checking
the direct conditions on candidate stabilizer subsets or by harvesting the
local-complementation orbit of an equivalent graph state, then evaluate
them against measured expectation values with full variance propagation.
"""

from .binary import (
    BitMatrix,
    PauliOperator,
    commutes,
    multiply,
    parse_pauli,
    rank_mod2,
    solve_mod2,
)
from .cliffords import (
    SINGLE_QUBIT_CLIFFORDS,
    LocalClifford,
    SingleQubitClifford,
    apply,
    apply_to_generators,
    find_graph_equivalence,
    find_local_symmetries,
)
from .evaluation import (
    IncompleteDataError,
    MeasurementDataset,
    WernerModel,
    WitnessValue,
    critical_probability,
    detection_confidence,
    eval_alternative,
    eval_standard,
    eval_two_measurement,
    evaluate,
    fidelity,
)
from .graphs import (
    CapacityError,
    Graph,
    LcOrbit,
    graph_from_json,
    graph_generators,
    graph_to_json,
    is_connected_within,
    lc_orbit,
    local_complement,
    reduced_generator_subset,
)
from .groups import (
    GeneratorSet,
    GeneratorSubset,
    InvalidGeneratorSetError,
    InvalidRecombinationError,
    RecombinationMatrix,
    StabilizerGroup,
    build_color_code,
    code_from_json,
    code_to_json,
    load_named_code,
    recombine,
    span_group,
)
from .reporting import (
    CensusReport,
    EvaluationReport,
    build_census_report,
    build_evaluation_report,
    witness_rows,
)
from .witnesses import (
    DirectCheckResult,
    MalformedSubsetError,
    SubsystemClass,
    WitnessCensus,
    WitnessKind,
    WitnessSpec,
    check_direct,
    classify_subsystem,
    enumerate_direct,
    enumerate_graph_based,
    pseudo_incidence,
    run_census,
)

__version__ = "0.1.0"
