"""gridfa: two-dimensional automata with budgeted restricted-direction moves.

Pictures (rectangular words over a finite alphabet) are walked by finite
machines whose heads move up, down, left and right; a direction policy
makes some moves free, forbids others, and charges the rest against a
per-run budget.  The package bundles the machine model, a terminating
simulator over the finite configuration graph, brute-force language
oracles, builders for concrete recognizers, and an experiment harness
that exercises the budget hierarchies and the crossing-argument splice.
"""

from .grid import (
    BOUNDARY,
    AlphabetError,
    FrameError,
    Picture,
    PictureFormatError,
    ShapeError,
    cell_at,
    enumerate_pictures,
    parse_picture,
    parse_picture_stream,
    row_concat,
    rotate90_cw,
    transpose,
)
from .machine import (
    INF,
    Automaton,
    Budget,
    ClassTag,
    CompositionError,
    Direction,
    DirectionPolicy,
    FOUR_WAY,
    MachineError,
    MachineInvalidError,
    MachineParseError,
    RotationError,
    THREE_WAY,
    THREE_WAY_NO_UP,
    THREE_WAY_ROTATED,
    TWO_WAY,
    classify,
    parse_machine,
    rotate_machine,
    serialize_machine,
    transpose_machine,
    union_machine,
    validate,
)
from .simulator import (
    BudgetOverrideError,
    Configuration,
    ModeError,
    RunOutcome,
    Trace,
    TraceStep,
    accepting_trace,
    accepts,
    config_space_bound,
    decide_complement,
    format_trace,
    initial_configuration,
    language_sample,
    run_deterministic,
    step,
)
from .languages import (
    ALPHABET_01,
    in_K,
    in_L,
    in_M,
    in_N1,
    in_N2,
    in_S,
    make_u,
    make_v,
    make_w,
    oracle_for,
    splice_words,
    stacked_count,
)
from .constructions import (
    BUILDERS,
    build_A_L1,
    build_B_L,
    build_C_L1_2W,
    build_D_K,
    build_M_M1,
    build_M_Mi,
    build_P_N2,
    build_S_rec,
    build_flawed_L1_3W0,
    make_machine,
)
from .experiments import (
    CrossingEvent,
    FoolingParameters,
    HierarchyReport,
    SpliceReport,
    SweepReport,
    budget_sweep,
    crossing_events,
    find_crossing_match,
    fooling_parameters,
    fooling_z,
    hierarchy_report,
    oracle_equivalence,
    splice_counterexample,
)

__version__ = "0.1.0"
