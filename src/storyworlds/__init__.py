"""Possible-worlds analysis of story timelines.

Parse story files into timelines of asserted propositions, enumerate the
worlds consistent with each step, simulate narrator-to-reader conveyance
through lossy channels, and compute plausibility and coherence metrics over
the resulting world sets.
"""

from .conveyance import (
    Channel,
    ChannelKind,
    ConveyanceReport,
    ReaderState,
    accuracy_report,
    compress,
    evolve,
    parse_channel_spec,
    reconstruct,
    transmit,
)
from .errors import (
    BoundExceededError,
    ChannelError,
    EmptyWorldSetError,
    FilterError,
    InconsistentFabulaError,
    InconsistentStepError,
    MetricError,
    ParseError,
    StoryworldsError,
    UniverseError,
    UniverseMismatchError,
    UnknownAtomError,
)
from .filters import (
    PlausibilityStatus,
    WeakFilter,
    WeakUltrafilter,
    extend_to_ultrafilter,
    is_weak_filter,
    is_weak_ultrafilter,
    plausibility_status,
    plausible_facts,
    support_mask,
    ultraproduct,
)
from .logic import (
    DEFAULT_ATOM_BOUND,
    And,
    Atom,
    Constant,
    FALSE,
    Formula,
    Implies,
    Not,
    Or,
    TRUE,
    Universe,
    World,
    consistent,
    entails,
    evaluate,
    negate,
)
from .metrics import (
    BooleanLattice,
    KernelReport,
    KernelStep,
    Question,
    SatelliteLink,
    binary_entropy,
    boolean_lattice,
    classify_satellites,
    derive_world_questions,
    detect_kernels,
    kernel_questions,
    mean_question_entropy,
    relevance,
    sample_coherence,
    transitional_coherence,
    world_coherence,
)
from .report import RunConfig, run_analysis
from .story import (
    Fabula,
    Timeline,
    TransitionEdit,
    apply_transition,
    delta,
    formula_to_str,
    parse_formula,
    parse_story,
    serialize_timeline,
)
from .worlds import (
    WorldSet,
    agreement_check,
    enumerate_models,
    intersect,
    sample_worlds,
    truth_proportion,
)

__version__ = "0.1.0"
