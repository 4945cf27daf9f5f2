"""Finite-depth tree models of shift dynamics over finitely generated groups.

Configurations over a group embed into the space of pointed edge-labeled
subtrees of the Cayley tree of a free group; this package builds those
trees at explicit depth, decodes them back, measures them with the box
metric, rebases them through the partial free-group action, and does the
same for itineraries of prefix-rewrite pseudogroups on one-sided symbol
spaces.
"""

from .errors import (
    ActionUndefinedError,
    ConsistencyError,
    GroupMismatchError,
    InsufficientDepthError,
    InvalidGeneratorError,
    NotInImageError,
    RankMismatchError,
    TreeshiftError,
    ValidationError,
)
from .freegroup import (
    Word,
    enumerate_ball,
    identity,
    invert,
    make_letter,
    multiply,
    parse_word,
    reduce,
)
from .groups import (
    GroupElement,
    GroupModel,
    custom_group,
    free_group,
    induced_config,
    integer_lattice,
    normal_form,
)
from .shift import (
    AgreementDepth,
    Alphabet,
    Config,
    MetricInterval,
    agree_depth,
    alphabet,
    config_metric_interval,
    custom_config,
    eval_config,
    expansivity_witness,
    finite_support_config,
    periodic_config,
    random_config,
    shift_act,
)
from .trees import (
    BoxDistance,
    OrbitGraph,
    PointedTree,
    act,
    ball,
    balls_isomorphic,
    box_distance,
    make_tree,
    neighborhood,
    orbit_graph,
    random_tree,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate_tree,
)
from .embed import (
    DecodedConfig,
    EdgeEncoding,
    Embedding,
    EquivarianceReport,
    check_equivariance,
    decode_tree,
    edge_encoding,
    embed_config,
    random_encoding,
    separate_witness,
    validate_alpha,
)
from .pseudogroup import (
    Cylinder,
    CylinderPseudogroup,
    CylinderUnion,
    Itinerary,
    PartialMap,
    S_EMPTY,
    SymbolStream,
    builtin_n0_shift,
    compose_word,
    embed_pseudo,
    itinerary,
    validate_cgs,
)

__version__ = "0.1.0"
