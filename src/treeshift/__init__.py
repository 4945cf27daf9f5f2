"""Finite-depth tree models of shift dynamics over finitely generated groups.

Configurations over a group embed into the space of pointed edge-labeled
subtrees of the Cayley tree of a free group; this package builds those
trees at explicit depth, decodes them back, measures them with the box
metric, rebases them through the partial free-group action, and does the
same for itineraries of prefix-rewrite pseudogroups on one-sided symbol
spaces.

Importing the package loads none of its modules: each public name below
is imported from its module on first use, so a command pays only for the
modules it runs.
"""

from importlib import import_module as _import_module

# public name -> the module that defines it, grouped by module
_EXPORTS = {
    "errors": (
        "ActionUndefinedError", "Alphabet", "ConsistencyError", "GroupMismatchError",
        "InsufficientDepthError", "InvalidGeneratorError", "NotInImageError",
        "RankMismatchError", "TreeshiftError", "ValidationError", "alphabet",
    ),
    "freegroup": (
        "BallTable", "S_EMPTY", "Word", "enumerate_ball", "identity", "multiply", "parse_word",
        "reduce",
    ),
    "groups": (
        "GroupElement", "GroupModel", "MetricInterval", "config_metric_interval",
        "custom_group", "expansivity_witness", "free_group", "induced_config",
        "integer_lattice",
    ),
    "shift": (
        "AgreementDepth", "Config", "agree_depth", "finite_support_config",
        "periodic_config", "random_config",
    ),
    "trees": (
        "BoxDistance", "OrbitGraph", "PointedTree", "act", "ball", "box_distance",
        "make_tree", "neighborhood", "orbit_graph", "tree_from_json", "tree_to_dot",
        "tree_to_json", "validate_tree",
    ),
    "embed": (
        "EdgeEncoding", "Embedding", "EquivarianceReport",
        "check_equivariance", "decode_tree", "edge_encoding", "embed_config",
        "random_encoding", "separate_witness", "validate_alpha",
    ),
    "pseudogroup": (
        "Cylinder", "CylinderPseudogroup", "CylinderUnion", "PartialMap", "SymbolStream",
        "builtin_n0_shift", "compose_word", "embed_pseudo", "itinerary", "validate_cgs",
    ),
    "verify": ("balls_isomorphic", "random_tree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # ``treeshift.trees`` and the like, before their import
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
