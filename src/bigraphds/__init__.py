"""Bipartite biregular diameter-3 graphs from difference sets over finite groups."""

from .bigraph import (
    BiGraph,
    BiregularCheck,
    DiameterReport,
    RepeatReport,
    build_difference_graph,
    diameter,
    export_graph,
    find_repeats,
    load_graph_json,
    verify_biregular,
)
from .bounds import (
    BoundReport,
    ImprovedBound,
    bound_report,
    improved_moore_bound,
    improvement_margin,
    moore_bound_odd,
    render_table,
    tree_counts,
)
from .diffsets import (
    ADS,
    COVERING,
    NON_COVERING,
    PERFECT,
    CandidateSet,
    SetClassification,
    classify_profile,
    classify_set,
    difference_profile,
    inverse_set,
    parse_set_literal,
    parse_word,
)
from .errors import (
    BigraphdsError,
    CapacityError,
    InternalError,
    UsageError,
    ValidationError,
)
from .groups import (
    Group,
    GroupReport,
    build_cyclic,
    build_direct_product,
    build_semidirect,
    format_cayley_table,
    load_cayley_table,
    parse_cayley_table,
    parse_group_spec,
    validate_group,
)
from .search import (
    FoundSet,
    SearchConfig,
    SearchOutcome,
    SweepRow,
    enumerate_covering_sets,
    exists_covering_set,
    sweep_family,
)
from .singer import (
    PUBLISHED_PERFECT_SETS,
    SingerSet,
    build_field,
    singer_set,
)

__version__ = "0.1.0"
