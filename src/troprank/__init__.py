"""Exact computation of three tropical rank notions for symmetric and
dissimilarity matrices over the min-plus semiring: symmetric rank (into
rank-one symmetric matrices), star tree rank (their off-diagonal
projections), and tree rank (tree metrics with nonpositive internal edge
weights).  Everything runs over exact rationals and every reported rank
comes with a verifiable certificate: a decomposition for the upper bound
and a deficiency-graph coloring bound or search exhaustion for the lower.
"""

__version__ = "0.1.0"

from .core import (
    DissimilarityMatrix,
    SymmetricMatrix,
    apply_permutation,
    extend_rank_one,
    extend_star_tree,
    frac,
    principal_submatrix,
    project,
    rank_one_symmetric,
    star_matrix,
    trop_sum,
    trop_sum_all,
)
from .decomposition import Decomposition, NOTIONS, STAR, SYM, TREE, verify
from .deficiency import (
    build_deficiency,
    chromatic_number,
    classify_petersen,
    has_alternating_even_cycle,
    rank_lower_bound,
)
from .dimension import dimension_formula, dimension_report, sampled_local_dimension
from .membership import (
    is_rank1_symmetric,
    is_star_tree,
    is_tree_matrix,
    is_tropically_singular_3x3,
    pfaffian_minimizers,
)
from .rank import (
    RankResult,
    compute_rank,
    exact_rank,
    normalize_diagonal,
    star_upper_decomposition,
    symmetric_rank_finite,
    symmetric_upper_decomposition,
    tree_upper_decomposition,
)
from .small_cases import (
    star5_rank2_decompose,
    star5_rank2_test,
    sym3_rank,
    tree5_rank,
)
from .trees import WeightedTree, extend_tree, realize_tree

__all__ = [
    "DissimilarityMatrix",
    "SymmetricMatrix",
    "WeightedTree",
    "Decomposition",
    "RankResult",
    "NOTIONS",
    "SYM",
    "STAR",
    "TREE",
    "apply_permutation",
    "build_deficiency",
    "chromatic_number",
    "classify_petersen",
    "compute_rank",
    "dimension_formula",
    "dimension_report",
    "exact_rank",
    "extend_rank_one",
    "extend_star_tree",
    "extend_tree",
    "frac",
    "has_alternating_even_cycle",
    "is_rank1_symmetric",
    "is_star_tree",
    "is_tree_matrix",
    "is_tropically_singular_3x3",
    "normalize_diagonal",
    "pfaffian_minimizers",
    "principal_submatrix",
    "project",
    "rank_lower_bound",
    "rank_one_symmetric",
    "realize_tree",
    "sampled_local_dimension",
    "star5_rank2_decompose",
    "star5_rank2_test",
    "star_matrix",
    "star_upper_decomposition",
    "sym3_rank",
    "symmetric_rank_finite",
    "symmetric_upper_decomposition",
    "tree5_rank",
    "tree_upper_decomposition",
    "trop_sum",
    "trop_sum_all",
    "verify",
]
