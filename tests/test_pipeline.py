"""The rank pipeline end to end: every route of `rank --method auto`, the
same inputs under `exact` and `bounds`, `decompose` with and without
`--minimize`, and `deficiency` in both formats for each basis, pinned by
exit code, reported rank and a digest of stdout.

The pins were recorded before method dispatch moved from the CLI into
`troprank.compute_rank`, so they hold the library to the CLI's old output
byte for byte.  `compute_rank(...).to_json_dict()` must print the same JSON.
The rank-one inputs (sym3-rank1 sym, star5-rank1 star and tree,
tree5-rank1 tree) give rank 1 on every route: r = 1 is the one-summand
membership test at every budget, `bounds` (budget 0) included.  The
`deficiency` pins were recorded before the
bases became relation tables.  The `*-rational` pins (entry denominators 1,
2 and 3) and the `dimension --grid` pins were recorded before the sum-slot
systems and the 5x5 closed forms moved to integer entry: every other input
is an integer matrix, which cannot catch a wrong denominator.  The
`tree6-rational` and `tree7-rational` pins and the `realize_tree` Newick
pins were recorded before leaf distances, tree insertion and the
four-point test moved to integers; the `tree8-rational` pins, the only
ones of the tree peel at n = 8, before the tree LP rows, the peel and
`verify` did.  The construction pin, over the symmetric, star and tree
upper bounds on seeded rational inputs, was recorded before each
construction was cut to one copy with its padding-free part built once.
The `auto` pins of the non-0/1 3x3 symmetric and 5x5 inputs were recorded
when `auto` stopped answering them by the closed forms; each equals its
`exact` twin.  The `tree5-rank2 tree decompose` pin and the construction
pin were recorded when `tree_upper_decomposition` at n = 5 became the
search's decomposition; the former equals its `--minimize` twin.  The
17 finite `bounds` pins, the three `star5-rank1 tree` pins and the
`sym01-infinite sym auto` pin were recorded when `bounds` became the search
with no rank to search, r = 1 the membership test and the symmetric 0/1
cover formula's infinite witness `membership.finiteness_violation`'s sorted
pair; a script checked that each equals its `exact` twin before the re-pin.
The `star5-rank1 tree` answers now carry `realize_tree`'s tree, not a binary
LP shape with a zero-length edge.  The cover pin, over `compute_rank` on
seeded 0/1 inputs of all three notions (n = 3..8), was recorded while the
graph still kept a set of edges next to its adjacency masks, before every
cover item became a bit and every candidate footprint an item mask.
"""

import ast
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from troprank import compute_rank
from troprank.cli import EXIT_INTERNAL, main
from troprank.core import DissimilarityMatrix, SymmetricMatrix
from troprank.decomposition import NOTIONS, TREE, CertificateError, ConstructionError
from troprank.generators import generate
from troprank.matrixio import parse_matrix, serialize_matrix
from troprank.rank import exact_rank, tree_upper_decomposition
from troprank.trees import WeightedTree, realize_tree
from troprank.upper import _upper_for_search, star_upper_decomposition, symmetric_upper_decomposition

from conftest import random_dissimilarity, random_finite_symmetric, random_symmetric

_ = None  # a dissimilarity diagonal

# Each input names the case it covers: the size and rank of the paper's 3x3
# and 5x5 classifiers, a 0/1 cover formula, or a larger search.
MATRICES = {
    "sym3-rank1": [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
    "sym3-rank2": [[2, 4, 3], [4, 1, 2], [3, 2, 3]],
    "sym3-rank3": [[0, 3, 2], [3, 0, 2], [2, 2, 3]],
    "sym3-infinite": [[5, 0, 8], [0, 3, 0], [8, 0, 6]],
    "sym4-infinite": [[6, 9, 7, 7], [9, 4, 6, 4], [7, 6, 0, 9], [7, 4, 9, 5]],
    "sym4-rational": [[0, "1/2", 1, "3/2"], ["1/2", 0, "5/2", 1], [1, "5/2", 0, 1], ["3/2", 1, 1, 0]],
    "star5-rank1": [[_, 4, 7, 4, 8], [4, _, 5, 2, 6], [7, 5, _, 5, 9], [4, 2, 5, _, 6], [8, 6, 9, 6, _]],
    "star5-rank2": [[_, 4, 3, 3, 2], [4, _, 3, 4, 1], [3, 3, _, 3, 0], [3, 4, 3, _, 3], [2, 1, 0, 3, _]],
    "star5-rank3": [[_, 0, 0, 3, 2], [0, _, 1, 4, 4], [0, 1, _, 1, 0], [3, 4, 1, _, 4], [2, 4, 0, 4, _]],
    "tree5-rank1": [[_, 2, 0, 1, 3], [2, _, 3, 3, 4], [0, 3, _, 1, 2], [1, 3, 1, _, 3], [3, 4, 2, 3, _]],
    "tree5-rank2": [[_, 0, 0, 0, 4], [0, _, 2, 4, 1], [0, 2, _, 1, 3], [0, 4, 1, _, 2], [4, 1, 3, 2, _]],
    "tree5-rank3": [[_, 4, 1, 4, 0], [4, _, 0, 2, 1], [1, 0, _, 4, 4], [4, 2, 4, _, 1], [0, 1, 4, 1, _]],
    "sym01": [[0, 1, 1, 0, 1], [1, 0, 1, 0, 0], [1, 1, 0, 1, 1], [0, 0, 1, 0, 1], [1, 0, 1, 1, 0]],
    "sym01-diag": [[0, 1, 0, 1, 1], [1, 0, 1, 1, 1], [0, 1, 0, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]],
    "sym01-infinite": [[0, 1, 0, 0, 1], [1, 0, 0, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 1]],
    "star01-solid": [
        [_, 1, 1, 1, 1, 1], [1, _, 0, 0, 1, 1], [1, 0, _, 1, 0, 0],
        [1, 0, 1, _, 0, 1], [1, 1, 0, 0, _, 0], [1, 1, 0, 1, 0, _],
    ],
    "star01-nonsolid": [
        [_, 1, 1, 1, 0, 0], [1, _, 1, 0, 1, 1], [1, 1, _, 0, 1, 1],
        [1, 0, 0, _, 1, 0], [0, 1, 1, 1, _, 1], [0, 1, 1, 0, 1, _],
    ],
    "tree01": [
        [_, 0, 0, 0, 0, 1], [0, _, 1, 1, 1, 0], [0, 1, _, 0, 1, 0],
        [0, 1, 0, _, 1, 1], [0, 1, 1, 1, _, 1], [1, 0, 0, 1, 1, _],
    ],
    "sym6": [
        [4, 7, 8, 9, 7, 5], [7, 4, 6, 6, 7, 9], [8, 6, 0, 6, 5, 5],
        [9, 6, 6, 6, 9, 6], [7, 7, 5, 9, 5, 7], [5, 9, 5, 6, 7, 4],
    ],
    "tree6": [
        [_, 5, 5, 3, 1, 2], [5, _, 0, 2, 4, 3], [5, 0, _, 3, 3, 1],
        [3, 2, 3, _, 3, 3], [1, 4, 3, 3, _, 0], [2, 3, 1, 3, 0, _],
    ],
    "star7": [
        [_, 0, 3, 3, 2, 2, 3], [0, _, 2, 3, 3, 1, 0], [3, 2, _, 3, 2, 3, 1],
        [3, 3, 3, _, 0, 3, 2], [2, 3, 2, 0, _, 3, 2], [2, 1, 3, 3, 3, _, 3],
        [3, 0, 1, 2, 2, 3, _],
    ],
    "tree7": [
        [_, 3, 1, 0, 1, 1, 1], [3, _, 2, 2, 3, 1, 3], [1, 2, _, 3, 0, 0, 2],
        [0, 2, 3, _, 2, 1, 2], [1, 3, 0, 2, _, 0, 1], [1, 1, 0, 1, 0, _, 3],
        [1, 3, 2, 2, 1, 3, _],
    ],
    # Entry denominators 1, 2 and 3 (scale 6): `auto` and `exact` emit a
    # search witness (rank below `upper_size`).
    "sym5-rational": [
        [0, 1, 1, 4, "7/3"], [1, 0, 4, 1, "1/2"], [1, 4, 2, 3, 4],
        [4, 1, 3, 2, 2], ["7/3", "1/2", 4, 2, "1/3"],
    ],
    "star6-rational": [
        [_, 3, 1, 0, 1, "7/2"], [3, _, 1, "3/2", 1, 2], [1, 1, _, 3, "10/3", 1],
        [0, "3/2", 3, _, "11/3", "1/2"], [1, 1, "10/3", "11/3", _, "5/3"], ["7/2", 2, 1, "1/2", "5/3", _],
    ],
    "star5-rational": [
        [_, 1, "3/2", 1, 2], [1, _, 3, "10/3", 1], ["3/2", 3, _, "11/3", "1/2"],
        [1, "10/3", "11/3", _, "5/3"], [2, 1, "1/2", "5/3", _],
    ],
    "tree5-rational": [
        [_, "3/2", "1/3", 0, 0], ["3/2", _, "8/3", 3, 1], ["1/3", "8/3", _, 0, 1],
        [0, 3, 0, _, "7/2"], [0, 1, 1, "7/2", _],
    ],
    # Tree rank 2 (the minimum of two rational tree metrics) and 3, both
    # below `upper_size`: `exact` emits LP tree witnesses, `bounds` the
    # matching split (n = 6) or the peel to the leading 6x6 block (n = 7),
    # whose blocks go through `realize_tree`.
    "tree6-rational": [
        [_, 4, -2, "8/3", "-2/3", "8/3"], [4, _, -2, "1/2", "-2/3", 0],
        [-2, -2, _, "-10/3", -1, "-4/3"], ["8/3", "1/2", "-10/3", _, -2, "1/2"],
        ["-2/3", "-2/3", -1, -2, _, "-5/3"], ["8/3", 0, "-4/3", "1/2", "-5/3", _],
    ],
    "tree7-rational": [
        [_, "8/3", "8/3", 3, 3, "3/2", 4], ["8/3", _, 9, "5/3", 0, 1, 3],
        ["8/3", 9, _, 0, 9, "1/3", 1], [3, "5/3", 0, _, 3, 0, 0],
        [3, 0, 9, 3, _, "5/2", 2], ["3/2", 1, "1/3", 0, "5/2", _, 0],
        [4, 3, 1, 0, 2, 0, _],
    ],
    # Tree rank 4, below `upper_size` 5: `exact` emits four LP tree
    # witnesses, `bounds` the peel at n = 8 (the 6x6 matching split plus
    # two star summands for the peeled indices 7 and 8).
    "tree8-rational": [
        [_, "-1/3", 9, 1, 2, "4/3", 3, -1],
        ["-1/3", _, "-3/2", 1, 9, 4, "1/3", 9],
        [9, "-3/2", _, 6, 2, -3, "7/3", "-3/2"],
        [1, 1, 6, _, 7, 1, -1, 0],
        [2, 9, 2, 7, _, "4/3", 0, 0],
        ["4/3", 4, -3, 1, "4/3", _, 0, 1],
        [3, "1/3", "7/3", -1, 0, 0, _, 1],
        [-1, 9, "-3/2", 0, 0, 1, 1, _],
    ],
}

NOTIONS_OF = {
    "sym": ("sym",),
    "star": ("star", "tree"),
    "tree": ("tree", "star"),
}

# (input, notion, extra arguments) -> (exit code, "rank" field, stdout sha256[:16])
PINS = {
    'sym3-rank1 sym auto': (0, 1, '2f5181daa1cd9440'),
    'sym3-rank1 sym exact': (0, 1, '2f5181daa1cd9440'),
    'sym3-rank1 sym bounds': (0, 1, '2f5181daa1cd9440'),
    'sym3-rank2 sym auto': (0, 2, 'f64f55e75226cfc6'),
    'sym3-rank2 sym exact': (0, 2, 'f64f55e75226cfc6'),
    'sym3-rank2 sym bounds': (3, None, '5953b58f96a591d8'),
    'sym3-rank3 sym auto': (0, 3, '93b385d5eea1201f'),
    'sym3-rank3 sym exact': (0, 3, '93b385d5eea1201f'),
    'sym3-rank3 sym bounds': (0, 3, '93b385d5eea1201f'),
    'sym3-infinite sym auto': (4, 'infinity', 'ca413b18e5318ab6'),
    'sym3-infinite sym exact': (4, 'infinity', 'ca413b18e5318ab6'),
    'sym3-infinite sym bounds': (4, 'infinity', 'ca413b18e5318ab6'),
    'sym4-infinite sym auto': (4, 'infinity', '5b6ecf434a814c33'),
    'sym4-infinite sym exact': (4, 'infinity', '5b6ecf434a814c33'),
    'sym4-infinite sym bounds': (4, 'infinity', '5b6ecf434a814c33'),
    'sym4-rational sym auto': (0, 4, '2948c0cbd5e05551'),
    'sym4-rational sym exact': (0, 4, '2948c0cbd5e05551'),
    'sym4-rational sym bounds': (0, 4, '2948c0cbd5e05551'),
    'sym5-rational sym auto': (0, 5, '1701b130b66799a7'),
    'sym5-rational sym exact': (0, 5, '1701b130b66799a7'),
    'sym5-rational sym bounds': (3, None, 'f6723de53a9e76ef'),
    'star6-rational star auto': (0, 3, '2e863bd2f523377d'),
    'star6-rational star exact': (0, 3, '2e863bd2f523377d'),
    'star6-rational star bounds': (3, None, 'a896fd6e1c2c96bf'),
    'star6-rational tree auto': (0, 3, '0c713fd6d351a52c'),
    'star6-rational tree exact': (0, 3, '0c713fd6d351a52c'),
    'star6-rational tree bounds': (0, 3, '0c713fd6d351a52c'),
    'star5-rational star auto': (0, 2, '116f95bedb0691c3'),
    'star5-rational star exact': (0, 2, '116f95bedb0691c3'),
    'star5-rational star bounds': (3, None, '341c4e005ebf8930'),
    'star5-rational tree auto': (0, 2, '9067641354fe3b09'),
    'star5-rational tree exact': (0, 2, '9067641354fe3b09'),
    'star5-rational tree bounds': (3, None, '8d31239a759d2693'),
    'tree5-rational tree auto': (0, 2, '9371342a170bb02b'),
    'tree5-rational tree exact': (0, 2, '9371342a170bb02b'),
    'tree5-rational tree bounds': (3, None, '85d8c776a6114c55'),
    'tree5-rational star auto': (0, 3, '7fe6e3cc463da500'),
    'tree5-rational star exact': (0, 3, '7fe6e3cc463da500'),
    'tree5-rational star bounds': (0, 3, '7fe6e3cc463da500'),
    'tree6-rational tree auto': (0, 2, '7cdaf98af91ecf3a'),
    'tree6-rational tree exact': (0, 2, '7cdaf98af91ecf3a'),
    'tree6-rational tree bounds': (3, None, '187f0db2df1ed0c4'),
    'tree6-rational star auto': (0, 4, '6742a8bb2f17cf36'),
    'tree6-rational star exact': (0, 4, '6742a8bb2f17cf36'),
    'tree6-rational star bounds': (0, 4, '6742a8bb2f17cf36'),
    'tree7-rational tree auto': (0, 3, '3ec2e33c393c3859'),
    'tree7-rational tree exact': (0, 3, '3ec2e33c393c3859'),
    'tree7-rational tree bounds': (3, None, '041b328476aa7261'),
    'tree7-rational star auto': (0, 4, '41b85882e9ff6b20'),
    'tree7-rational star exact': (0, 4, '41b85882e9ff6b20'),
    'tree7-rational star bounds': (3, None, 'e2eac52105479eca'),
    'tree8-rational tree auto': (0, 4, '8a9d6b09f4afe9d9'),
    'tree8-rational tree exact': (0, 4, '8a9d6b09f4afe9d9'),
    'tree8-rational tree bounds': (3, None, '085372102064242d'),
    'tree8-rational star auto': (0, 6, '977823bb55282ab5'),
    'tree8-rational star exact': (0, 6, '977823bb55282ab5'),
    'tree8-rational star bounds': (0, 6, '977823bb55282ab5'),
    'star5-rank1 star auto': (0, 1, 'cc27f3baca720db4'),
    'star5-rank1 star exact': (0, 1, 'cc27f3baca720db4'),
    'star5-rank1 star bounds': (0, 1, 'cc27f3baca720db4'),
    'star5-rank1 tree auto': (0, 1, '668d14df85e225f1'),
    'star5-rank1 tree exact': (0, 1, '668d14df85e225f1'),
    'star5-rank1 tree bounds': (0, 1, '668d14df85e225f1'),
    'star5-rank2 star auto': (0, 2, 'fbf26ec10eadb5a9'),
    'star5-rank2 star exact': (0, 2, 'fbf26ec10eadb5a9'),
    'star5-rank2 star bounds': (3, None, '98d1a6a2eeee98d4'),
    'star5-rank2 tree auto': (0, 2, 'f836a5f91ae9c04e'),
    'star5-rank2 tree exact': (0, 2, 'f836a5f91ae9c04e'),
    'star5-rank2 tree bounds': (3, None, '2c874d4f8ae1bc45'),
    'star5-rank3 star auto': (0, 3, '419418ba5b02a1c1'),
    'star5-rank3 star exact': (0, 3, '419418ba5b02a1c1'),
    'star5-rank3 star bounds': (0, 3, '419418ba5b02a1c1'),
    'star5-rank3 tree auto': (0, 2, '562b4656e343d651'),
    'star5-rank3 tree exact': (0, 2, '562b4656e343d651'),
    'star5-rank3 tree bounds': (3, None, '5932d7c7f0389277'),
    'tree5-rank1 tree auto': (0, 1, 'b9e2eefc11e18114'),
    'tree5-rank1 tree exact': (0, 1, 'b9e2eefc11e18114'),
    'tree5-rank1 tree bounds': (0, 1, 'b9e2eefc11e18114'),
    'tree5-rank1 star auto': (0, 3, 'a0ea93c8c3ddb886'),
    'tree5-rank1 star exact': (0, 3, 'a0ea93c8c3ddb886'),
    'tree5-rank1 star bounds': (0, 3, 'a0ea93c8c3ddb886'),
    'tree5-rank2 tree auto': (0, 2, 'b1393e67a6197ada'),
    'tree5-rank2 tree exact': (0, 2, 'b1393e67a6197ada'),
    'tree5-rank2 tree bounds': (3, None, '10a8d60715a080d5'),
    'tree5-rank2 star auto': (0, 3, 'a55f256f2a4322be'),
    'tree5-rank2 star exact': (0, 3, 'a55f256f2a4322be'),
    'tree5-rank2 star bounds': (0, 3, 'a55f256f2a4322be'),
    'tree5-rank3 tree auto': (0, 3, '990323a2a2285397'),
    'tree5-rank3 tree exact': (0, 3, '990323a2a2285397'),
    'tree5-rank3 tree bounds': (0, 3, '990323a2a2285397'),
    'tree5-rank3 star auto': (0, 3, '2686e5f07a6995cd'),
    'tree5-rank3 star exact': (0, 3, '2686e5f07a6995cd'),
    'tree5-rank3 star bounds': (0, 3, '2686e5f07a6995cd'),
    'sym01 sym auto': (0, 4, 'bc4db2ba0d21d442'),
    'sym01 sym exact': (0, 4, '3663ade598b751b5'),
    'sym01 sym bounds': (3, None, 'b8f0cdee03746c70'),
    'sym01-diag sym auto': (0, 3, '6fbdb510d3c5c9f4'),
    'sym01-diag sym exact': (0, 3, '273fa7530389c47c'),
    'sym01-diag sym bounds': (3, None, 'd8335b4965f06894'),
    'sym01-infinite sym auto': (4, 'infinity', 'c9b0f5d68772f82f'),
    'sym01-infinite sym exact': (4, 'infinity', 'c9b0f5d68772f82f'),
    'sym01-infinite sym bounds': (4, 'infinity', 'c9b0f5d68772f82f'),
    'star01-solid star auto': (0, 3, '04c6e38c6cffb2d5'),
    'star01-solid star exact': (0, 3, 'cc6bfe9ef9e1d05b'),
    'star01-solid star bounds': (3, None, 'fbbd870df0a12a92'),
    'star01-solid tree auto': (0, 2, '70bab56f1065f006'),
    'star01-solid tree exact': (0, 2, '472127e797b7022c'),
    'star01-solid tree bounds': (3, None, '9561da9eab6ab482'),
    'star01-nonsolid star auto': (0, 3, '5a7a4b9a6b5b9751'),
    'star01-nonsolid star exact': (0, 3, '96a40f6e7e062e2e'),
    'star01-nonsolid star bounds': (3, None, 'c28a1ebc76959cbf'),
    'star01-nonsolid tree auto': (0, 2, 'a671d41f13fddbc7'),
    'star01-nonsolid tree exact': (0, 2, '0cbec28d4bbd60d1'),
    'star01-nonsolid tree bounds': (3, None, 'c7ee8daae790a80a'),
    'tree01 tree auto': (0, 3, '0daec4c11afe1b29'),
    'tree01 tree exact': (0, 3, '4793ba90d78cb45a'),
    'tree01 tree bounds': (0, 3, '4793ba90d78cb45a'),
    'tree01 star auto': (0, 3, 'c9501514b0f48bee'),
    'tree01 star exact': (0, 3, 'd9993c6f094a696a'),
    'tree01 star bounds': (3, None, 'fdf5ea640d771001'),
    'sym6 sym auto': (0, 6, '74e15c7971f3664f'),
    'sym6 sym exact': (0, 6, '74e15c7971f3664f'),
    'sym6 sym bounds': (3, None, '38b793a26b6a4b1d'),
    'tree6 tree auto': (0, 3, '7f72eafa32ef4740'),
    'tree6 tree exact': (0, 3, '7f72eafa32ef4740'),
    'tree6 tree bounds': (0, 3, '7f72eafa32ef4740'),
    'tree6 star auto': (0, 3, 'b22f842c124a4aa5'),
    'tree6 star exact': (0, 3, 'b22f842c124a4aa5'),
    'tree6 star bounds': (3, None, '4db2a6e794d4563a'),
    'star7 star auto': (0, 4, '3bfc9a1b48146313'),
    'star7 star exact': (0, 4, '3bfc9a1b48146313'),
    'star7 star bounds': (3, None, '0abbf8b0a2fe4dd9'),
    'star7 tree auto': (0, 3, 'f6bc70a04eb78020'),
    'star7 tree exact': (0, 3, 'f6bc70a04eb78020'),
    'star7 tree bounds': (3, None, 'b9c888855220e6e0'),
    'tree7 tree auto': (0, 3, '06e3e601c1eca0ea'),
    'tree7 tree exact': (0, 3, '06e3e601c1eca0ea'),
    'tree7 tree bounds': (3, None, 'a4b6e2468f12a342'),
    'tree7 star auto': (0, 4, '5c921b4f24ad5850'),
    'tree7 star exact': (0, 4, '5c921b4f24ad5850'),
    'tree7 star bounds': (3, None, 'b3f48864cab4f85c'),
    'star7 star auto --budget 1': (3, None, '0abbf8b0a2fe4dd9'),
    'star7 star exact --budget 1': (3, None, '0abbf8b0a2fe4dd9'),
    'tree7 tree auto --budget 1': (3, None, 'a4b6e2468f12a342'),
    'sym6 sym auto --budget 1': (3, None, '38b793a26b6a4b1d'),
    'sym6 sym auto --no-certificates': (0, 6, '8cff38ca7dc73fb0'),
    'star5-rank2 sym auto': (2, '-', 'e3b0c44298fc1c14'),
    'sym3-rank2 tree bounds': (2, '-', 'e3b0c44298fc1c14'),
    'sym4-rational sym decompose': (0, '-', 'bdd78a25c56b66b6'),
    'sym4-rational sym decompose --minimize': (0, '-', 'bdd78a25c56b66b6'),
    'sym4-infinite sym decompose': (4, '-', '0883747ec21043be'),
    'sym4-infinite sym decompose --minimize': (4, '-', '0883747ec21043be'),
    'sym6 sym decompose': (0, '-', '8938bb12cbcf5e28'),
    'sym6 sym decompose --minimize': (0, '-', '746acc11b8a961dd'),
    'star5-rank2 star decompose': (0, '-', 'a214d79c3c841ea1'),
    'star5-rank2 star decompose --minimize': (0, '-', '2d467c3feb7cfa1e'),
    'star7 star decompose': (0, '-', 'bda441d6e31422bb'),
    'star7 star decompose --minimize': (0, '-', 'ddb363fc7ba3647a'),
    'tree5-rank2 tree decompose': (0, '-', 'fc92cda78c4b83d2'),
    'tree5-rank2 tree decompose --minimize': (0, '-', 'fc92cda78c4b83d2'),
    'tree5-rank3 tree decompose': (0, '-', '579a489880feb8bb'),
    'tree5-rank3 tree decompose --minimize': (0, '-', '579a489880feb8bb'),
    'tree6 tree decompose': (0, '-', '34812f338947eb77'),
    'tree6 tree decompose --minimize': (0, '-', '34812f338947eb77'),
    'tree7 tree decompose': (0, '-', '3b30253ef178faec'),
    'tree7 tree decompose --minimize': (0, '-', '49b201836336b81c'),
}

RATIONAL = [
    "sym5-rational", "star6-rational", "star5-rational", "tree5-rational",
    "tree6-rational", "tree7-rational", "tree8-rational",
]


def _routes(names):
    return [
        (name, notion, method, ())
        for name in names
        for notion in NOTIONS_OF[name.split("-")[0].rstrip("0123456789")]
        for method in ("auto", "exact", "bounds")
    ]


# The rational routes come last so that the earlier test ids keep their
# positional suffixes.
RUNS = _routes(name for name in MATRICES if name not in RATIONAL) + [
    ("star7", "star", "auto", ("--budget", "1")),
    ("star7", "star", "exact", ("--budget", "1")),
    ("tree7", "tree", "auto", ("--budget", "1")),
    ("sym6", "sym", "auto", ("--budget", "1")),
    ("sym6", "sym", "auto", ("--no-certificates",)),
    ("star5-rank2", "sym", "auto", ()),
    ("sym3-rank2", "tree", "bounds", ()),
] + _routes(RATIONAL)

DECOMPOSE = [
    (name, notion, minimize)
    for name, notion in (
        ("sym4-rational", "sym"),
        ("sym4-infinite", "sym"),
        ("sym6", "sym"),
        ("star5-rank2", "star"),
        ("star7", "star"),
        ("tree5-rank2", "tree"),
        ("tree5-rank3", "tree"),
        ("tree6", "tree"),
        ("tree7", "tree"),
    )
    for minimize in (False, True)
]


def _wide11() -> DissimilarityMatrix:
    # Mixed denominators, and indices past 9, which print as x1,10.
    rng = random.Random(404)
    return DissimilarityMatrix.from_function(
        11, lambda i, j: Fraction(rng.randint(0, 9), rng.choice((1, 2, 3)))
    )


GENERATED = {"tr6": lambda: generate("tr6"), "wide11": _wide11}

# `deficiency --basis B --format F` on a symmetric loop case (sym3-infinite),
# rationals, the 9x9 `tr6` example and an 11x11 dissimilarity:
# "input basis format" -> (exit code, stdout sha256[:16]).
DEFICIENCY_PINS = {
    'sym3-rank1 symmetric-minors json': (0, '7903b062c823572a'),
    'sym3-rank1 symmetric-minors dot': (0, '32c7b69f38e13c88'),
    'sym3-infinite symmetric-minors json': (0, '521470575926f73b'),
    'sym3-infinite symmetric-minors dot': (0, 'f394040c049ac316'),
    'sym4-rational symmetric-minors json': (0, 'd84575814efa569d'),
    'sym4-rational symmetric-minors dot': (0, '485eaf44f8800848'),
    'sym6 symmetric-minors json': (0, '66a6296cc5a41005'),
    'sym6 symmetric-minors dot': (0, '95e9d5de6c503ef3'),
    'star5-rank2 star-tree json': (0, 'cefcdd316dce23ba'),
    'star5-rank2 star-tree dot': (0, 'c1b308fc9f19485f'),
    'star5-rank2 pluecker json': (0, '648a06414ca9dff3'),
    'star5-rank2 pluecker dot': (0, '91226d0036725800'),
    'tree7 star-tree json': (0, '70721164bde5d0b9'),
    'tree7 star-tree dot': (0, 'b9414f8e89be943d'),
    'tree7 pluecker json': (0, '98ca7a0baf8006df'),
    'tree7 pluecker dot': (0, 'a14509dacf8f2fed'),
    'tree7 symmetric-minors json': (2, 'e3b0c44298fc1c14'),
    'tree7 symmetric-minors dot': (2, 'e3b0c44298fc1c14'),
    'tr6 star-tree json': (0, 'a0468e674460b1c5'),
    'tr6 star-tree dot': (0, '805b5c6cbcd31490'),
    'tr6 pluecker json': (0, '7f6ea37ee05f7c86'),
    'tr6 pluecker dot': (0, 'a35d32c463ab58fb'),
    'wide11 star-tree json': (0, '65f5a2a1639c853e'),
    'wide11 star-tree dot': (0, '2ddda248d0428b63'),
    'wide11 pluecker json': (0, '58fff85d0ae3fae6'),
    'wide11 pluecker dot': (0, '50b30994133ec57f'),
}

DEFICIENCY = [
    (name, basis, fmt)
    for name, bases in (
        ("sym3-rank1", ("symmetric-minors",)),
        ("sym3-infinite", ("symmetric-minors",)),
        ("sym4-rational", ("symmetric-minors",)),
        ("sym6", ("symmetric-minors",)),
        ("star5-rank2", ("star-tree", "pluecker")),
        ("tree7", ("star-tree", "pluecker", "symmetric-minors")),
        ("tr6", ("star-tree", "pluecker")),
        ("wide11", ("star-tree", "pluecker")),
    )
    for basis in bases
    for fmt in ("json", "dot")
]


def _matrix_text(name: str) -> str:
    if name in GENERATED:
        return serialize_matrix(GENERATED[name]())
    rows = MATRICES[name]
    kind = "symmetric" if name.startswith("sym") else "dissimilarity"
    lines = [f"{kind} {len(rows)}"]
    lines += [" ".join("*" if x is None else str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _run(tmp_path, capsys, argv_tail, name):
    path = tmp_path / f"{name}.txt"
    path.write_text(_matrix_text(name))
    code = main([argv_tail[0], str(path), *argv_tail[1:]])
    return code, capsys.readouterr().out


def _pin(code: int, out: str):
    rank = json.loads(out).get("rank", "-") if out else "-"
    return code, rank, hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,notion,method,extra", RUNS)
def test_rank_routes_are_pinned(tmp_path, capsys, name, notion, method, extra):
    argv = ["rank", "--notion", notion, "--method", method, *extra]
    code, out = _run(tmp_path, capsys, argv, name)
    key = " ".join((name, notion, method, *extra))
    assert _pin(code, out) == PINS[key]


@pytest.mark.parametrize("name,notion,minimize", DECOMPOSE)
def test_decompose_is_pinned(tmp_path, capsys, name, notion, minimize):
    argv = ["decompose", "--notion", notion] + (["--minimize"] if minimize else [])
    code, out = _run(tmp_path, capsys, argv, name)
    key = " ".join((name, notion, "decompose") + (("--minimize",) if minimize else ()))
    assert _pin(code, out) == PINS[key]


@pytest.mark.parametrize("name,basis,fmt", DEFICIENCY)
def test_deficiency_is_pinned(tmp_path, capsys, name, basis, fmt):
    code, out = _run(tmp_path, capsys, ["deficiency", "--basis", basis, "--format", fmt], name)
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert (code, digest) == DEFICIENCY_PINS[" ".join((name, basis, fmt))]


# `dimension --notion X --n 6 --grid` CSV: notion -> stdout sha256[:16].
DIMENSION_PINS = {
    "sym": "d26070e73c209607",
    "star": "85c8c3b851d9da3f",
    "tree": "9a9ee9b621441d6b",
}


@pytest.mark.parametrize("notion", sorted(DIMENSION_PINS))
def test_dimension_grid_is_pinned(capsys, notion):
    code = main(["dimension", "--notion", notion, "--n", "6", "--grid"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert (code, digest) == (0, DIMENSION_PINS[notion])


def _rational_tree_matrix(seed: int) -> DissimilarityMatrix:
    """Leaf distances of a seeded random binary tree on 4..9 leaves, grown
    by inserting each leaf on a random edge.  Each weight is an integer over
    1, 2 or 3: in [-6, 0] on internal edges (zero ones included, so some
    shapes collapse), in [-3, 12] on pendant edges."""
    rng = random.Random(seed)
    n = 4 + seed % 6
    adj: dict = {}

    def edge(u, v):
        low, high = (-6, 0) if u > n and v > n else (-3, 12)
        w = Fraction(rng.randint(low, high), rng.choice((1, 2, 3)))
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w

    for leaf in (1, 2, 3):
        edge(leaf, n + 1)
    for leaf in range(4, n + 1):
        mid = n + leaf - 2
        u = rng.choice(sorted(adj))
        v = rng.choice(sorted(adj[u]))
        del adj[u][v], adj[v][u]
        edge(u, mid)
        edge(mid, v)
        edge(leaf, mid)
    return WeightedTree(n, adj).leaf_distance_matrix()


# `realize_tree(...).to_newick()` of `_rational_tree_matrix(seed)`:
# seed -> sha256[:16].
NEWICK_PINS = {
    1: '1a6f3e9b4b41d2b8',
    2: '3384b23dcf5ecbe7',
    3: '8c06900b8310fd83',
    4: 'ea55215f9aec63c4',
    5: '9986b16f915b8c9d',
    6: '0eaea0ae4ff321a8',
    7: '266aebd5b29eb88b',
    8: 'e8d0855863a21bfe',
    9: '78618c561bb50a00',
    10: '84517b11e764e295',
    11: '3ff57c89dd3cb85d',
    12: '22eacb61faadd941',
}


@pytest.mark.parametrize("seed", sorted(NEWICK_PINS))
def test_realize_tree_newick_is_pinned(seed):
    m = _rational_tree_matrix(seed)
    tree = realize_tree(m)
    assert tree.leaf_distance_matrix() == m
    assert hashlib.sha256(tree.to_newick().encode()).hexdigest()[:16] == NEWICK_PINS[seed]


# sha256 of the JSON of every construction in `_constructions()`.
CONSTRUCTION_PIN = "e1b9611e3e09f674959f305a1d04783b62c1466a7c59067976ada4ad72d95a55"


def _constructions():
    """Seeded inputs with entries of denominator 1, 2 or 3 that often tie:
    the symmetric bound at n = 1..9 (finite rank, zero diagonal), and the
    star bound, the search's tree bound and `tree_upper_decomposition` at
    n = 3..9."""
    rng = random.Random(14)

    def entry(i, j):
        return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))

    for n in range(1, 10):
        for _ in range(20):
            m = SymmetricMatrix.from_function(n, lambda i, j: 0 if i == j else entry(i, j))
            yield symmetric_upper_decomposition(m)
    for n in range(3, 10):
        for _ in range(30):
            d = DissimilarityMatrix.from_function(n, entry)
            yield star_upper_decomposition(d)
            yield _upper_for_search(d, TREE)
            yield tree_upper_decomposition(d)


def test_upper_constructions_are_pinned():
    digest = hashlib.sha256()
    for dec in _constructions():
        digest.update(json.dumps(dec.to_json_dict()).encode())
    assert digest.hexdigest() == CONSTRUCTION_PIN


# sha256 of the JSON of `compute_rank(m, notion)` over `_zero_one_inputs()`.
COVER_PIN = "a5d8e7a0f7c67f3649953ba47169168a47568cb7daa107ed58b25818a3c7cdd9"


def _zero_one_inputs():
    """Seeded 0/1 inputs answered by the cover formulas, n = 3..8 at zero
    densities 0.2, 0.5 and 0.8: each dissimilarity under star and tree
    rank; symmetric inputs with a zero diagonal, with random diagonal
    ones, and with diagonal-one rows made all ones (a finite rank)."""
    rng = random.Random(19)
    for n in range(3, 9):
        for density in (0.2, 0.5, 0.8):
            for _ in range(6):
                zero = {p: rng.random() < density for p in itertools.combinations(range(1, n + 1), 2)}
                d = DissimilarityMatrix.from_function(n, lambda i, j: 0 if zero[min(i, j), max(i, j)] else 1)
                yield d, "star"
                yield d, "tree"
                ones = {v for v in range(1, n + 1) if rng.random() < 0.3}
                for full_rows in (False, True):
                    yield SymmetricMatrix.from_function(
                        n,
                        lambda i, j: 1
                        if (i == j and i in ones) or (full_rows and {i, j} & ones)
                        else (0 if i == j or zero[min(i, j), max(i, j)] else 1),
                    ), "sym"


def test_cover_answers_are_pinned():
    digest = hashlib.sha256()
    for m, notion in _zero_one_inputs():
        digest.update(json.dumps(compute_rank(m, notion).to_json_dict()).encode())
    assert digest.hexdigest() == COVER_PIN


def test_library_matches_cli(tmp_path, capsys):
    for name, notion, method, extra in RUNS:
        if extra and extra[0] == "--no-certificates":
            continue
        budget = int(extra[1]) if extra else None
        code, out = _run(tmp_path, capsys, ["rank", "--notion", notion, "--method", method, *extra], name)
        if code == 2:  # the matrix file is of the wrong kind for the notion
            continue
        m = parse_matrix(_matrix_text(name))
        result = compute_rank(m, notion, method, budget)
        assert json.dumps(result.to_json_dict(), indent=2) + "\n" == out, (name, notion, method)


def test_finite_bounds_answers_are_the_exact_bytes():
    """`bounds` is the search with no rank to search (budget 0), so each
    determination it reaches (χ = 1, χ equal to the construction's size, or
    infinite rank) is `exact`'s JSON byte for byte: on every pinned input
    and on seeded 3..7 inputs of each notion."""
    cases = [
        (parse_matrix(_matrix_text(name)), notion)
        for name, notion, method, _ in _routes(MATRICES)
        if method == "bounds"
    ]
    for seed in range(8):
        rng = random.Random(seed)
        for n in range(3, 8):
            d = random_dissimilarity(rng, n, 0, 4)
            cases += [
                (random_finite_symmetric(rng, n, 0, 4), "sym"),
                (random_symmetric(rng, n, 0, 4), "sym"),
                (d, "star"),
                (d, "tree"),
            ]
    determined = set()
    for m, notion in cases:
        bounds = compute_rank(m, notion, "bounds")
        if bounds.status != "interval":
            exact = compute_rank(m, notion, "exact")
            assert json.dumps(bounds.to_json_dict()) == json.dumps(exact.to_json_dict())
            determined.add((notion, bounds.status))
    assert {("sym", "finite"), ("sym", "infinite"), ("star", "finite"), ("tree", "finite")} <= determined


@pytest.mark.parametrize("command", ["rank", "decompose", "dimension"])
def test_notion_choices_are_the_notions(capsys, command):
    argv = [command, "--notion", "none"] + (["--n", "5"] if command == "dimension" else ["m.txt"])
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    # argparse in CPython 3.11 quotes each choice ('star'); 3.13.13 prints it bare.
    choices = re.search(r"\(choose from ([^)]*)\)", capsys.readouterr().err).group(1)
    assert [c.strip("'") for c in choices.split(", ")] == ["star", "sym", "tree"]
    assert sorted(NOTIONS) == ["star", "sym", "tree"]


@pytest.mark.parametrize(
    "error", [CertificateError("bad certificate"), ConstructionError("no scale"), RecursionError("deep")]
)
def test_internal_errors_exit_five(tmp_path, capsys, monkeypatch, error):
    import troprank.cli as cli_module

    def failing(*args):
        raise error

    monkeypatch.setattr(cli_module, "compute_rank", failing)
    path = tmp_path / "sym3-rank2.txt"
    path.write_text(_matrix_text("sym3-rank2"))
    code = main(["rank", str(path), "--notion", "sym"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 5
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_compute_rank_rejects_unknown_method():
    m = parse_matrix(_matrix_text("sym3-rank2"))
    with pytest.raises(ValueError):
        compute_rank(m, "sym", "fastest")


def test_package_imports_have_no_cycle():
    """Relative imports of src/troprank, top-level and function-local, form
    a directed acyclic graph."""
    package = Path(__file__).resolve().parent.parent / "src" / "troprank"
    graph = {}
    for path in sorted(package.glob("*.py")):
        name = path.stem
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:  # `from . import x` names modules, or __init__ attributes
                    for alias in node.names:
                        sub = alias.name
                        targets.add(sub if (package / f"{sub}.py").exists() else "__init__")
        graph[name] = targets - {name}
    graph["__init__"].discard("__init__")
    state = {}

    def visit(node, trail):
        if state.get(node) == "done":
            return
        assert state.get(node) != "open", f"import cycle: {' -> '.join(trail + [node])}"
        state[node] = "open"
        for target in sorted(graph.get(node, ())):
            visit(target, trail + [node])
        state[node] = "done"

    for node in sorted(graph):
        visit(node, [])
    assert {"rank", "upper", "small_cases", "covers", "cli"} <= set(graph)


def test_budget_two_interval_always_proves_rank_above_two(monkeypatch):
    """exact_rank(m, TREE, budget=2) returns a rank, or an interval whose
    lower bound is at least 3: either χ >= 3, or ranks 1 and 2 are ruled
    out.  The second run weakens χ to 1 (still a valid lower bound): then
    the membership test rules out r = 1 and the search rules out r = 2."""
    import troprank.rank as rank_module

    rng = random.Random(11)
    matrices = [random_dissimilarity(rng, 6 + trial % 2, 0, 6) for trial in range(30)]
    intervals = 0
    for m in matrices:
        result = exact_rank(m, TREE, budget=2)
        if result.status == "interval":
            intervals += 1
            assert result.lower >= 3 and result.chromatic_bound >= 3
        else:
            assert result.status == "finite"
    assert intervals > 0

    monkeypatch.setattr(rank_module, "optimal_coloring", lambda h: (1, None))
    searched = 0
    for m in matrices:
        result = exact_rank(m, TREE, budget=2)
        if result.status == "interval":
            searched += 1
            assert result.lower == 3
            assert result.lower_certificate["infeasible_through"] == 2
        else:
            assert result.status == "finite" and result.value <= 3
    assert searched >= intervals
