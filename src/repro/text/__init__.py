"""Full-text machinery: tokenizer and the paper's two inverted indexes.

Section VI of the paper indexes the database graph with ``invertedN``
(keyword -> nodes containing it) and ``invertedE`` (keyword -> edges
whose endpoints both lie within radius ``R`` of some node containing
it). :class:`~repro.text.inverted_index.CommunityIndex` bundles both and
records build statistics; graph projection (Algorithm 6) is implemented
on top of it in :mod:`repro.core.projection`.
"""

from repro.text.inverted_index import (
    CommunityIndex,
    EdgeInvertedIndex,
    NodeInvertedIndex,
)
from repro.text.maintenance import GraphDelta, apply_delta, update_index
from repro.text.tokenizer import Tokenizer, tokenize

__all__ = [
    "CommunityIndex",
    "EdgeInvertedIndex",
    "GraphDelta",
    "NodeInvertedIndex",
    "Tokenizer",
    "apply_delta",
    "tokenize",
    "update_index",
]
