"""HTML feature extraction (Section 4.2.1).

"We implemented a custom bag-of-words feature extractor based on
tag-attribute-value triplets" — each element contributes its tag, each
attribute a ``tag.attr`` token, and each (attribute, value) pair a
``tag.attr=value`` token.  Values are truncated and URLs reduced to their
path shape so features generalize across hosts while campaign template
telltales (class prefixes, stylesheet paths, analytics accounts) survive.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.html.nodes import Comment, Element
from repro.perf.cache import LRUCache, parse_html_cached

_MAX_VALUE_LEN = 48
_HOST_RE = re.compile(r"^https?://[^/]+")
_DIGIT_RUN_RE = re.compile(r"\d{3,}")

#: Attributes whose values are host-specific noise, not template signal.
_SKIP_VALUE_ATTRS = frozenset({"alt", "title", "value"})


def _normalize_value(attr: str, value: str) -> str:
    """Strip host-specific parts so the same template matches across domains."""
    value = _HOST_RE.sub("", value)
    value = _DIGIT_RUN_RE.sub("N", value)
    if len(value) > _MAX_VALUE_LEN:
        value = value[:_MAX_VALUE_LEN]
    return value


#: Feature Counters cached by content hash: attribution re-extracts the
#: same archived store/doorway pages every refinement round.
_FEATURE_CACHE = LRUCache("features", maxsize=32768)


def extract_features(html: str) -> Counter:
    """Tag-attribute-value bag of words for one page.

    Content-addressed: the returned Counter is shared between callers with
    identical HTML and must be treated as read-only (the training and
    attribution paths only read it into sparse matrices)."""
    return _FEATURE_CACHE.memo_html(html, _extract_features)


def _extract_features(html: str) -> Counter:
    doc = parse_html_cached(html)
    features: Counter = Counter()
    for node in doc.root.iter():
        tag = node.tag
        features[tag] += 1
        for attr, value in node.attrs.items():
            features[f"{tag}.{attr}"] += 1
            if attr in _SKIP_VALUE_ATTRS:
                continue
            norm = _normalize_value(attr, value)
            if norm:
                features[f"{tag}.{attr}={norm}"] += 1
            # Class lists additionally contribute per-class tokens — this is
            # where campaign class-prefix telltales live.
            if attr == "class":
                for cls in value.split():
                    features[f"{tag}.class~{_DIGIT_RUN_RE.sub('N', cls)}"] += 1
    # Template comments are strong campaign signatures.
    features.update(
        f"comment={_normalize_value('', c.data.strip())}"
        for c in _iter_comments(doc.root)
        if c.data.strip()
    )
    return features


def _iter_comments(root: Element):
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if isinstance(child, Comment):
                yield child
            elif isinstance(child, Element):
                stack.append(child)


class Vocabulary:
    """Feature-name to column-index mapping, fit on a corpus."""

    def __init__(self, min_df: int = 1):
        self.min_df = min_df
        self._index: Dict[str, int] = {}

    def fit(self, feature_maps: Sequence[Counter]) -> "Vocabulary":
        document_frequency: Counter = Counter()
        for features in feature_maps:
            document_frequency.update(features.keys())
        self._index = {}
        for name in sorted(document_frequency):
            if document_frequency[name] >= self.min_df:
                self._index[name] = len(self._index)
        return self

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> Optional[int]:
        return self._index.get(name)

    def names(self) -> List[str]:
        ordered = [""] * len(self._index)
        for name, idx in self._index.items():
            ordered[idx] = name
        return ordered


def vectorize(
    feature_maps: Sequence[Counter], vocabulary: Vocabulary, sublinear: bool = True
):
    """Sparse CSR count matrix (rows = pages); optional 1+log(count) scaling."""
    from scipy import sparse  # only a classifying run loads scipy

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for row, features in enumerate(feature_maps):
        for name, count in features.items():
            col = vocabulary.index_of(name)
            if col is None:
                continue
            rows.append(row)
            cols.append(col)
            data.append(1.0 + float(np.log(count)) if sublinear else float(count))
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(feature_maps), len(vocabulary))
    )
    return matrix
