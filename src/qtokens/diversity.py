"""Surface diversity metrics for corpora.

The headline score is the inverse compression ratio of the concatenated
corpus text: redundant text compresses well, so a high compression ratio
means low diversity. The remaining metrics (type-token ratio, MATTR,
n-gram diversity, self-repetition) are the usual lexical baselines it is
compared against.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import DiversityError

DEFAULT_LEVEL = 6
DEFAULT_SEPARATOR = "\n"
DEFAULT_MATTR_WINDOW = 100
DEFAULT_NGRAM_NS = (2, 3, 4)
DEFAULT_SELF_REPETITION_N = 4


@dataclass
class DiversityReport:
    """Per-corpus diversity scores; ``dr`` is exactly ``1 / cr``."""

    cr: float
    dr: float
    ttr: float
    mattr: float
    ngram_diversity: dict[int, float]
    self_repetition: float | None
    warnings: tuple[str, ...] = ()

    def to_flat_dict(self) -> dict:
        out = {"cr": self.cr, "dr": self.dr, "ttr": self.ttr, "mattr": self.mattr}
        for n in sorted(self.ngram_diversity):
            out[f"ngram_diversity_{n}"] = self.ngram_diversity[n]
        out["self_repetition"] = self.self_repetition
        if self.warnings:
            out["warnings"] = "; ".join(self.warnings)
        return out


def compression_ratio(
    corpus: Corpus,
    level: int = DEFAULT_LEVEL,
    separator: str = DEFAULT_SEPARATOR,
) -> float:
    """Original bytes over DEFLATE-compressed bytes of the joined corpus.

    Documents are joined with ``separator`` and measured on UTF-8 bytes.
    Compression is streamed document by document, so the concatenation is
    never materialized. ``level`` is a zlib level: -1 (zlib's default) or 0..9.
    """
    if not -1 <= level <= 9:
        raise DiversityError(f"compression level must be in -1..9, got {level}")
    if len(corpus) == 0:
        raise DiversityError("cannot compress empty corpus")
    sep = separator.encode("utf-8")
    comp = zlib.compressobj(level)
    raw = 0
    compressed = 0
    for i, doc in enumerate(corpus):
        chunk = doc.text.encode("utf-8")
        if i > 0:
            raw += len(sep)
            compressed += len(comp.compress(sep))
        raw += len(chunk)
        compressed += len(comp.compress(chunk))
    compressed += len(comp.flush())
    if raw == 0:
        raise DiversityError("cannot compress empty corpus")
    return raw / compressed


def diversity_score(
    corpus: Corpus,
    level: int = DEFAULT_LEVEL,
    separator: str = DEFAULT_SEPARATOR,
) -> float:
    """Inverse compression ratio; higher means more diverse."""
    return 1.0 / compression_ratio(corpus, level, separator)


def type_token_ratio(tokens: Sequence[str]) -> float:
    """Unique tokens over total tokens."""
    if not tokens:
        raise DiversityError("type_token_ratio of empty sequence")
    return len(set(tokens)) / len(tokens)


def mattr(tokens: Sequence[str], window: int) -> float:
    """Moving-average type-token ratio over every contiguous window.

    Falls back to the plain type-token ratio when the sequence is shorter
    than the window. The sliding distinct-count is updated incrementally;
    per-window ratios are averaged in window order.
    """
    if window < 1:
        raise DiversityError(f"window must be >= 1, got {window}")
    if not tokens:
        raise DiversityError("mattr of empty sequence")
    n = len(tokens)
    if n < window:
        return type_token_ratio(tokens)
    counts: Counter = Counter(tokens[:window])
    total = len(counts) / window
    for i in range(window, n):
        left = tokens[i - window]
        counts[left] -= 1
        if counts[left] == 0:
            del counts[left]
        counts[tokens[i]] += 1
        total += len(counts) / window
    return total / (n - window + 1)


def ngram_diversity(tokens: Sequence[str], n: int) -> float:
    """Unique n-grams over total n-grams."""
    if n < 1:
        raise DiversityError(f"n must be >= 1, got {n}")
    if len(tokens) < n:
        raise DiversityError(f"sequence of {len(tokens)} tokens is shorter than n={n}")
    total = len(tokens) - n + 1
    grams = {tuple(tokens[i : i + n]) for i in range(total)}
    return len(grams) / total


def self_repetition(documents: Sequence[Sequence[str]], n: int = DEFAULT_SELF_REPETITION_N) -> float:
    """Average log(1 + k) where k counts a document's n-grams seen elsewhere.

    Every n-gram occurrence in a document contributes to k when that n-gram
    appears in at least one other document. Documents shorter than n tokens
    are skipped; at least two must remain.
    """
    if n < 1:
        raise DiversityError(f"n must be >= 1, got {n}")
    eligible = [doc for doc in documents if len(doc) >= n]
    if len(eligible) < 2:
        raise DiversityError("self_repetition needs at least 2 documents with >= n tokens")
    gram_sets = []
    for doc in eligible:
        gram_sets.append({tuple(doc[i : i + n]) for i in range(len(doc) - n + 1)})
    # Number of documents containing each n-gram.
    doc_freq: Counter = Counter()
    for grams in gram_sets:
        doc_freq.update(grams)
    total = 0.0
    for doc, grams in zip(eligible, gram_sets):
        k = 0
        for i in range(len(doc) - n + 1):
            g = tuple(doc[i : i + n])
            if doc_freq[g] > 1:
                k += 1
        total += np.log1p(k)
    return total / len(eligible)


def score_corpus_diversity(
    corpus: Corpus,
    level: int = DEFAULT_LEVEL,
    separator: str = DEFAULT_SEPARATOR,
    mattr_window: int = DEFAULT_MATTR_WINDOW,
    ngram_ns: Sequence[int] = DEFAULT_NGRAM_NS,
    self_repetition_n: int = DEFAULT_SELF_REPETITION_N,
) -> DiversityReport:
    """Compute the full diversity report for one corpus.

    Token-based metrics run on the concatenated stream of the documents'
    tokens; the compression metric reads the UTF-8 text instead.
    Metrics whose preconditions fail on this corpus (e.g. self-repetition
    with a single document) are reported as None.
    """
    cr = compression_ratio(corpus, level, separator)
    dr = 1.0 / cr
    warnings = ()
    if cr < 1.0:
        warnings = (f"compression ratio {cr:.4f} < 1; input is incompressible",)
    per_doc_tokens = [doc.tokens for doc in corpus]
    tokens = [t for toks in per_doc_tokens for t in toks]
    if not tokens:
        raise DiversityError("corpus has no tokens")
    ngd = {}
    for n in ngram_ns:
        ngd[n] = ngram_diversity(tokens, n) if len(tokens) >= n else None
    try:
        sr = self_repetition(per_doc_tokens, self_repetition_n)
    except DiversityError:
        sr = None
    return DiversityReport(
        cr=cr,
        dr=dr,
        ttr=type_token_ratio(tokens),
        mattr=mattr(tokens, mattr_window),
        ngram_diversity=ngd,
        self_repetition=sr,
        warnings=warnings,
    )


METRIC_KEYS = ("dr", "ttr", "mattr", "ngram_diversity", "self_repetition")


@dataclass
class CorrelationMatrix:
    """Pairwise Pearson correlations between metric score vectors.

    ``undefined`` lists metrics that were constant across the corpora (or
    unavailable); their rows and columns hold None instead of NaN.
    """

    metrics: tuple[str, ...]
    values: list[list[float | None]]
    undefined: tuple[str, ...] = ()


def metric_correlation_matrix(
    corpora: Sequence[Corpus],
    mattr_window: int = DEFAULT_MATTR_WINDOW,
    ngram_n: int = 2,
    self_repetition_n: int = DEFAULT_SELF_REPETITION_N,
) -> CorrelationMatrix:
    """Correlate the diversity metrics across a set of corpora."""
    if len(corpora) < 3:
        raise DiversityError("metric correlation needs at least 3 corpora")
    rows = {key: [] for key in METRIC_KEYS}
    for corpus in corpora:
        report = score_corpus_diversity(
            corpus,
            mattr_window=mattr_window,
            ngram_ns=(ngram_n,),
            self_repetition_n=self_repetition_n,
        )
        rows["dr"].append(report.dr)
        rows["ttr"].append(report.ttr)
        rows["mattr"].append(report.mattr)
        rows["ngram_diversity"].append(report.ngram_diversity[ngram_n])
        rows["self_repetition"].append(report.self_repetition)
    undefined = []
    vectors = {}
    for key, vals in rows.items():
        if any(v is None for v in vals):
            undefined.append(key)
            continue
        arr = np.asarray(vals, dtype=float)
        if np.ptp(arr) == 0.0:
            undefined.append(key)
            continue
        vectors[key] = arr
    metrics = tuple(rows.keys())
    size = len(metrics)
    values: list[list[float | None]] = [[None] * size for _ in range(size)]
    for i, mi in enumerate(metrics):
        for j, mj in enumerate(metrics):
            if mi in vectors and mj in vectors:
                if i == j:
                    values[i][j] = 1.0
                else:
                    values[i][j] = float(np.corrcoef(vectors[mi], vectors[mj])[0, 1])
    return CorrelationMatrix(metrics=metrics, values=values, undefined=tuple(undefined))
