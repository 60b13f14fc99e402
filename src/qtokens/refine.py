"""Non-transformative data refinement: coreset selection and dedup.

Selection hashes token n-grams into a fixed number of buckets, compares
the bucket distributions of the raw and target corpora, and scores each
document by how much more likely its n-grams are under the target
distribution than under the raw one. High-scoring documents are kept up
to a token budget.

Deduplication comes in two flavors: exact (first occurrence of each text
wins) and near (MinHash signatures banded into an LSH index; documents
colliding in any band are clustered and one representative per cluster
survives).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus, Document
from .errors import RefineError

# Fixed, published hash seed: selections must be reproducible across machines.
FEATURE_HASH_SEED = 0x9E3779B1
DEFAULT_N_BUCKETS = 1 << 16
DEFAULT_N_RANGE = (1, 2)

DEFAULT_SHINGLE_N = 3
DEFAULT_N_HASHES = 128
DEFAULT_BANDS = 16

# Largest prime below 2^32: (a*x + b) stays within uint64 for a, x, b < p.
_MINHASH_PRIME = np.uint64(4294967291)


@dataclass
class FeatureVector:
    """Hashed n-gram counts for one document (or an aggregate), stored sparse.

    ``ids`` holds the sorted, distinct buckets that occur and ``counts``
    their counts, so a vector takes memory in proportion to its distinct
    n-grams, not to ``n_buckets``.
    """

    ids: np.ndarray
    counts: np.ndarray
    n_buckets: int
    n_range: tuple[int, int]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def buckets(self) -> np.ndarray:
        """The dense count vector, ``n_buckets`` long (allocated per call)."""
        dense = np.zeros(self.n_buckets, dtype=np.int64)
        dense[self.ids] = self.counts
        return dense


def _ngram_hash(gram: tuple[str, ...], seed: int) -> int:
    """Keyed 64-bit hash of an n-gram, shared by feature buckets and shingles."""
    digest = hashlib.blake2b(
        "\x1f".join(gram).encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "big"),
    ).digest()
    return int.from_bytes(digest, "big")


def _check_params(n_range: tuple[int, int], n_buckets: int) -> None:
    lo, hi = n_range
    if n_buckets < 1:
        raise RefineError(f"n_buckets must be >= 1, got {n_buckets}")
    if lo < 1 or lo > hi:
        raise RefineError(f"invalid n_range: {n_range}")


def _check_compatible(first: FeatureVector, vectors: Sequence[FeatureVector]) -> None:
    for vec in vectors:
        if vec.n_buckets != first.n_buckets or vec.n_range != first.n_range:
            raise RefineError(
                f"feature vectors disagree on bucket count or n_range: "
                f"{vec.n_buckets} buckets, n_range {vec.n_range} vs "
                f"{first.n_buckets} buckets, n_range {first.n_range}"
            )


def _ngram_features(
    tokens: Sequence[str],
    n_range: tuple[int, int],
    n_buckets: int,
    memo: dict[tuple[str, ...], int],
) -> FeatureVector:
    # ``memo`` maps each n-gram already hashed to its bucket, so a caller
    # sharing it across documents hashes each distinct n-gram once.
    lo, hi = n_range
    ids = []
    for n in range(lo, hi + 1):
        for gram in zip(*(tokens[k:] for k in range(n))):
            bucket = memo.get(gram)
            if bucket is None:
                bucket = memo[gram] = _ngram_hash(gram, FEATURE_HASH_SEED) % n_buckets
            ids.append(bucket)
    ids, counts = np.unique(np.array(ids, dtype=np.int64), return_counts=True)
    return FeatureVector(ids=ids, counts=counts, n_buckets=n_buckets, n_range=n_range)


def hashed_ngram_features(
    doc: Document,
    n_range: tuple[int, int] = DEFAULT_N_RANGE,
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> FeatureVector:
    """Bucketed counts of all token n-grams with n in ``n_range``.

    Documents shorter than the smallest n yield an empty vector: no ids,
    total 0.
    """
    _check_params(n_range, n_buckets)
    return _ngram_features(doc.tokens, n_range, n_buckets, {})


def aggregate_features(vectors: Sequence[FeatureVector]) -> FeatureVector:
    """Sum per-document feature vectors into one distribution."""
    if not vectors:
        raise RefineError("cannot aggregate zero feature vectors")
    first = vectors[0]
    _check_compatible(first, vectors)
    # float64 weights count exactly up to 2**53 n-grams
    dense = np.bincount(
        np.concatenate([vec.ids for vec in vectors]),
        weights=np.concatenate([vec.counts for vec in vectors]),
        minlength=first.n_buckets,
    ).astype(np.int64)
    ids = np.flatnonzero(dense)
    return FeatureVector(
        ids=ids, counts=dense[ids], n_buckets=first.n_buckets, n_range=first.n_range
    )


def corpus_features(
    corpus: Corpus,
    n_range: tuple[int, int] = DEFAULT_N_RANGE,
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> tuple[FeatureVector, list[FeatureVector]]:
    """Per-document vectors plus their aggregate for a whole corpus.

    Each distinct n-gram is hashed once per call.
    """
    _check_params(n_range, n_buckets)
    memo: dict[tuple[str, ...], int] = {}
    per_doc = [_ngram_features(d.tokens, n_range, n_buckets, memo) for d in corpus]
    return aggregate_features(per_doc), per_doc


def _smoothed_log_probs(vec: FeatureVector, smoothing: float) -> np.ndarray:
    total = vec.total
    return np.log(
        (vec.buckets + smoothing * total / vec.n_buckets) / (total * (1 + smoothing))
    )


def importance_weights(
    raw: FeatureVector,
    target: FeatureVector,
    docs: Sequence[FeatureVector],
    smoothing: float = 1e-4,
) -> list[float]:
    """Log-likelihood ratio of each document under target vs raw buckets.

    Each distribution gets add-smoothing proportional to its own total
    (``count + smoothing * total / n_buckets`` per bucket), so every
    bucket has positive probability, weights stay finite, and scaling
    both totals by the same factor leaves the weights unchanged. Only the
    raw and target aggregates are made dense.
    """
    if smoothing <= 0:
        raise RefineError(f"smoothing must be > 0, got {smoothing}")
    _check_compatible(raw, [target, *docs])
    if raw.total <= 0 or target.total <= 0:
        raise RefineError("raw and target feature totals must be positive")
    delta = _smoothed_log_probs(target, smoothing) - _smoothed_log_probs(raw, smoothing)
    return [float(doc.counts @ delta[doc.ids]) for doc in docs]


def select_by_weight(
    corpus: Corpus,
    log_weights: Sequence[float],
    budget_tokens: int,
    mode: str = "topk",
    seed: int = 0,
) -> tuple[Corpus, list[str]]:
    """Keep the highest-ranked documents within a token budget.

    ``topk`` ranks by weight; ``gumbel-sample`` perturbs weights with
    seeded Gumbel noise before ranking. Ties break on document id.
    Accumulation stops at the first document that would exceed the
    budget, so the output token count never exceeds it.

    Returns the selected corpus and any warnings.
    """
    if budget_tokens < 1:
        raise RefineError(f"budget_tokens must be >= 1, got {budget_tokens}")
    if len(log_weights) != len(corpus):
        raise RefineError(
            f"weights cover {len(log_weights)} documents, corpus has {len(corpus)}"
        )
    if mode not in ("topk", "gumbel-sample"):
        raise RefineError(f"unknown selection mode {mode!r}")
    keys = list(log_weights)
    if mode == "gumbel-sample":
        rng = np.random.default_rng(seed)
        noise = rng.gumbel(size=len(keys))
        keys = [w + g for w, g in zip(keys, noise)]
    ranked = sorted(
        zip(keys, corpus.documents), key=lambda pair: (-pair[0], pair[1].id)
    )
    selected = []
    used = 0
    for _, doc in ranked:
        if used + doc.token_count > budget_tokens:
            break
        selected.append(doc)
        used += doc.token_count
    warnings = []
    if not selected:
        warnings.append("budget smaller than the smallest document; empty selection")
    return Corpus(selected), warnings


def dedup_exact(corpus: Corpus) -> Corpus:
    """Keep the first occurrence of each exact text, in stable order."""
    seen: set[str] = set()
    kept = []
    for doc in corpus:
        if doc.text in seen:
            continue
        seen.add(doc.text)
        kept.append(doc)
    return Corpus(kept)


def _shingle_hashes(tokens: Sequence[str], shingle_n: int, seed: int) -> np.ndarray:
    shingles = {tuple(tokens[i : i + shingle_n]) for i in range(len(tokens) - shingle_n + 1)}
    values = {_ngram_hash(sh, seed) % int(_MINHASH_PRIME) for sh in shingles}
    return np.fromiter(values, dtype=np.uint64, count=len(values))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def minhash_signature(
    tokens: Sequence[str], shingle_n: int, seed: int, a: np.ndarray, b: np.ndarray
) -> np.ndarray | None:
    """MinHash signature over token shingles; None for too-short documents.

    ``a`` and ``b`` hold one universal-hash permutation per signature row.
    """
    if len(tokens) < shingle_n:
        return None
    hashes = _shingle_hashes(tokens, shingle_n, seed)
    # (a * x + b) mod p per hash function, minimized over shingles; all
    # operands are < 2^32 so the products fit in uint64.
    sig = ((a[None, :] * hashes[:, None] + b[None, :]) % _MINHASH_PRIME).min(axis=0)
    return sig


def dedup_near(
    corpus: Corpus,
    shingle_n: int = DEFAULT_SHINGLE_N,
    n_hashes: int = DEFAULT_N_HASHES,
    bands: int = DEFAULT_BANDS,
    seed: int = 0,
    keep: str = "longest",
) -> Corpus:
    """Collapse near-duplicate documents found by MinHash-LSH banding.

    Documents whose signatures agree on all rows of at least one band are
    clustered together (transitively); the longest document in each
    cluster survives (``keep="first"`` keeps the earliest instead).
    Documents too short to shingle are never clustered.
    """
    if shingle_n < 1:
        raise RefineError(f"shingle_n must be >= 1, got {shingle_n}")
    if n_hashes < 1:
        raise RefineError(f"n_hashes must be >= 1, got {n_hashes}")
    if bands < 1 or n_hashes % bands != 0:
        raise RefineError(
            f"n_hashes ({n_hashes}) must be divisible by bands ({bands})"
        )
    if keep not in ("longest", "first"):
        raise RefineError(f"unknown keep policy {keep!r}")
    rows = n_hashes // bands
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MINHASH_PRIME), size=n_hashes, dtype=np.uint64)
    b = rng.integers(0, int(_MINHASH_PRIME), size=n_hashes, dtype=np.uint64)
    uf = _UnionFind(len(corpus))
    index: dict[tuple, int] = {}
    for i, doc in enumerate(corpus):
        sig = minhash_signature(doc.tokens, shingle_n, seed, a, b)
        if sig is None:
            continue
        for band in range(bands):
            key = (band, tuple(sig[band * rows : (band + 1) * rows].tolist()))
            if key in index:
                uf.union(index[key], i)
            else:
                index[key] = i
    clusters: dict[int, list[int]] = {}
    for i in range(len(corpus)):
        clusters.setdefault(uf.find(i), []).append(i)
    survivors = set()
    for members in clusters.values():
        if keep == "longest":
            best = max(members, key=lambda i: (corpus.documents[i].token_count, -i))
        else:
            best = min(members)
        survivors.add(best)
    return Corpus([doc for i, doc in enumerate(corpus.documents) if i in survivors])


def jaccard(tokens_a: Sequence[str], tokens_b: Sequence[str], shingle_n: int) -> float:
    """Exact shingle-set Jaccard similarity (used to sanity-check LSH)."""
    sa = {tuple(tokens_a[i : i + shingle_n]) for i in range(len(tokens_a) - shingle_n + 1)}
    sb = {tuple(tokens_b[i : i + shingle_n]) for i in range(len(tokens_b) - shingle_n + 1)}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def lsh_collision_probability(jaccard_sim: float, n_hashes: int, bands: int) -> float:
    """Probability that two documents at the given similarity share a band."""
    rows = n_hashes // bands
    return 1.0 - (1.0 - jaccard_sim**rows) ** bands
