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
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import RefineError

# Fixed, published hash seed: selections must be reproducible across machines.
FEATURE_HASH_SEED = 0x9E3779B1
# Selection features: uni- and bigram counts hashed into 65,536 buckets.
N_RANGE = (1, 2)
N_BUCKETS = 1 << 16

DEFAULT_SHINGLE_N = 3
DEFAULT_N_HASHES = 128
DEFAULT_BANDS = 16

# Largest prime below 2^32: (a*x + b) stays within uint64 for a, x, b < p.
_MINHASH_PRIME = np.uint64(4294967291)


def _ngram_hash(gram: tuple[str, ...], seed: int) -> int:
    """Keyed 64-bit hash of an n-gram, shared by feature buckets and shingles."""
    digest = hashlib.blake2b(
        "\x1f".join(gram).encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "big"),
    ).digest()
    return int.from_bytes(digest, "big")


def corpus_features(corpus: Corpus) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each document's hashed n-gram counts, stored sparse.

    One ``(ids, counts)`` pair per document: the sorted, distinct buckets
    its n-grams fall in and how many fall in each, so memory grows with
    distinct n-grams, not with ``N_BUCKETS``. An empty document has no
    ids. Each distinct n-gram is hashed once per call.
    """
    lo, hi = N_RANGE
    memo: dict[tuple[str, ...], int] = {}
    features = []
    for doc in corpus:
        ids = []
        for n in range(lo, hi + 1):
            for gram in zip(*(doc.tokens[k:] for k in range(n))):
                bucket = memo.get(gram)
                if bucket is None:
                    bucket = memo[gram] = _ngram_hash(gram, FEATURE_HASH_SEED) % N_BUCKETS
                ids.append(bucket)
        features.append(np.unique(np.array(ids, dtype=np.int64), return_counts=True))
    return features


def _smoothed_log_probs(
    features: list[tuple[np.ndarray, np.ndarray]], name: str, smoothing: float
) -> np.ndarray:
    if not features:
        raise RefineError(f"{name} corpus has no documents")
    # float64 weights count exactly up to 2**53 n-grams
    counts = np.bincount(
        np.concatenate([ids for ids, _ in features]),
        weights=np.concatenate([doc_counts for _, doc_counts in features]),
        minlength=N_BUCKETS,
    ).astype(np.int64)
    total = int(counts.sum())
    if total <= 0:
        raise RefineError(f"{name} corpus has no n-grams")
    return np.log((counts + smoothing * total / N_BUCKETS) / (total * (1 + smoothing)))


def importance_weights(raw: Corpus, target: Corpus, smoothing: float = 1e-4) -> list[float]:
    """Log-likelihood ratio of each raw document under target vs raw buckets.

    Each corpus's bucket distribution gets add-smoothing proportional to
    its own total (``count + smoothing * total / N_BUCKETS`` per bucket),
    so every bucket has positive probability, weights stay finite, and
    scaling both totals by the same factor leaves the weights unchanged.
    Only the two corpus distributions are made dense.
    """
    if smoothing <= 0:
        raise RefineError(f"smoothing must be > 0, got {smoothing}")
    docs = corpus_features(raw)
    raw_logp = _smoothed_log_probs(docs, "raw", smoothing)
    target_logp = _smoothed_log_probs(corpus_features(target), "target", smoothing)
    delta = target_logp - raw_logp
    return [float(counts @ delta[ids]) for ids, counts in docs]


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
