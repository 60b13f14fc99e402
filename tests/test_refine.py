import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from qtokens import refine
from qtokens.corpus import Corpus, Document
from qtokens.diversity import diversity_score
from qtokens.errors import RefineError
from qtokens.refine import (
    FEATURE_HASH_SEED,
    N_BUCKETS,
    corpus_features,
    dedup_exact,
    dedup_near,
    importance_weights,
    jaccard,
    lsh_collision_probability,
    select_by_weight,
)


def oracle_bucket(gram: tuple[str, ...]) -> int:
    """The published bucket convention, computed independently."""
    digest = hashlib.blake2b(
        "\x1f".join(gram).encode(), digest_size=8,
        key=FEATURE_HASH_SEED.to_bytes(8, "big"),
    ).digest()
    return int.from_bytes(digest, "big") % N_BUCKETS


def oracle_counts(tokens: list[str]) -> dict[int, int]:
    """Bucket counts of a token list's uni- and bigrams."""
    counts: dict[int, int] = {}
    for n in (1, 2):
        for i in range(len(tokens) - n + 1):
            bucket = oracle_bucket(tuple(tokens[i : i + n]))
            counts[bucket] = counts.get(bucket, 0) + 1
    return counts


def test_features_empty_document():
    [(ids, counts)] = corpus_features(Corpus([Document.create("e", "")]))
    assert len(ids) == 0
    assert counts.sum() == 0


def test_features_single_repeated_token():
    # "a" three times and ("a", "a") twice, in two distinct buckets
    [(ids, counts)] = corpus_features(Corpus([Document.create("a", "a a a")]))
    assert list(ids) == sorted([oracle_bucket(("a",)), oracle_bucket(("a", "a"))])
    assert sorted(counts) == [2, 3]


def test_features_match_brute_force_enumeration():
    rng = np.random.default_rng(14)
    text = " ".join(f"w{v}" for v in rng.integers(0, 9, size=20))
    [(ids, counts)] = corpus_features(Corpus([Document.create("d", text)]))
    expected = oracle_counts(text.split())
    assert list(ids) == sorted(expected)
    assert list(counts) == [expected[b] for b in sorted(expected)]
    assert counts.sum() == 20 + 19


def test_weights_zero_when_distributions_match():
    corpus = Corpus.from_texts(["a b c", "d e f", "a b c"])
    weights = importance_weights(corpus, corpus)
    assert weights == [0.0, 0.0, 0.0]


def test_weights_scale_invariant():
    raw_texts = ["a b c d", "e f g h"]
    target_texts = ["a b a b", "c d c d"]
    w1 = importance_weights(
        Corpus.from_texts(raw_texts), Corpus.from_texts(target_texts), smoothing=0.01
    )
    # Each corpus three times over, under fresh ids, triples every count
    # and leaves every document's weight as it was.
    w3 = importance_weights(
        Corpus.from_texts(raw_texts * 3, id_prefix="raw3"),
        Corpus.from_texts(target_texts * 3, id_prefix="target3"),
        smoothing=0.01,
    )
    assert w3 == pytest.approx(w1 * 3, rel=1e-12)


def test_weights_positive_when_target_dominates():
    # target has much more of the probe's vocabulary than raw does
    raw = Corpus.from_texts(["x y z w q r s t u v", "a b a b"])
    target = Corpus.from_texts(["a b a b a b", "a b x y"])
    weights = importance_weights(raw, target, smoothing=0.01)
    assert weights[1] > 0
    assert weights[0] < 0


def test_weights_hand_computed_small_fixture():
    # sum_b count_doc[b] * (log p_target[b] - log p_raw[b]) with the
    # relative add-smoothing p[b] = (c[b] + g*T/B) / (T*(1+g)), from a
    # pure-Python enumeration of every document's uni- and bigrams.
    rng = np.random.default_rng(21)
    raw_texts = [" ".join(f"w{v}" for v in rng.integers(0, 30, size=25)) for _ in range(6)]
    target_texts = [" ".join(f"w{v}" for v in rng.integers(0, 12, size=25)) for _ in range(4)]
    g = 0.1

    def distribution(texts):
        counts: dict[int, int] = {}
        for text in texts:
            for bucket, count in oracle_counts(text.split()).items():
                counts[bucket] = counts.get(bucket, 0) + count
        total = sum(counts.values())
        return lambda b: (counts.get(b, 0) + g * total / N_BUCKETS) / (total * (1 + g))

    p_raw, p_tgt = distribution(raw_texts), distribution(target_texts)
    expected = [
        sum(
            count * (math.log(p_tgt(b)) - math.log(p_raw(b)))
            for b, count in oracle_counts(text.split()).items()
        )
        for text in raw_texts
    ]
    weights = importance_weights(
        Corpus.from_texts(raw_texts), Corpus.from_texts(target_texts), smoothing=g
    )
    # every weight is far from 0, so rel=1e-12 is a real bound
    assert min(abs(w) for w in expected) > 1.0
    assert weights == pytest.approx(expected, rel=1e-12)


def test_corpus_features_hash_each_distinct_ngram_once(monkeypatch):
    corpus = Corpus.from_texts(["a b a b a b", "b a b a c", "a b c a b c"])
    calls = []
    real = refine._ngram_hash

    def counting(gram, seed):
        calls.append(gram)
        return real(gram, seed)

    monkeypatch.setattr(refine, "_ngram_hash", counting)
    features = corpus_features(corpus)
    distinct = {
        tuple(doc.tokens[i : i + n])
        for doc in corpus
        for n in (1, 2)
        for i in range(len(doc.tokens) - n + 1)
    }
    assert len(calls) == len(distinct) == 3 + 5
    assert sorted(calls) == sorted(distinct)
    # sharing the hashes across documents changes no document's features
    for doc, (ids, counts) in zip(corpus, features):
        [(alone_ids, alone_counts)] = corpus_features(Corpus([doc]))
        assert (ids == alone_ids).all() and (counts == alone_counts).all()


def test_weights_read_features_through_corpus_features(monkeypatch):
    # Callers that wrap refine.corpus_features (the benchmark's tracer)
    # see both corpora go through it.
    seen = []
    real = refine.corpus_features

    def recording(corpus):
        seen.append([doc.id for doc in corpus])
        return real(corpus)

    monkeypatch.setattr(refine, "corpus_features", recording)
    raw = Corpus.from_texts(["a b c", "c d e"], id_prefix="raw")
    target = Corpus.from_texts(["a b"], id_prefix="target")
    importance_weights(raw, target)
    assert seen == [["raw:0", "raw:1"], ["target:0"]]


def test_corpus_features_memory_is_sparse():
    rng = np.random.default_rng(19)
    corpus = Corpus.from_texts(
        [" ".join(f"w{v}" for v in rng.integers(0, 5000, size=300)) for _ in range(200)]
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        features = corpus_features(corpus)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # dense storage would hold 200 x 65,536 int64 counts (100 MB)
    assert held < 8 * 2**20
    assert len(features) == 200
    assert all(0 <= ids.min() and ids.max() < N_BUCKETS for ids, _ in features)


@pytest.mark.parametrize(
    "raw_texts, target_texts, message",
    [
        ([], ["a b"], "raw corpus has no documents"),
        (["a b"], [], "target corpus has no documents"),
        (["", ""], ["a b"], "raw corpus has no n-grams"),
        (["a b"], ["", ""], "target corpus has no n-grams"),
    ],
)
def test_weights_name_the_corpus_without_ngrams(raw_texts, target_texts, message):
    with pytest.raises(RefineError, match=message):
        importance_weights(Corpus.from_texts(raw_texts), Corpus.from_texts(target_texts))


def test_weights_invalid_smoothing():
    corpus = Corpus.from_texts(["a b"])
    with pytest.raises(RefineError):
        importance_weights(corpus, corpus, smoothing=0.0)


def weighted_corpus():
    texts = {
        "doc:0": "a a a a",          # 4 tokens
        "doc:1": "b b b",            # 3 tokens
        "doc:2": "c c",              # 2 tokens
        "doc:3": "d d d d d",        # 5 tokens
    }
    return Corpus([Document.create(k, v) for k, v in texts.items()])


def test_select_full_budget_returns_everything():
    corpus = weighted_corpus()
    weights = [0.5, 1.0, -0.5, 0.0]
    selected, warnings = select_by_weight(corpus, weights, budget_tokens=10**9)
    assert {d.id for d in selected} == {d.id for d in corpus}
    assert not warnings


def test_select_uniform_weights_tie_break_by_id():
    corpus = weighted_corpus()
    weights = [0.0, 0.0, 0.0, 0.0]
    selected, _ = select_by_weight(corpus, weights, budget_tokens=9)
    assert [d.id for d in selected] == ["doc:0", "doc:1", "doc:2"]


def test_select_topk_highest_weights():
    corpus = weighted_corpus()
    weights = [2.0, 3.0, 1.0, 4.0]
    selected, _ = select_by_weight(corpus, weights, budget_tokens=12)
    assert [d.id for d in selected] == ["doc:3", "doc:1", "doc:0"]


def test_select_budget_respected_exactly():
    rng = np.random.default_rng(6)
    corpus = Corpus.from_texts(
        [" ".join(["w"] * int(rng.integers(1, 30))) for _ in range(50)]
    )
    weights = list(rng.normal(size=50))
    for budget in (10, 57, 200):
        selected, _ = select_by_weight(corpus, weights, budget)
        assert selected.total_tokens <= budget


def test_select_budget_smaller_than_smallest_doc():
    corpus = weighted_corpus()
    weights = [0.0, 0.0, 0.0, 0.0]
    selected, warnings = select_by_weight(corpus, weights, budget_tokens=1)
    assert len(selected) == 0
    assert warnings


def test_select_gumbel_deterministic_per_seed():
    corpus = weighted_corpus()
    weights = [0.1, 0.2, 0.3, 0.4]
    a, _ = select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=3)
    b, _ = select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=3)
    assert [d.id for d in a] == [d.id for d in b]
    # Two seeds may coincide, but ten seeds all giving one selection would
    # mean the seed is ignored.
    selections = {
        tuple(d.id for d in select_by_weight(corpus, weights, 9, mode="gumbel-sample", seed=s)[0])
        for s in range(10)
    }
    assert len(selections) > 1


def test_dedup_exact_no_duplicates_identity():
    corpus = Corpus.from_texts(["a", "b", "c"])
    assert [d.id for d in dedup_exact(corpus)] == [d.id for d in corpus]


def test_dedup_exact_three_copies():
    corpus = Corpus(
        [Document.create(f"d{i}", "same text here") for i in range(3)]
        + [Document.create("u", "unique")]
    )
    survivors = dedup_exact(corpus)
    assert [d.id for d in survivors] == ["d0", "u"]


def test_dedup_exact_matches_hash_set_oracle():
    rng = np.random.default_rng(10)
    base = [" ".join(f"w{v}" for v in rng.integers(0, 100, size=12)) for _ in range(900)]
    dup_idx = rng.integers(0, 900, size=100)
    texts = base + [base[i] for i in dup_idx]
    corpus = Corpus.from_texts(texts)
    survivors = dedup_exact(corpus)
    assert len(survivors) == len(set(texts))


def test_dedup_near_disjoint_vocab_identity():
    corpus = Corpus.from_texts(
        [" ".join(f"a{i}_{j}" for j in range(30)) for i in range(5)]
    )
    assert len(dedup_near(corpus)) == 5


def test_dedup_near_collapses_near_duplicate_pair():
    rng = np.random.default_rng(8)
    words = [f"w{v}" for v in rng.integers(0, 5000, size=500)]
    original = " ".join(words)
    changed = list(words)
    changed[250] = "REPLACED"
    near = " ".join(changed)
    sim = jaccard(words, changed, 3)
    assert sim == pytest.approx(0.99, abs=0.005)
    assert lsh_collision_probability(sim, 128, 16) > 0.999
    corpus = Corpus([Document.create("a", original), Document.create("b", near)])
    survivors = dedup_near(corpus)
    assert len(survivors) == 1


def test_dedup_near_idempotent():
    rng = np.random.default_rng(30)
    texts = []
    for i in range(60):
        words = [f"w{v}" for v in rng.integers(0, 200, size=80)]
        texts.append(" ".join(words))
        if i % 3 == 0:
            mutated = list(words)
            mutated[10] = "CHANGED"
            texts.append(" ".join(mutated))
    corpus = Corpus.from_texts(texts)
    once = dedup_near(corpus)
    twice = dedup_near(once)
    assert [d.id for d in twice] == [d.id for d in once]
    assert once.total_tokens <= corpus.total_tokens


def test_dedup_near_keeps_longest():
    rng = np.random.default_rng(9)
    words = [f"w{v}" for v in rng.integers(0, 1000, size=400)]
    longer = " ".join(words + ["tail", "tokens", "extra"])
    shorter = " ".join(words)
    corpus = Corpus([Document.create("short", shorter), Document.create("long", longer)])
    survivors = dedup_near(corpus)
    assert [d.id for d in survivors] == ["long"]
    survivors_first = dedup_near(corpus, keep="first")
    assert [d.id for d in survivors_first] == ["short"]


def test_dedup_near_band_arithmetic_validated():
    corpus = Corpus.from_texts(["a b c d e"])
    with pytest.raises(RefineError, match="divisible"):
        dedup_near(corpus, n_hashes=100, bands=16)


@pytest.mark.parametrize("n_hashes, bands", [(0, 1), (-4, 2)])
def test_dedup_near_rejects_non_positive_hash_count(n_hashes, bands):
    corpus = Corpus.from_texts(["a b c d e", "a b c d e f"])
    with pytest.raises(RefineError, match="n_hashes must be >= 1"):
        dedup_near(corpus, n_hashes=n_hashes, bands=bands)


def test_dedup_increases_diversity_score():
    rng = np.random.default_rng(12)
    base = [" ".join(f"w{v}" for v in rng.integers(0, 3000, size=60)) for _ in range(200)]
    dup_idx = rng.integers(0, 200, size=60)  # 30% duplicates injected
    corpus = Corpus.from_texts(base + [base[i] for i in dup_idx])
    deduped = dedup_exact(corpus)
    assert len(deduped) == 200
    assert diversity_score(deduped) > diversity_score(corpus)
