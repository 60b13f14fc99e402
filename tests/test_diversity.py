import math
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qtokens import diversity
from qtokens.corpus import Corpus, Document, Tokenizer
from qtokens.diversity import compression_ratio, diversity_score, score_corpus_diversity
from qtokens.errors import DiversityError

from conftest import make_corpus

# Golden values frozen from a pre-build run of DEFLATE level 6 with the
# "\n" separator on exactly these synthetic inputs.
CR_REPEATED_1MIB = 1009.2165543792108
CR_RANDOM_HEX_1MIB = 1.7544103868290724


@pytest.fixture
def report_of(monkeypatch):
    """``score_corpus_diversity`` of token lists, one document each, with the
    MATTR window and the n-gram order set for the call: the report then
    holds n-gram diversity for every order from 1 to n, and self-repetition
    over n-grams."""

    def run(documents, window=diversity.MATTR_WINDOW, n=diversity.SELF_REPETITION_N):
        monkeypatch.setattr(diversity, "MATTR_WINDOW", window)
        monkeypatch.setattr(diversity, "NGRAM_NS", tuple(range(1, n + 1)))
        monkeypatch.setattr(diversity, "SELF_REPETITION_N", n)
        return score_corpus_diversity(make_corpus([" ".join(doc) for doc in documents]))

    return run


def repeated_corpus(n_bytes=1 << 20) -> Corpus:
    return Corpus([Document.create("rep", "x" * n_bytes)])


def random_hex_corpus(n_chars=1 << 20, seed=12345) -> Corpus:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=n_chars // 2, dtype=np.uint8).tobytes()
    return Corpus([Document.create("hex", raw.hex())])


def test_cr_repeated_char_golden():
    cr = compression_ratio(repeated_corpus())
    assert cr > 50
    assert cr == pytest.approx(CR_REPEATED_1MIB, rel=1e-12)


def test_cr_random_hex_golden():
    cr = compression_ratio(random_hex_corpus())
    assert 1.5 < cr < 2.5
    assert cr == pytest.approx(CR_RANDOM_HEX_1MIB, rel=1e-12)


def test_cr_document_order_insensitive():
    rng = np.random.default_rng(7)
    texts = []
    for _ in range(200):
        n = int(rng.integers(50, 200))
        texts.append(" ".join(f"w{w}" for w in rng.integers(0, 5000, size=n)))
    order = rng.permutation(len(texts))
    cr_a = compression_ratio(make_corpus(texts, id_prefix="a"))
    cr_b = compression_ratio(make_corpus([texts[i] for i in order], id_prefix="b"))
    assert abs(cr_a - cr_b) / cr_a < 0.01


def test_cr_empty_corpus():
    with pytest.raises(DiversityError, match="empty corpus"):
        compression_ratio(Corpus([]))
    with pytest.raises(DiversityError, match="empty corpus"):
        compression_ratio(Corpus([Document.create("e", "")]))


@pytest.mark.parametrize(
    "documents, message",
    [
        ([], "cannot compress empty corpus"),
        ([Document.create("e", "")], "cannot compress empty corpus"),
        # Two empty texts join to one separator byte, which compresses.
        ([Document.create("e", ""), Document.create("f", "")], "corpus has no tokens"),
        ([Document.create("w", "  \t\n ")], "corpus has no tokens"),
    ],
    ids=["no-documents", "one-empty-text", "two-empty-texts", "whitespace-only"],
)
def test_report_errors_and_deflate_thread_is_joined(documents, message):
    with pytest.raises(DiversityError, match=f"^{message}$"):
        score_corpus_diversity(Corpus(documents))


def test_report_raises_a_failed_compression_first(monkeypatch):
    # Compression and the token metrics both fail; compression runs first,
    # so its error is raised.
    def failed_compression(corpus):
        raise OSError("deflate failed")

    def failed_metrics(corpus):
        raise DiversityError("corpus has no tokens")

    monkeypatch.setattr(diversity, "compression_ratio", failed_compression)
    monkeypatch.setattr(diversity, "_token_metrics", failed_metrics)
    corpus = repeated_corpus(4096)
    with pytest.raises(OSError, match="deflate failed"):
        score_corpus_diversity(corpus)
    monkeypatch.undo()

    # Any other token-metric error passes through.
    def broken(corpus):
        raise RuntimeError("token metrics failed")

    monkeypatch.setattr(diversity, "_token_metrics", broken)
    with pytest.raises(RuntimeError, match="token metrics failed"):
        score_corpus_diversity(corpus)


def test_report_cr_equals_compression_ratio_exactly():
    rng = np.random.default_rng(31)
    texts = [" ".join(f"w{w}" for w in rng.integers(0, 3000, size=int(rng.integers(1, 400))))
             for _ in range(300)]
    corpus = make_corpus(texts)
    report = score_corpus_diversity(corpus)
    assert report.cr == compression_ratio(corpus)
    assert report.dr == 1.0 / report.cr


def test_report_compresses_on_the_callers_thread(monkeypatch):
    threads = []

    def recorded(corpus):
        threads.append(threading.current_thread())
        return compression_ratio(corpus)

    monkeypatch.setattr(diversity, "compression_ratio", recorded)
    score_corpus_diversity(repeated_corpus(4096))
    assert threads == [threading.current_thread()]


def test_dr_is_exact_inverse_of_cr():
    for corpus in (repeated_corpus(4096), random_hex_corpus(4096)):
        assert diversity_score(corpus) == 1.0 / compression_ratio(corpus)


def test_dr_ordering_repeated_vs_random():
    assert diversity_score(repeated_corpus()) < diversity_score(random_hex_corpus())


def test_appending_copy_increases_cr():
    rng = np.random.default_rng(3)
    text = " ".join(f"w{w}" for w in rng.integers(0, 2000, size=400))
    assert len(text.encode()) >= 1024
    single = Corpus([Document.create("a", text)])
    doubled = Corpus([Document.create("a", text), Document.create("b", text)])
    assert compression_ratio(doubled) > compression_ratio(single)
    assert diversity_score(doubled) < diversity_score(single)


def test_ttr_cases(report_of):
    assert report_of([["a", "b", "c", "d"]]).ttr == 1.0
    assert report_of([["a", "a", "a", "a"]]).ttr == 0.25
    assert report_of([["a", "b", "a", "c"]]).ttr == 0.75


def brute_force_mattr(tokens, window):
    if len(tokens) < window:
        return len(set(tokens)) / len(tokens)
    ratios = [len(set(tokens[i : i + window])) / window for i in range(len(tokens) - window + 1)]
    return sum(ratios) / len(ratios)


def test_mattr_all_unique(report_of):
    tokens = [f"t{i}" for i in range(50)]
    for window in (1, 5, 50):
        assert report_of([tokens], window).mattr == 1.0


def test_mattr_constant_token(report_of):
    for window in (2, 5, 10):
        assert report_of([["a"] * 100], window).mattr == pytest.approx(1 / window)


def test_mattr_alternating(report_of):
    tokens = ["a", "b"] * 50
    report = report_of([tokens], 10)
    assert report.mattr == pytest.approx(0.2)
    assert report.mattr == brute_force_mattr(tokens, 10)


def test_mattr_window_equals_length_is_ttr(report_of):
    rng = np.random.default_rng(0)
    tokens = [f"t{v}" for v in rng.integers(0, 8, size=37)]
    report = report_of([tokens], len(tokens))
    assert report.mattr == report.ttr


def test_mattr_short_sequence_falls_back_to_ttr(report_of):
    report = report_of([["a", "b", "a"]], 10)
    assert report.mattr == report.ttr == 2 / 3


def test_mattr_matches_brute_force(report_of):
    rng = np.random.default_rng(11)
    for _ in range(30):
        length = int(rng.integers(5, 120))
        vocab = int(rng.integers(2, 20))
        window = int(rng.integers(1, 30))
        tokens = [f"t{v}" for v in rng.integers(0, vocab, size=length)]
        assert report_of([tokens], window).mattr == brute_force_mattr(tokens, window)


def test_ngram_diversity_unigram_equals_ttr(report_of):
    rng = np.random.default_rng(5)
    tokens = [f"t{v}" for v in rng.integers(0, 9, size=60)]
    report = report_of([tokens])
    assert report.ngram_diversity[1] == report.ttr


def test_ngram_diversity_constant_sequence(report_of):
    report = report_of([["a"] * 12], n=3)
    for n in (1, 2, 3):
        assert report.ngram_diversity[n] == pytest.approx(1 / (12 - n + 1))


def test_ngram_diversity_random_over_large_vocab(report_of):
    rng = np.random.default_rng(9)
    tokens = [f"t{v}" for v in rng.integers(0, 10**9, size=20)]
    grams = {tuple(tokens[i : i + 2]) for i in range(19)}
    report = report_of([tokens])
    assert report.ngram_diversity[2] == len(grams) / 19
    assert report.ngram_diversity[2] == 1.0


def test_ngram_diversity_too_short(report_of):
    assert report_of([["a", "b"]], n=3).ngram_diversity[3] is None


def test_self_repetition_disjoint_vocab(report_of):
    docs = [[f"a{i}" for i in range(10)], [f"b{i}" for i in range(10)], [f"c{i}" for i in range(10)]]
    assert report_of(docs).self_repetition == 0.0


def test_self_repetition_identical_pair(report_of):
    k = 10
    doc = [f"t{i}" for i in range(k)]
    assert report_of([doc, list(doc)]).self_repetition == pytest.approx(math.log(1 + (k - 3)))


def test_self_repetition_mixed_fixture_oracle(report_of):
    docs = [
        ["the", "cat", "sat", "on", "the", "mat", "today"],
        ["the", "cat", "sat", "on", "a", "rug", "today"],
        ["dogs", "run", "far", "and", "fast", "every", "day"],
    ]
    n = 4
    sets = [{tuple(d[i : i + n]) for i in range(len(d) - n + 1)} for d in docs]
    expected = 0.0
    for di, doc in enumerate(docs):
        k = 0
        for i in range(len(doc) - n + 1):
            gram = tuple(doc[i : i + n])
            if any(gram in sets[dj] for dj in range(len(docs)) if dj != di):
                k += 1
        expected += math.log1p(k)
    expected /= len(docs)
    assert report_of(docs, n=n).self_repetition == pytest.approx(expected, rel=1e-12)


def reference_self_repetition(documents, n):
    """Loop oracle of the report's self-repetition: n-gram tuple sets and a
    Counter of document frequency."""
    eligible = [doc for doc in documents if len(doc) >= n]
    gram_sets = [{tuple(doc[i : i + n]) for i in range(len(doc) - n + 1)} for doc in eligible]
    doc_freq = Counter()
    for grams in gram_sets:
        doc_freq.update(grams)
    total = 0.0
    for doc in eligible:
        k = sum(1 for i in range(len(doc) - n + 1) if doc_freq[tuple(doc[i : i + n])] > 1)
        total += np.log1p(k)
    return total / len(eligible)


def test_self_repetition_matches_reference_exactly(report_of):
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(200):
        vocab = int(rng.integers(1, 15))
        docs = [
            [f"t{v}" for v in rng.integers(0, vocab, size=int(rng.integers(0, 40)))]
            for _ in range(int(rng.integers(2, 12)))
        ]
        n = int(rng.integers(1, 6))
        if sum(len(d) >= n for d in docs) < 2:
            continue
        assert report_of(docs, n=n).self_repetition == reference_self_repetition(docs, n)
        checked += 1
    assert checked > 150


def set_of_tuples_ngram_diversity(tokens, n):
    total = len(tokens) - n + 1
    return len({tuple(tokens[i : i + n]) for i in range(total)}) / total


def test_ngram_diversity_beyond_packed_key_range(report_of):
    # 4-grams packed as sum(id * V**j) overflow int64 once V**4 > 2**63 - 1,
    # that is for V > 55,109 distinct tokens.
    rng = np.random.default_rng(8)
    draws = rng.integers(0, 80_000, size=120_000)
    tokens = [f"t{v}" for v in np.concatenate([draws, draws[:5_000], draws[50_000:52_000]])]
    vocab = len(set(tokens))
    assert vocab > 55_109 and vocab**4 > 2**63 - 1
    report = report_of([tokens])
    for n in (1, 2, 4):
        assert report.ngram_diversity[n] == set_of_tuples_ngram_diversity(tokens, n)
    assert report.ngram_diversity[4] < 1.0


def test_report_past_the_int32_key_range_matches_oracles():
    # Over 50,000 distinct tokens, so a bigram key, first id * radix + second
    # id with radix = largest id + 1, passes 2**32. Two bigrams whose keys
    # differ by exactly 2**32 would be counted as one if keys wrapped in the
    # int32 of the ids.
    words = [f"ov{v}" for v in range(70_000)]
    ids, _ = make_corpus([" ".join(words)]).token_ids()
    low = int(ids.min())
    assert ids.tolist() == list(range(low, low + len(words)))
    q = -(-(2**32) // (low + len(words)))
    radix = 2**32 // q
    r = 2**32 - q * radix
    assert 0 <= r < q < radix - low
    words = words[: radix - low]
    texts = [" ".join(words[i : i + 400]) for i in range(0, len(words), 400)]
    texts += [f"{words[q]} {words[r]} " * 2, f"{words[0]} {words[0]} " * 2] + texts[:5]
    corpus = make_corpus(texts)
    assert int(corpus.token_ids()[0].max()) + 1 == radix
    docs = [Tokenizer().tokenize(doc.text) for doc in corpus]
    stream = [t for doc in docs for t in doc]
    assert len(set(stream)) > 50_000
    report = score_corpus_diversity(corpus)
    assert report.ttr == len(set(stream)) / len(stream)
    assert report.mattr == brute_force_mattr(stream, 100)
    for n in (2, 3, 4):
        assert report.ngram_diversity[n] == set_of_tuples_ngram_diversity(stream, n)
    assert report.self_repetition == reference_self_repetition(docs, 4) > 0


def test_self_repetition_pair_keys_past_int32_match_reference(report_of):
    # 25,000 short documents with 4-gram ranks above 100,000: the
    # (n-gram, document) key rank * n_docs + doc passes 2**31, so it would
    # wrap if it were built in the int32 of the ranks. A thousand copied
    # documents put repeats all over the rank range.
    rng = np.random.default_rng(12)
    docs = [[f"k{v}" for v in rng.integers(0, 50_000, size=int(rng.integers(4, 10)))]
            for _ in range(24_000)]
    docs += [list(docs[i]) for i in rng.integers(0, len(docs), size=1_000)]
    stream = [t for doc in docs for t in doc]
    # 4-gram ranks run up to the number of distinct 4-grams.
    ranks = len({tuple(stream[i : i + 4]) for i in range(len(stream) - 3)})
    assert ranks > 100_000 and ranks * len(docs) > 2**31
    report = report_of(docs)
    assert report.self_repetition == reference_self_repetition(docs, 4) > 0
    assert report.ngram_diversity[4] == set_of_tuples_ngram_diversity(stream, 4)


def test_token_metrics_memory_per_token():
    # 200,000 tokens drawn Zipf(1.1) from 20,000 words. The peak includes
    # the ids array the call builds; int64 rank levels and MATTR temporaries
    # once took it to 93 B per token.
    rng = np.random.default_rng(3)
    weights = 1.0 / np.arange(1, 20_001) ** 1.1
    words = np.array([f"z{i}" for i in range(20_000)])
    draws = rng.choice(20_000, size=(500, 400), p=weights / weights.sum())
    corpus = make_corpus([" ".join(words[row]) for row in draws])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diversity._token_metrics(corpus)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / corpus.total_tokens <= 46


def test_byte_tokenizer_report_matches_oracles():
    rng = np.random.default_rng(31)
    words = ["ab", "ba", "é", "ß", "日本", "a", "b", " "]
    tok = Tokenizer("byte")
    texts = ["".join(rng.choice(words, size=int(rng.integers(5, 60)))) for _ in range(25)]
    corpus = Corpus([Document.create(f"d{i}", t, tok) for i, t in enumerate(texts)])
    docs = [tok.tokenize(doc.text) for doc in corpus]
    stream = [t for doc in docs for t in doc]
    assert len(stream) == len("".join(texts).encode("utf-8")) > 100
    report = score_corpus_diversity(corpus)
    assert report.ttr == len(set(stream)) / len(stream)
    assert report.mattr == brute_force_mattr(stream, 100)
    for n in (2, 3, 4):
        assert report.ngram_diversity[n] == set_of_tuples_ngram_diversity(stream, n)
    assert report.self_repetition == reference_self_repetition(docs, 4)


def test_report_matches_public_functions_across_boundaries():
    # Short documents over a small vocabulary: many n-grams of the joined
    # stream cross a document boundary, and self-repetition must skip them.
    # Streams run from 7 to 183 tokens, on both sides of the MATTR
    # window of 100.
    rng = np.random.default_rng(44)
    windowed = 0
    for _ in range(20):
        texts = [
            " ".join(f"w{v}" for v in rng.integers(0, 6, size=int(rng.integers(1, 9))))
            for _ in range(int(rng.integers(2, 40)))
        ]
        corpus = make_corpus(texts)
        docs = [Tokenizer().tokenize(doc.text) for doc in corpus]
        stream = [t for doc in docs for t in doc]
        windowed += len(stream) > 100
        report = score_corpus_diversity(corpus)
        assert report.ttr == len(set(stream)) / len(stream)
        assert report.mattr == brute_force_mattr(stream, 100)
        for n in (2, 3, 4):
            expected = set_of_tuples_ngram_diversity(stream, n) if len(stream) >= n else None
            assert report.ngram_diversity[n] == expected
        if sum(len(d) >= 4 for d in docs) >= 2:
            assert report.self_repetition == reference_self_repetition(docs, 4)
        else:
            assert report.self_repetition is None
    assert 0 < windowed < 20
    # "a b c d" appears inside the first document and again only across the
    # boundary of the last two: n-gram diversity sees the repeat,
    # self-repetition does not.
    corpus = make_corpus(["a b c d", "e a b c", "d f g h"])
    report = score_corpus_diversity(corpus)
    assert report.ngram_diversity[4] == 8 / 9
    assert report.self_repetition == 0.0
    assert reference_self_repetition([Tokenizer().tokenize(doc.text) for doc in corpus], 4) == 0.0


def test_self_repetition_needs_two_eligible(report_of):
    assert report_of([["a", "b", "c", "d", "e"]]).self_repetition is None
    assert report_of([["a", "b"], ["c", "d"]]).self_repetition is None


def test_report_flat_dict_and_warning():
    corpus = random_hex_corpus(2048)
    report = score_corpus_diversity(corpus)
    flat = report.to_flat_dict()
    assert flat["dr"] == 1.0 / flat["cr"]
    assert set(flat) >= {"cr", "dr", "ttr", "mattr", "ngram_diversity_2"}
    # tiny incompressible corpus: framing can push CR below 1
    tiny = Corpus([Document.create("t", "qz")])
    tiny_report = score_corpus_diversity(tiny)
    if tiny_report.cr < 1.0:
        assert tiny_report.dr > 1.0
