import fcntl
import json
import math
import os
import re
import resource
import shlex
import signal
import socket
import socketserver
import struct
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qtokens import external, syntheticity
from qtokens.corpus import Corpus, Document, Tokenizer, decode, encode
from qtokens.errors import ProtocolError, ScorerError
from qtokens.syntheticity import external_scorer_connect, score_corpus, train_kgram_scorer


class UniformScorer:
    """Assigns probability 1/V to every token."""

    def __init__(self, vocab_size, context_len=1024):
        self.vocab_size = vocab_size
        self.context_len = context_len

    def score_windows(self, windows):
        for window in windows:
            yield [-math.log(self.vocab_size)] * len(window)


class CertaintyScorer:
    context_len = 1024

    def score_windows(self, windows):
        for window in windows:
            yield [0.0] * len(window)


def corpus_of(texts):
    return Corpus.from_texts(texts)


def test_uniform_scorer_perplexity_equals_vocab_size():
    corpus = corpus_of(["a b c d e f g h", "a b c d e f g h"])  # 16 tokens
    result = score_corpus(UniformScorer(2), corpus, sample_frac=1.0, seed=0)
    assert result.m_tokens == 16
    assert result.perplexity == 2.0
    assert result.s == 0.5
    for v in (7, 32):
        res = score_corpus(UniformScorer(v), corpus, sample_frac=1.0, seed=0)
        assert res.perplexity == pytest.approx(v, rel=1e-12)
        assert res.s == pytest.approx(1 / v, rel=1e-12)


def test_certainty_scorer():
    result = score_corpus(CertaintyScorer(), corpus_of(["x y z"]), sample_frac=1.0, seed=0)
    assert result.avg_nll == 0.0
    assert result.perplexity == 1.0
    assert result.s == 1.0


def test_result_invariants():
    corpus = corpus_of(["a b c d", "e f g h i"])
    result = score_corpus(UniformScorer(11), corpus, sample_frac=1.0, seed=0)
    assert result.perplexity == pytest.approx(math.exp(result.avg_nll), rel=1e-15)
    assert result.s == pytest.approx(1 / result.perplexity, rel=1e-15)
    assert 0 < result.s <= 1


def test_empty_corpus_rejected():
    with pytest.raises(ScorerError):
        score_corpus(UniformScorer(4), Corpus([]), 1.0, 0)


class BadTokenScorer:
    """Scores the token ``bad`` with a fixed value and every other with -1."""

    context_len = 1024

    def __init__(self, value):
        self.value = value

    def score_windows(self, windows):
        for window in windows:
            yield [self.value if t == "bad" else -1.0 for t in decode(window)]


@pytest.mark.parametrize(
    "value, message",
    [(math.nan, "non-finite log-probability on document 'doc:1': nan"),
     (-math.inf, "non-finite log-probability on document 'doc:1': -inf"),
     (0.5, "log-probability > 0 on document 'doc:1': 0.5"),
     (None, "value that is not a number on document 'doc:1': None"),
     ("0.5", "value that is not a number on document 'doc:1': '0.5'"),
     (False, "value that is not a number on document 'doc:1': False"),
     (np.False_, f"value that is not a number on document 'doc:1': {np.False_!r}")],
    ids=["nan", "-inf", "positive", "none", "numeric-string", "false", "np-false"],
)
def test_invalid_log_prob_rejected(value, message):
    corpus = corpus_of(["a b", "c bad d"])
    with pytest.raises(ScorerError, match=f"^{re.escape(message)}$") as info:
        score_corpus(BadTokenScorer(value), corpus, 1.0, 0)
    assert type(info.value) is ScorerError


class RaisingScorer:
    """Raises ``error`` on every window."""

    context_len = 1024

    def __init__(self, error):
        self.error = error

    def score_windows(self, windows):
        for _ in windows:
            raise self.error
        yield  # a generator, so the error comes with the first window


def test_score_corpus_names_the_document_a_custom_scorer_failed_on():
    with pytest.raises(ScorerError, match="^scorer failed on document 'doc:0': boom$") as info:
        score_corpus(RaisingScorer(ValueError("boom")), corpus_of(["a b", "c d"]), 1.0, 0)
    assert type(info.value) is ScorerError
    assert isinstance(info.value.__cause__, ValueError)


def test_score_corpus_passes_a_protocol_error_through():
    error = ProtocolError("scorer timed out after 1s")
    with pytest.raises(ProtocolError) as info:
        score_corpus(RaisingScorer(error), corpus_of(["a b", "c d"]), 1.0, 0)
    assert info.value is error


class DroppingScorer:
    """Returns one value too few for every window."""

    context_len = 1024

    def score_windows(self, windows):
        for window in windows:
            yield [-1.0] * (len(window) - 1)


def test_score_corpus_rejects_a_wrong_number_of_values():
    with pytest.raises(
        ScorerError, match=r"^scorer returned 1 values for 2 tokens \(document 'doc:0'\)$"
    ):
        score_corpus(DroppingScorer(), corpus_of(["a b", "c d e"]), 1.0, 0)


class YieldingScorer:
    """Yields ``make(n_tokens)`` for every window."""

    context_len = 1024

    def __init__(self, make):
        self.make = make

    def score_windows(self, windows):
        for window in windows:
            yield self.make(len(window))


@pytest.mark.parametrize(
    "make, kind",
    [(lambda n: iter([-1.0] * n), "list_iterator"), (lambda n: None, "NoneType")],
    ids=["iterator", "none"],
)
def test_score_corpus_rejects_a_window_that_is_not_a_sequence(make, kind):
    with pytest.raises(
        ScorerError, match=f"^scorer returned '{kind}', not a sequence, for document 'doc:0'$"
    ) as info:
        score_corpus(YieldingScorer(make), corpus_of(["a b", "c d e"]), 1.0, 0)
    assert type(info.value) is ScorerError


class ValueScorer:
    """Scores every token with ``value``."""

    context_len = 1024

    def __init__(self, value):
        self.value = value

    def score_windows(self, windows):
        for window in windows:
            yield [self.value] * len(window)


def test_score_corpus_rejects_a_window_sum_beyond_the_float_range():
    # Each value is a legal log-probability; only their sum overflows.
    corpus = corpus_of(["c d", "a b"])
    with pytest.raises(
        ScorerError, match="^log-probabilities on document 'doc:0' sum beyond the float range$"
    ):
        score_corpus(ValueScorer(-1e308), corpus, 1.0, 0)


def test_score_corpus_rejects_an_average_nll_with_no_finite_perplexity():
    assert score_corpus(ValueScorer(-709.0), corpus_of(["a b"]), 1.0, 0).perplexity < math.inf
    with pytest.raises(ScorerError, match="^average NLL is too large for a finite perplexity"):
        score_corpus(ValueScorer(-1000.0), corpus_of(["a b", "c"]), 1.0, 0)


@pytest.mark.parametrize("context_len", [0, -1])
def test_score_corpus_rejects_a_context_len_below_one(context_len):
    with pytest.raises(ScorerError, match=f"^context_len must be >= 1, got {context_len}$"):
        score_corpus(UniformScorer(4, context_len), corpus_of(["a b", "c d"]), 1.0, 0)


def test_zero_scoreable_tokens():
    corpus = Corpus([Document.create("a", "   ")])
    with pytest.raises(ScorerError, match="no scoreable tokens"):
        score_corpus(UniformScorer(4), corpus, 1.0, 0)


def kgram_log_probs(scorer, tokens):
    """Log-probabilities of one window of token strings under a k-gram scorer."""
    (logprobs,) = scorer.score_windows([encode(tokens)])
    return logprobs


def _prob(scorer, token, context):
    """Probability of ``token`` after ``context`` under ``scorer``."""
    return math.exp(kgram_log_probs(scorer, [*context, token])[-1])


def test_kgram_unigram_closed_form():
    # add-alpha over vocab {a, b} plus the unknown symbol: 3 events
    scorer = train_kgram_scorer(corpus_of(["a a a b"]), k=1, smoothing=1.0)
    assert _prob(scorer, "a", []) == pytest.approx((3 + 1.0) / (4 + 3 * 1.0), rel=1e-15)
    assert _prob(scorer, "b", []) == pytest.approx((1 + 1.0) / (4 + 3 * 1.0), rel=1e-15)
    alpha = 0.25
    scorer = train_kgram_scorer(corpus_of(["a a a b"]), k=1, smoothing=alpha)
    assert _prob(scorer, "a", []) == pytest.approx((3 + alpha) / (4 + 3 * alpha), rel=1e-15)


def test_kgram_probabilities_sum_to_one():
    reference = corpus_of(["the cat sat on the mat", "the dog sat on the rug"])
    scorer = train_kgram_scorer(reference, k=3, smoothing=0.5)
    events = sorted({t for doc in reference for t in Tokenizer().tokenize(doc.text)}) + ["<unk>"]
    for context in ([], ["the"], ["the", "cat"], ["nope", "nope"], ["sat", "on"]):
        total = sum(_prob(scorer, w, context) for w in events)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_kgram_training_text_scores_better():
    train = corpus_of(["alpha beta gamma delta alpha beta gamma delta"])
    scorer = train_kgram_scorer(train, k=2, smoothing=0.1)
    seen = score_corpus(scorer, train, 1.0, 0)
    unseen = score_corpus(scorer, corpus_of(["zeta eta theta iota kappa"]), 1.0, 0)
    assert seen.avg_nll < unseen.avg_nll
    assert seen.s > unseen.s


def test_kgram_matches_count_oracle():
    rng = np.random.default_rng(77)
    words = [f"w{v}" for v in rng.integers(0, 12, size=10_000)]
    text = " ".join(words)
    reference = corpus_of([text])
    k, alpha = 3, 0.5
    scorer = train_kgram_scorer(reference, k=k, smoothing=alpha)

    # independent count tables
    from collections import Counter, defaultdict

    counts = defaultdict(Counter)
    tokens = text.split()
    for i, tok in enumerate(tokens):
        counts[tuple(tokens[max(0, i - (k - 1)) : i])][tok] += 1
    vocab = set(tokens)
    n_events = len(vocab) + 1

    def oracle_nll(seq):
        total = 0.0
        for i, tok in enumerate(seq):
            ctx = tuple(seq[max(0, i - (k - 1)) : i])
            c = counts[ctx][tok]
            t = sum(counts[ctx].values())
            total -= math.log((c + alpha) / (t + alpha * n_events))
        return total / len(seq)

    probe = [f"w{v}" for v in rng.integers(0, 14, size=500)]  # includes unseen words
    probe = [w if w in vocab else w for w in probe]
    got = -sum(kgram_log_probs(scorer, probe)) / len(probe)
    # oracle maps unknown words the same way the scorer does
    normalized = [w if w in vocab else "<unk>" for w in probe]
    assert got == pytest.approx(oracle_nll(normalized), abs=1e-9)


def reference_kgram_log_probs(reference, k, smoothing, windows, tokenizer=Tokenizer()):
    """Per-token log-probabilities of each window from string-tuple count
    tables, one dict lookup per token: the exact oracle for the id tables.
    ``tokenizer`` is the one ``reference`` was built with."""
    vocab = set()
    counts = {}
    for doc in reference:
        tokens = tuple(tokenizer.tokenize(doc.text))
        vocab.update(tokens)
        for i, token in enumerate(tokens):
            counts.setdefault(tokens[max(0, i - (k - 1)) : i], Counter())[token] += 1
    totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
    n_events = len(vocab) + 1

    def norm(token):
        return token if token in vocab else "<unk>"

    out = []
    for window in windows:
        logprobs = []
        for i, token in enumerate(window):
            ctx = tuple(norm(t) for t in window[max(0, i - (k - 1)) : i])
            counter = counts.get(ctx)
            count = counter[norm(token)] if counter is not None else 0
            p = (count + smoothing) / (totals.get(ctx, 0) + smoothing * n_events)
            logprobs.append(math.log(p))
        out.append(logprobs)
    return out


def _seeded_texts(seed, n_docs, n_types, max_len, words=None):
    rng = np.random.default_rng(seed)
    words = words or [f"w{v}" for v in range(n_types)]
    return [
        " ".join(words[v] for v in rng.integers(0, len(words), size=rng.integers(1, max_len)))
        for _ in range(n_docs)
    ]


def _kgram_case(case, tmp_path):
    """(tokenizer, reference, probe, k, smoothing, context_len) for one oracle case."""
    if case == "oov":
        # The probe draws from 40 types, the reference from 30.
        return (Tokenizer(), corpus_of(_seeded_texts(1, 30, 30, 60)),
                corpus_of(_seeded_texts(2, 20, 40, 60)), 3, 0.5, 1024)
    if case == "unk-in-vocab":
        # w0..w19 are in the vocabulary file, so the reference holds <unk> and
        # w15..w19, absent from the reference, map to <unk> in the scorer too.
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("".join(f"w{v}\n" for v in range(20)))
        tokenizer = Tokenizer(f"vocab:{vocab_file}")
        reference = Corpus.from_texts(_seeded_texts(3, 30, 15, 60) + ["x y z w0 q"], tokenizer)
        probe = Corpus.from_texts(_seeded_texts(4, 20, 30, 60), tokenizer)
        return tokenizer, reference, probe, 3, 1.0, 1024
    if case == "bytes":
        tokenizer = Tokenizer("byte")
        words = ["ab", "é", "中", "c d", "ü", "x"]
        reference = Corpus.from_texts(_seeded_texts(5, 20, 0, 40, words), tokenizer)
        probe = Corpus.from_texts(_seeded_texts(6, 20, 0, 40, words + ["ø", "z"]), tokenizer)
        return tokenizer, reference, probe, 4, 0.25, 1024
    if case == "k1":
        return (Tokenizer(), corpus_of(_seeded_texts(7, 20, 25, 50)),
                corpus_of(_seeded_texts(8, 20, 30, 50)), 1, 1.0, 1024)
    # k beyond the window: contexts stop at the window start.
    return (Tokenizer(), corpus_of(_seeded_texts(9, 20, 8, 80)),
            corpus_of(_seeded_texts(10, 20, 10, 80)), 7, 0.1, 5)


@pytest.mark.parametrize("case", ["oov", "unk-in-vocab", "bytes", "k1", "k-beyond-context"])
def test_kgram_matches_string_tuple_oracle_exactly(case, tmp_path):
    tokenizer, reference, probe, k, smoothing, context_len = _kgram_case(case, tmp_path)
    scorer = train_kgram_scorer(reference, k=k, smoothing=smoothing, context_len=context_len)
    windows = [tokens[start : start + context_len]
               for tokens in (tokenizer.tokenize(doc.text) for doc in probe)
               for start in range(0, len(tokens), context_len)]
    vocab = {t for doc in reference for t in tokenizer.tokenize(doc.text)}
    assert any(t not in vocab for w in windows for t in w)
    if case == "unk-in-vocab":
        assert "<unk>" in vocab
    got = [kgram_log_probs(scorer, w) for w in windows]
    assert got == reference_kgram_log_probs(reference, k, smoothing, windows, tokenizer)


def test_kgram_keys_do_not_overflow_with_large_vocab_and_k():
    # Every one of 60,000 types occurs, so a mixed-radix key over k - 1 = 5
    # context ids would exceed 2^63; repeated chunks give seen 6-grams.
    rng = np.random.default_rng(11)
    k, n_types = 6, 60_000
    order = rng.permutation(n_types)
    chunks = [order[i : i + 300] for i in range(0, n_types, 300)]
    texts = [" ".join(f"w{v}" for v in chunk) for chunk in chunks]
    texts += texts[:20]
    reference = corpus_of(texts)
    scorer = train_kgram_scorer(reference, k=k, smoothing=0.5)
    assert (len({t for text in texts for t in text.split()}) + 1) ** (k - 1) > 2**63
    windows = [Tokenizer().tokenize(doc.text) for doc in reference.documents[:25]]
    windows += [[f"w{v}" for v in rng.integers(0, n_types + 50, size=200)] for _ in range(5)]
    got = [kgram_log_probs(scorer, w) for w in windows]
    assert got == reference_kgram_log_probs(reference, k, 0.5, windows)
    # The repeated chunks are scored from real counts, not only the smoothing floor.
    assert max(got[0]) > math.log(0.5 / (0.5 * (n_types + 1)))


def test_kgram_scorer_memory_is_compact():
    rng = np.random.default_rng(23)
    reference = corpus_of(
        [" ".join(f"w{v}" for v in rng.integers(0, 5000, size=300)) for _ in range(200)]
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scorer = train_kgram_scorer(reference, k=3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # string-tuple Counter tables held about 21 MB here
    assert held <= 4 * 2**20
    assert scorer.k == 3


def test_kgram_k_longer_than_documents():
    with pytest.raises(ScorerError, match="longest reference document"):
        train_kgram_scorer(corpus_of(["a b", "c"]), k=5)


def test_kgram_invalid_params():
    with pytest.raises(ScorerError):
        train_kgram_scorer(corpus_of(["a b"]), k=0)
    with pytest.raises(ScorerError):
        train_kgram_scorer(corpus_of(["a b"]), k=1, smoothing=0.0)
    with pytest.raises(ScorerError, match="reference corpus is empty"):
        train_kgram_scorer(Corpus([]))


def test_score_corpus_order_invariant():
    texts = [f"tok{i} tok{i + 1} tok{i + 2} filler words here" for i in range(30)]
    forward = Corpus.from_texts(texts)
    backward = Corpus([forward.documents[i] for i in reversed(range(30))])
    scorer = train_kgram_scorer(forward, k=2)
    a = score_corpus(scorer, forward, 0.5, seed=4)
    b = score_corpus(scorer, backward, 0.5, seed=4)
    assert a == b


def test_doubled_documents_within_window_bound():
    rng = np.random.default_rng(5)
    texts = [" ".join(f"w{v}" for v in rng.integers(0, 50, size=200)) for _ in range(5)]
    single = Corpus.from_texts(texts)
    doubled = Corpus.from_texts([f"{t} {t}" for t in texts])
    k, context_len = 3, 64
    scorer = train_kgram_scorer(single, k=k, smoothing=0.5, context_len=context_len)
    a = score_corpus(scorer, single, 1.0, 0)
    b = score_corpus(scorer, doubled, 1.0, 0)
    assert abs(a.avg_nll - b.avg_nll) / a.avg_nll <= k / context_len


def test_sample_fraction_default_quarter():
    corpus = corpus_of([f"word{i} extra text" for i in range(100)])
    result = score_corpus(UniformScorer(10), corpus, seed=1)
    assert result.m_tokens == 25 * 3


def _window_kinds(k, rng):
    """Empty windows, windows shorter than k, one-token windows and longer
    ones, drawn from 40 types of which the reference knows 30."""
    def draw(n):
        return [f"w{v}" for v in rng.integers(0, 40, size=n)]

    windows = [[], draw(1), [], draw(max(k - 1, 1)), draw(1), draw(1)]
    windows += [draw(int(n)) for n in rng.integers(0, 12, size=30)]
    return windows + [[], draw(1)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kgram_score_windows_equals_log_probs_and_oracle(k, monkeypatch):
    reference = corpus_of(_seeded_texts(12 + k, 30, 30, 40))
    scorer = train_kgram_scorer(reference, k=k, smoothing=0.5)
    windows = _window_kinds(k, np.random.default_rng(k))
    # Batches of 7 tokens: most windows longer than one token straddle a
    # batch boundary.
    monkeypatch.setattr(syntheticity, "SCORE_BATCH_TOKENS", 7)
    got = list(scorer.score_windows(map(encode, windows)))
    assert got == [kgram_log_probs(scorer, w) for w in windows]
    assert got == reference_kgram_log_probs(reference, k, 0.5, windows)
    assert [len(g) for g in got] == [len(w) for w in windows]


def test_kgram_score_windows_closes_a_batch_with_the_window_that_fills_it(monkeypatch):
    reference = corpus_of(_seeded_texts(3, 70, 10, 400))
    scorer = train_kgram_scorer(reference, k=3)
    batches = []
    real = scorer._probs

    def spy(batch):
        batches.append([len(w) for w in batch])
        return real(batch)

    monkeypatch.setattr(scorer, "_probs", spy)
    # The default batch closes with the window of 300 tokens that fills it.
    first = -(-syntheticity.SCORE_BATCH_TOKENS // 300)
    windows = [["w1", "w2", "w3"] * 100] * (first + 5)
    got = list(scorer.score_windows(map(encode, windows)))
    assert batches == [[300] * first, [300] * 5]
    assert got == [kgram_log_probs(scorer, w) for w in windows]
    # 5 + 4 tokens cross a batch of 7 inside the second window; the third
    # starts a new batch.
    batches.clear()
    monkeypatch.setattr(syntheticity, "SCORE_BATCH_TOKENS", 7)
    windows = [Tokenizer().tokenize(doc.text)[:n] for doc, n in zip(reference, (5, 4, 6, 2))]
    got = list(scorer.score_windows(map(encode, windows)))
    assert batches == [[5, 4], [6, 2]]
    assert got == reference_kgram_log_probs(reference, 3, 1.0, windows)


def test_score_corpus_scores_ids_without_decoding_or_encoding(monkeypatch):
    reference = corpus_of(_seeded_texts(17, 40, 50, 120))
    corpus = corpus_of(_seeded_texts(18, 60, 60, 90))
    scorer = train_kgram_scorer(reference, k=3, smoothing=0.5, context_len=32)
    expected = score_corpus(scorer, corpus, 1.0, 0)

    def refuse(_):
        raise AssertionError("the ids were converted on the scoring path")

    # Only the external client decodes; this module has no decode to call.
    assert not hasattr(syntheticity, "decode")
    monkeypatch.setattr(syntheticity, "encode", refuse)
    assert score_corpus(scorer, corpus, 1.0, 0) == expected


# --- external scorer protocol ---------------------------------------------


def test_external_const_scorer(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("const")) as scorer:
        result = score_corpus(scorer, corpus_of(["a b c", "d e"]), 1.0, 0)
    assert result.avg_nll == pytest.approx(1.0, rel=1e-15)
    assert result.perplexity == pytest.approx(math.e, rel=1e-12)


def test_external_positive_logprob_rejected(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("positive")) as scorer:
        with pytest.raises(ScorerError, match="^log-probability > 0 on document 'doc:0': 0.1$"):
            score_corpus(scorer, corpus_of(["a b"]), 1.0, 0)


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_external_non_finite_logprob_rejected(mock_scorer_cmd, value):
    with external_scorer_connect(mock_scorer_cmd(f"value {value}")) as scorer:
        with pytest.raises(
            ScorerError, match=f"^non-finite log-probability on document 'doc:0': {value}$"
        ):
            score_corpus(scorer, corpus_of(["a b"]), 1.0, 0)


def test_external_out_of_order_responses(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("reorder3")) as scorer:
        batches = [["a"], ["b", "b"], ["c", "c", "c"]]
        results = list(scorer.score_windows(map(encode, batches)))
    assert [len(r) for r in results] == [1, 2, 3]
    assert all(v == -1.0 for r in results for v in r)


def test_external_short_response_rejected(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("short")) as scorer:
        with pytest.raises(
            ScorerError, match=r"^scorer returned 2 values for 3 tokens \(document 'doc:0'\)$"
        ):
            score_corpus(scorer, corpus_of(["a b c"]), 1.0, 0)


@pytest.mark.parametrize(
    "mode, error, message",
    [("wrongid", ProtocolError, "^unknown response id 'never-sent'$"),
     ("noid", ProtocolError, "^response missing id or logprobs$"),
     ("strings", ScorerError, "^value that is not a number on document 'doc:0': '-1.0'$")],
    ids=["wrongid", "noid", "strings"],
)
def test_external_malformed_response_rejected(mock_scorer_cmd, mode, error, message):
    # The client checks the line's format; score_corpus checks the values.
    with external_scorer_connect(mock_scorer_cmd(mode)) as scorer:
        with pytest.raises(ScorerError, match=message) as info:
            score_corpus(scorer, corpus_of(["a b"]), 1.0, 0)
    assert type(info.value) is error


def test_external_second_answer_to_a_request_is_an_unknown_id(mock_scorer_cmd):
    # The repeat of q0's answer comes before q1's, which the client still
    # awaits; whether q0 has been yielded yet or not, the id is spent.
    with external_scorer_connect(mock_scorer_cmd("twice")) as scorer:
        with pytest.raises(ProtocolError, match="^unknown response id 'q0'$"):
            score_corpus(scorer, corpus_of(["a b", "c d"]), 1.0, 0)


NOT_A_NUMBER = "value that is not a number on document 'doc:0': "


@pytest.mark.parametrize(
    "logprobs, n_tokens, message",
    [('["0.5"]', 1, NOT_A_NUMBER + "'0.5'"),
     ('["-1.0"]', 1, NOT_A_NUMBER + "'-1.0'"),
     ("[null]", 1, NOT_A_NUMBER + "None"),
     ("[[-1.0]]", 1, NOT_A_NUMBER + "[-1.0]"),
     ("-1.0", 1, "scorer returned 'float', not a sequence, for document 'doc:0'"),
     ('{"a": -1.0}', 1, NOT_A_NUMBER + "'a'"),
     ('[-1e308, -1e308, "-1"]', 3, NOT_A_NUMBER + "'-1'"),
     (f"[{-(10**400)}]", 1, "log-probabilities on document 'doc:0' sum beyond the float range"),
     ("[false, false, false]", 3, NOT_A_NUMBER + "False")],
    ids=["numeric-string", "string", "null", "nested", "number", "object", "after-overflow",
         "huge-int", "bool"],
)
def test_external_non_numbers_rejected(mock_scorer_cmd, logprobs, n_tokens, message):
    # The client returns the values as sent, and score_corpus names the document.
    with external_scorer_connect(mock_scorer_cmd(f"logprobs {shlex.quote(logprobs)}")) as scorer:
        assert scorer.log_probs(["a"]) == json.loads(logprobs)
        with pytest.raises(ScorerError, match=f"^{re.escape(message)}$") as info:
            score_corpus(scorer, corpus_of([" ".join(["a"] * n_tokens)]), 1.0, 0)
    assert type(info.value) is ScorerError


def test_external_huge_integer_through_score_corpus(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd(f"logprobs '[{-(10**400)}]'")) as scorer:
        with pytest.raises(
            ScorerError,
            match="^log-probabilities on document 'doc:0' sum beyond the float range$",
        ) as info:
            score_corpus(scorer, corpus_of(["a"]), 1.0, 0)
    assert type(info.value) is ScorerError


def test_external_bad_json_rejected(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("badjson")) as scorer:
        with pytest.raises(ProtocolError, match="invalid JSON"):
            scorer.log_probs(["a"])


def test_external_json_nested_too_deep_rejected(mock_scorer_cmd):
    deep = "[" * 5000 + "]" * 5000
    with pytest.raises(RecursionError) as info:
        json.loads(deep)
    with external_scorer_connect(mock_scorer_cmd(f"logprobs '{deep}'")) as scorer:
        message = f"^invalid JSON from scorer: {re.escape(str(info.value))}$"
        with pytest.raises(ProtocolError, match=message):
            scorer.log_probs(["a"])


def test_external_non_utf8_rejected(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("garbage")) as scorer:
        with pytest.raises(ProtocolError, match="invalid JSON"):
            scorer.log_probs(["a"])


def test_external_timeout(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("silent"), timeout=0.3) as scorer:
        with pytest.raises(ProtocolError, match="timed out"):
            scorer.log_probs(["a"])


def test_external_response_has_a_deadline(mock_scorer_cmd):
    # drip keeps the pipe readable but never finishes a line; it exits by
    # itself after about 3 s, so a client without a deadline sees that exit.
    with external_scorer_connect(mock_scorer_cmd("drip"), timeout=0.5) as scorer:
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="^scorer timed out after 0.5s$"):
            scorer.log_probs(["a"])
        assert time.monotonic() - start < 2.0


def test_external_response_line_has_a_size_cap(mock_scorer_cmd):
    # flood writes 8 MiB of spaces with no newline, then exits by itself. The
    # cap for a 2-token window is 64 bytes a token plus 64 KiB.
    with external_scorer_connect(mock_scorer_cmd("flood")) as scorer:
        with pytest.raises(ProtocolError, match="^scorer response line is longer than 65664 bytes$"):
            scorer.log_probs(["a", "b"])
        assert len(scorer._buffer) <= 65664 + (1 << 16)


def test_external_large_windows_do_not_deadlock(mock_scorer_cmd):
    # Each request and each response is about 1 MB, far more than a pipe
    # holds, so the client must read responses while it is still writing.
    scorer = external_scorer_connect(mock_scorer_cmd("const"), timeout=5)
    results = []
    worker = threading.Thread(
        target=lambda: results.extend(scorer.score_windows([encode(["x"] * 200_000)] * 3)),
        daemon=True,
    )
    try:
        worker.start()
        worker.join(60)
        hung = worker.is_alive()
        if hung:
            scorer._proc.kill()  # ends a blocked write with a broken pipe
            worker.join(10)
    finally:
        scorer.close()
    assert not hung
    assert [len(r) for r in results] == [200_000] * 3
    assert all(v == -1.0 for r in results for v in r)


def test_external_write_to_an_exited_scorer_names_its_end():
    # Nothing reads the pipe once the child has exited, so the write breaks.
    code = "import sys; sys.stderr.write('bye\\n')"
    with external_scorer_connect(f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}") as scorer:
        scorer._proc.wait(timeout=30)
        with pytest.raises(ProtocolError, match="^cannot send to scorer: scorer exited with "
                                                "status 0; its stderr ends: 'bye'$"):
            scorer.log_probs(["a"])


def test_external_write_error_is_a_protocol_error(mock_scorer_cmd, tmp_path):
    # A descriptor open only for reading refuses the write with EBADF.
    path = tmp_path / "read-only"
    path.write_bytes(b"")
    with external_scorer_connect(mock_scorer_cmd("const")) as scorer, open(path, "rb") as fh:
        scorer._wfd = fh.fileno()
        with pytest.raises(ProtocolError, match=r"^cannot send to scorer: \[Errno \d+\] "):
            scorer.log_probs(["a"])


def test_external_requests_are_pipelined(mock_scorer_cmd):
    # batch4 answers only when it holds 4 requests (or after 3 s idle), so a
    # client with one request in flight times out.
    corpus = corpus_of([f"w{i} x{i} y{i}" for i in range(12)])
    with external_scorer_connect(mock_scorer_cmd("batch4"), timeout=2.0) as scorer:
        result = score_corpus(scorer, corpus, 1.0, 0)
    assert result.m_tokens == 36
    assert result.avg_nll == 1.0


def test_external_batching_peer_gets_full_batches(mock_scorer_cmd):
    # batch32 answers only when it holds 32 requests, so a client that keeps
    # fewer in flight times out; 64 windows of 3 tokens fill two batches.
    corpus = corpus_of([f"w{i} x{i} y{i}" for i in range(64)])
    with external_scorer_connect(mock_scorer_cmd("batch32"), timeout=2.0) as scorer:
        result = score_corpus(scorer, corpus, 1.0, 0)
    assert result.m_tokens == 192
    assert result.avg_nll == 1.0


@pytest.mark.parametrize("length, sent", [(30, 4), (0, 100)])
def test_external_in_flight_tokens_are_bounded(length, sent, mock_scorer_cmd, monkeypatch):
    # A silent peer answers nothing, so the client sends windows until 100
    # tokens are outstanding: the fourth window of 30 takes it past the
    # budget, and an empty window counts as one token.
    monkeypatch.setattr(external, "MAX_IN_FLIGHT_TOKENS", 100)
    drawn = []

    def windows():
        for i in range(200):
            drawn.append(i)
            yield encode(["x"] * length)

    with external_scorer_connect(mock_scorer_cmd("silent"), timeout=0.3) as scorer:
        with pytest.raises(ProtocolError, match="^scorer timed out after 0.3s$"):
            list(scorer.score_windows(windows()))
    assert len(drawn) == sent


@pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="pipe size cannot be read here")
def test_external_subprocess_pipes_are_grown(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("const")) as scorer:
        for fd in (scorer._wfd, scorer._rfd):
            assert fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) >= external.PIPE_BYTES
        assert scorer.log_probs(["a"]) == [-1.0]


def test_external_closed_output_of_a_running_child_is_named(mock_scorer_cmd):
    # closeout closes stdout but stays alive for about 3 s, longer than the
    # client waits for its exit status.
    with external_scorer_connect(mock_scorer_cmd("closeout"), timeout=0.5) as scorer:
        with pytest.raises(ProtocolError, match="^scorer closed its output but is still "
                                                "running before responding$"):
            scorer.log_probs(["a"])


def test_external_dead_child_reports_exit_status(mock_scorer_cmd):
    with external_scorer_connect(mock_scorer_cmd("die")) as scorer:
        with pytest.raises(ProtocolError, match="exited with status 3"):
            scorer.log_probs(["a"])


def test_external_scorer_takes_descriptors_above_1023(mock_scorer_cmd):
    # select() cannot watch a descriptor numbered 1024 or more. With every
    # lower one taken, the scorer's pipes are numbered above that.
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
        pytest.skip("the descriptor limit is below 1100")
    fds = [os.open(os.devnull, os.O_RDONLY)]
    try:
        while fds[-1] < 1023:
            fds.append(os.dup(fds[0]))
        with external_scorer_connect(mock_scorer_cmd("const")) as scorer:
            assert min(scorer._rfd, scorer._wfd, scorer._efd) > 1023
            assert scorer.log_probs(["a", "b"]) == [-1.0, -1.0]
        with external_scorer_connect(mock_scorer_cmd("die")) as scorer:
            with pytest.raises(ProtocolError, match="exited with status 3"):
                scorer.log_probs(["a"])
    finally:
        for fd in fds:
            os.close(fd)


def test_external_dead_child_reports_stderr_tail(mock_scorer_cmd):
    # The child writes about 1 MB to stderr before dying: far more than a pipe
    # holds, so it only gets to exit if stderr is drained while waiting.
    with external_scorer_connect(mock_scorer_cmd("noisy"), timeout=10) as scorer:
        with pytest.raises(ProtocolError, match="exited with status 3 before responding; "
                           "its stderr ends: 'fatal: out of memory'$"):
            scorer.log_probs(["a"])
        assert len(scorer._stderr_tail) <= external.STDERR_TAIL


def test_external_close_kills_child_that_ignores_sigterm(mock_scorer_cmd):
    scorer = external_scorer_connect(mock_scorer_cmd("stubborn"), timeout=0.3)
    # A round trip first, so the child has set SIGTERM to be ignored.
    assert scorer.log_probs(["a"]) == [-1.0]
    start = time.monotonic()
    scorer.close()
    assert time.monotonic() - start < 5
    assert scorer._proc.returncode == -signal.SIGKILL


def test_external_scorer_is_closed_after_a_call_left_a_request_open(mock_scorer_cmd):
    # The first window's positive value fails score_corpus while the second
    # window's answer is held back. The peer sends that answer once the next
    # request arrives, so a scorer kept open would read it as the next call's.
    corpus = corpus_of(["a b", "c d"])
    with external_scorer_connect(mock_scorer_cmd("holdsecond")) as scorer:
        with pytest.raises(ScorerError, match="^log-probability > 0 on document 'doc:0': 0.1$"):
            score_corpus(scorer, corpus, 1.0, 0)
        why = "scorer is closed: an earlier call left 1 of its requests unanswered$"
        with pytest.raises(ScorerError, match=f"^{why}"):
            score_corpus(scorer, corpus, 1.0, 0)
        with pytest.raises(ScorerError, match=f"^{why}"):
            scorer.log_probs(["a"])
        assert scorer._proc.poll() is not None


def test_external_scorer_serves_several_calls(mock_scorer_cmd):
    # A call that has yielded its last window leaves no request open, so the
    # scorer stays usable; windows of 2 tokens give many requests per call.
    with external_scorer_connect(mock_scorer_cmd("const"), context_len=2) as scorer:
        for texts in (["a b c", "d e f g h"], ["i j k l m n o p q r s t"] * 3, ["u"]):
            result = score_corpus(scorer, corpus_of(texts), 1.0, 0)
            assert result.avg_nll == 1.0
            assert result.m_tokens == sum(len(t.split()) for t in texts)
        assert scorer.log_probs(["a"]) == [-1.0]
        assert scorer._proc.poll() is None
    with pytest.raises(ScorerError, match=r"^scorer is closed: close\(\) was called$"):
        scorer.log_probs(["a"])


class _TCPScorerHandler(socketserver.StreamRequestHandler):
    def handle(self):
        import json

        for line in self.rfile:
            req = json.loads(line)
            resp = {"id": req["id"], "logprobs": [-2.0] * len(req["tokens"])}
            self.wfile.write((json.dumps(resp) + "\n").encode())
            self.wfile.flush()


def test_external_tcp_endpoint():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TCPScorerHandler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with external_scorer_connect(f"tcp://127.0.0.1:{port}") as scorer:
            assert scorer.log_probs(["x", "y"]) == [-2.0, -2.0]
    finally:
        server.shutdown()
        server.server_close()


def test_external_tcp_ipv6_endpoint():
    class Server(socketserver.ThreadingTCPServer):
        address_family = socket.AF_INET6

    server = Server(("::1", 0), _TCPScorerHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with external_scorer_connect(f"tcp://[::1]:{server.server_address[1]}") as scorer:
            assert scorer.log_probs(["x", "y"]) == [-2.0, -2.0]
    finally:
        server.shutdown()
        server.server_close()


class _SlowReaderHandler(_TCPScorerHandler):
    """Waits before reading, so a large request fills the socket buffers."""

    def handle(self):
        time.sleep(1.0)
        super().handle()


def _serve(handler):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def test_external_tcp_slow_reader():
    # About 5 MB of request, more than loopback send and receive buffers hold.
    tokens = ["x"] * 1_000_000
    server = _serve(_SlowReaderHandler)
    try:
        with external_scorer_connect(f"tcp://127.0.0.1:{server.server_address[1]}") as scorer:
            logprobs = scorer.log_probs(tokens)
        assert len(logprobs) == len(tokens)
        assert logprobs[0] == logprobs[-1] == -2.0
    finally:
        server.shutdown()
        server.server_close()


def test_external_tcp_send_timeout():
    release = threading.Event()

    class Stalled(socketserver.BaseRequestHandler):
        def handle(self):
            release.wait(30.0)

    server = _serve(Stalled)
    try:
        target = f"tcp://127.0.0.1:{server.server_address[1]}"
        with external_scorer_connect(target, timeout=0.3) as scorer:
            with pytest.raises(ProtocolError, match="cannot send"):
                scorer.log_probs(["x"] * 1_000_000)
    finally:
        release.set()
        server.shutdown()
        server.server_close()


def test_external_tcp_reset():
    class Reset(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.recv(1)
            # Linger 0: close sends a reset instead of a normal end of stream.
            self.request.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.request.close()

    server = _serve(Reset)
    try:
        with external_scorer_connect(f"tcp://127.0.0.1:{server.server_address[1]}") as scorer:
            with pytest.raises(ProtocolError, match="cannot read"):
                scorer.log_probs(["x"])
    finally:
        server.shutdown()
        server.server_close()


def test_external_tcp_peer_closes_before_responding():
    class Hangup(socketserver.StreamRequestHandler):
        def handle(self):
            # Reads the whole request first: closing with unread bytes would
            # send a reset, which the client reports as a read error instead.
            self.rfile.readline()

    server = _serve(Hangup)
    try:
        with external_scorer_connect(f"tcp://127.0.0.1:{server.server_address[1]}") as scorer:
            with pytest.raises(ProtocolError,
                               match="^scorer closed the connection before responding$"):
                scorer.log_probs(["x"])
    finally:
        server.shutdown()
        server.server_close()


def test_external_missing_port():
    with pytest.raises(ScorerError, match="missing a port"):
        external_scorer_connect("tcp://localhost")


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize(
    "target",
    ["tcp://127.0.0.1:abc", "tcp://127.0.0.1:{closed}", "tcp://127.0.0.1:70000",
     "no-such-scorer-command --flag", "scorer 'unclosed", ""],
    ids=["bad-port", "refused", "port-out-of-range", "missing-command", "bad-quoting", "empty"],
)
def test_external_bad_target_raises_scorer_error(target):
    target = target.format(closed=_closed_port())
    with pytest.raises(ScorerError, match=re.escape(repr(target))):
        external_scorer_connect(target)
