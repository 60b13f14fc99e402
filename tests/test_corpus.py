import json
import math
import re
from fractions import Fraction

import pytest

from qtokens import corpus as corpus_mod
from qtokens.corpus import (
    Corpus,
    Document,
    Tokenizer,
    load_jsonl,
    sample_fraction,
    write_jsonl,
)
from qtokens.errors import CorpusError
from qtokens.fixtures import RESULTS_TABLE

from conftest import make_corpus


def test_load_jsonl_three_lines(write_corpus):
    path = write_corpus("c.jsonl", [{"text": "a b"}, {"id": "x", "text": "c"}, {"text": "d e f"}])
    corpus = load_jsonl(path)
    assert len(corpus) == 3
    assert [d.text for d in corpus] == ["a b", "c", "d e f"]
    assert corpus.documents[0].id == "c.jsonl:1"
    assert corpus.documents[1].id == "x"
    assert corpus.documents[0].token_count == 2
    assert corpus.total_bytes == 3 + 1 + 5


def test_load_jsonl_missing_text(write_corpus):
    path = write_corpus("c.jsonl", [{"text": "ok"}, {"txt": "x"}])
    with pytest.raises(CorpusError, match="line 2: missing field text"):
        load_jsonl(path)


def test_load_jsonl_non_string_text(write_corpus):
    path = write_corpus("c.jsonl", [{"text": "ok"}, {"text": 7}])
    message = f"^{re.escape(path)}: line 2: field text is not a string$"
    with pytest.raises(CorpusError, match=message):
        load_jsonl(path)


def test_load_jsonl_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "ok"}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_jsonl(str(path))


def test_load_jsonl_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text('{"text": "a"}\n\n   \n{"text": "b"}\n', encoding="utf-8")
    assert [doc.id for doc in load_jsonl(str(path))] == ["blank.jsonl:1", "blank.jsonl:4"]
    path.write_text('{"text": "a"}\n\n \t\n{"text": "b"}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 5: invalid JSON"):
        load_jsonl(str(path))


def test_load_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_jsonl(str(path))) == 0


def test_load_jsonl_fixture_rows(tmp_path):
    # Render the embedded results table as one JSONL document per row.
    path = tmp_path / "fixture.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(RESULTS_TABLE):
            fh.write(json.dumps({"id": f"row{i}", "text": " ".join(str(v) for v in row)}) + "\n")
    corpus = load_jsonl(str(path))
    assert len(corpus) == 207


def test_write_then_load_roundtrip(tmp_path, write_corpus):
    path = write_corpus("c.jsonl", [{"id": "a", "text": "x y"}, {"id": "b", "text": "z"}])
    corpus = load_jsonl(path)
    out = tmp_path / "out.jsonl"
    write_jsonl(corpus, str(out))
    back = load_jsonl(str(out))
    assert [(d.id, d.text) for d in back] == [(d.id, d.text) for d in corpus]


def test_duplicate_ids_rejected():
    docs = [Document.create("a", "x"), Document.create("a", "y")]
    with pytest.raises(CorpusError, match="duplicate document id"):
        Corpus(docs)


def test_sample_full_fraction_is_identity():
    corpus = make_corpus([f"t {i}" for i in range(20)])
    sampled = sample_fraction(corpus, 1.0, seed=3)
    assert [d.id for d in sampled] == [d.id for d in corpus]


def test_sample_cardinality_and_repeatability():
    corpus = make_corpus([f"t {i}" for i in range(100)])
    first = sample_fraction(corpus, 0.1, seed=7)
    second = sample_fraction(corpus, 0.1, seed=7)
    assert len(first) == 10
    assert [d.id for d in first] == [d.id for d in second]
    different = sample_fraction(corpus, 0.1, seed=8)
    assert [d.id for d in different] != [d.id for d in first]


def test_sample_nesting():
    corpus = make_corpus([f"t {i}" for i in range(1000)])
    for seed in (0, 7, 42):
        previous = set()
        for fraction in (0.1, 0.2, 0.5, 1.0):
            ids = {d.id for d in sample_fraction(corpus, fraction, seed)}
            assert previous <= ids
            previous = ids


def test_sample_size_takes_the_fraction_as_written(monkeypatch):
    # In floating point 0.55 * 100 and 0.07 * 100 both lie just above an
    # integer. Equal ranks leave the size alone and skip the per-id hashing.
    monkeypatch.setattr(corpus_mod, "_rank_hash", lambda seed, doc_id: 0)
    docs = make_corpus([f"t {i}" for i in range(500)]).documents
    for n in range(1, 501):
        corpus = Corpus(docs[:n])
        for fraction in (0.01, 0.07, 0.1, 0.25, 0.29, 0.55, 0.57, 0.99, 1.0):
            expected = math.ceil(Fraction(str(fraction)) * n)
            assert len(sample_fraction(corpus, fraction, seed=0)) == expected, (fraction, n)


@pytest.mark.parametrize("fraction", [1e-05, 2.5e-06, 1.5e-07, 0.000123, 5e-324, 1])
def test_sample_size_of_exponent_and_integer_forms(monkeypatch, fraction):
    monkeypatch.setattr(corpus_mod, "_rank_hash", lambda seed, doc_id: 0)
    docs = make_corpus([f"t {i}" for i in range(40)]).documents
    for n in range(1, 41):
        expected = math.ceil(Fraction(str(fraction)) * n)
        assert len(sample_fraction(Corpus(docs[:n]), fraction, seed=0)) == expected


def test_sample_fraction_out_of_range():
    corpus = make_corpus(["a"])
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(CorpusError, match="fraction"):
            sample_fraction(corpus, bad, seed=0)


def test_count_tokens_empty():
    assert Corpus([]).total_tokens == 0


def test_count_tokens_whitespace():
    corpus = make_corpus(["a b c"])
    assert corpus.total_tokens == 3


def test_count_tokens_matches_independent_count():
    texts = ["one two three", "four", "five six", ""]
    corpus = make_corpus(texts)
    assert corpus.total_tokens == sum(len(t.split()) for t in texts)


def test_byte_tokenizer():
    tok = Tokenizer("byte")
    doc = Document.create("a", "hé", tok)
    assert Corpus([doc]).total_bytes == 3
    assert doc.token_count == 3
    assert len(tok.tokenize("hé")) == 3
    # UTF-8 bytes, not characters: 3 + 6 + 4 + 0.
    corpus = make_corpus(["hé", "日本", "🙂", ""], tok)
    assert [d.token_count for d in corpus] == [3, 6, 4, 0]
    assert corpus.total_bytes == 13


def test_vocab_tokenizer(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("alpha\nbeta\n", encoding="utf-8")
    tok = Tokenizer(f"vocab:{vocab}")
    assert tok.tokenize("alpha gamma beta") == ["alpha", "<unk>", "beta"]


def test_tokenizer_accepts_each_spec_form(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("hé\n", encoding="utf-8")
    tokens = {spec: Tokenizer(spec).tokenize("hé wo")
              for spec in ("whitespace", "byte", f"vocab:{vocab}")}
    assert tokens == {"whitespace": ["hé", "wo"],
                      "byte": ["h", "\xc3", "\xa9", " ", "w", "o"],
                      f"vocab:{vocab}": ["hé", "<unk>"]}
    assert Tokenizer().tokenize("hé wo") == tokens["whitespace"]


@pytest.mark.parametrize("spec", ["vocab", "vocab:", "byte:x", "words"])
def test_tokenizer_rejects_an_unknown_spec(spec):
    message = f"unknown tokenizer spec {spec!r}: expected whitespace, byte or vocab:<path>"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        Tokenizer(spec)


def test_corpus_total_tokens_invariant():
    corpus = make_corpus(["a b", "c d e"])
    assert corpus.total_tokens == sum(d.token_count for d in corpus)
