import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import qtokens
from qtokens.corpus import DEFAULT_TOKENIZER, Corpus, Document


MOCK_SCORER = os.path.join(os.path.dirname(__file__), "mock_scorer.py")


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """Let ``python -m qtokens.cli`` subprocesses import the package under test."""
    src = os.path.dirname(os.path.dirname(qtokens.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture
def mock_scorer_cmd():
    def make(mode: str) -> str:
        return f"{sys.executable} {MOCK_SCORER} {mode}"

    return make


@pytest.fixture
def write_corpus(tmp_path):
    def write(name: str, rows: list[dict]) -> str:
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return str(path)

    return write


def make_corpus(texts, tokenizer=DEFAULT_TOKENIZER, id_prefix="doc") -> Corpus:
    """A corpus of ``texts`` with ids ``<id_prefix>:<index>``."""
    return Corpus([Document.create(f"{id_prefix}:{i}", text, tokenizer)
                   for i, text in enumerate(texts)])
