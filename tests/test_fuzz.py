"""Seeded fuzzing of every file the CLI reads.

Each case writes a mutation of a valid input file, drawn from a
``random.Random`` with a fixed seed, and runs ``main`` on it in-process.
A case must exit 0, or exit 1 with one ``error:`` line after any
``warning:`` lines; exit 2 is argparse's usage error, which ends in its
own ``qtokens: error:`` line. When a command fails on a mutated input
file, its error line names that file once, except in the cases listed
beside ``NAMES_THE_FILE``. A failing case writes
nothing to stdout and leaves none of its ``--out``, ``--report`` or
``--out-dir`` files behind.
A failure names the input, the case and the mutated file, which stays in
pytest's temporary directory.
"""

import csv
import io
import json
import os
import random
import shutil

import pytest

from qtokens.cli import main
from qtokens.fitting import EXPERIMENTS_CSV_HEADER, QUALITY_CSV_HEADER
from qtokens.fixtures import QUALITY_TABLE, RESULTS_TABLE
from qtokens.scaling_law import PRESETS

# JSON text a mutation puts in place of a value: non-finite and
# out-of-range numbers, integers too large for a float or for int() to
# parse, other types, a lone surrogate escape, and nesting deeper than
# the parser's recursion limit.
ODD_JSON = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "1" + "0" * 400,
            "9" * 5000, "0", "-1", "true", "false", "null", '""', '"1.14"', '"x \\ud800 y"',
            "[]", "{}", '[1, "a"]', "[" * 5000 + "]" * 5000]
# CSV cells likewise, and one longer than the csv module's field limit.
ODD_CELLS = ["", " ", "nan", "inf", "-inf", "1e400", "1" + "0" * 400, "9" * 5000, "1e-400",
             "0", "-1", "true", "x", "1,2", '"', "\n", "x" * 200_000]
# Bytes that matter to a parser, or that are not UTF-8.
ODD_BYTES = [b"\xff", b"\x80", b"\n", b"\r", b",", b'"', b"\\", b"\x00", b"{", b"[", b" "]
_HOLE = "\x00hole\x00"


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    i = rng.randrange(len(data) + 1)
    what = rng.randrange(4)
    if what == 0 and i < len(data):  # flip one bit
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1 :]
    if what == 1:
        return data[:i] + rng.choice(ODD_BYTES) + data[i:]
    if what == 2:  # cut a span
        return data[:i] + data[i + rng.randrange(1, 9) :]
    return data[:i]


def _nodes(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, (*path, key))


def _mutate_json(rng: random.Random, value) -> str:
    """``value`` as JSON, with one key deleted or one node (the whole
    document, perhaps) replaced by ``ODD_JSON`` text."""
    value = json.loads(json.dumps(value))
    *head, last = rng.choice(list(_nodes(value))) or [None]
    if last is None:
        return rng.choice(ODD_JSON)
    parent = value
    for key in head:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[last]
    else:
        parent[last] = _HOLE
    return json.dumps(value).replace(json.dumps(_HOLE), rng.choice(ODD_JSON))


def _mutate_jsonl(rng: random.Random, rows: list) -> str:
    lines = [json.dumps(row) for row in rows]
    i = rng.randrange(len(lines))
    what = rng.randrange(3)
    if what == 0:
        lines[i] = _mutate_json(rng, rows[i])
    elif what == 1:
        lines.insert(i, rng.choice(ODD_JSON + ["", "not json", '{"text": "a b c"}']))
    else:  # a repeated id
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _mutate_csv(rng: random.Random, rows: list) -> str:
    rows = [list(row) for row in rows]
    row = rng.choice(rows)  # the header too
    i = rng.randrange(len(row))
    what = rng.choice("sssdar")
    if what == "s":
        row[i] = rng.choice(ODD_CELLS)
    elif what == "d":
        del row[i]
    elif what == "a":
        row.append(rng.choice(ODD_CELLS))
    else:
        rows.insert(rng.randrange(1, len(rows) + 1), list(row))
    return _csv_text(rows)


def _mutate_lines(rng: random.Random, lines: list) -> str:
    lines = list(lines)
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "<unk>", "a b", "x" * 5000]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs: the parsed value, how to mutate it, and its file."""
    base = tmp_path_factory.mktemp("valid")
    rng = random.Random(7)
    words = [f"w{i}" for i in range(40)]
    docs = [" ".join(rng.choice(words) for _ in range(20)) for _ in range(6)]
    docs += [docs[0] + " end", docs[1].replace("w1 ", "w2 ")]  # near duplicates
    corpus = [{"id": f"d{i}", "text": text} for i, text in enumerate(docs)]
    quality = {(label, pct): (dr, s) for label, pct, dr, s in QUALITY_TABLE}
    experiments = [EXPERIMENTS_CSV_HEADER] + [[*row, *quality[row[1], row[2]]]
                                              for row in RESULTS_TABLE[::10]]
    bare = [EXPERIMENTS_CSV_HEADER] + [[*row, "", ""] for row in RESULTS_TABLE[::10]]
    found = {
        "corpus": (corpus, _mutate_jsonl, "".join(json.dumps(row) + "\n" for row in corpus)),
        "vocab": (words, _mutate_lines, "\n".join(words) + "\n"),
        "experiments": (experiments, _mutate_csv, _csv_text(experiments)),
        "quality": ([QUALITY_CSV_HEADER, *QUALITY_TABLE], _mutate_csv,
                    _csv_text([QUALITY_CSV_HEADER, *QUALITY_TABLE])),
        "constants": (PRESETS["paper-ours"].to_dict(), _mutate_json,
                      json.dumps(PRESETS["paper-ours"].to_dict())),
    }
    texts = {name: text for name, (_, _, text) in found.items()}
    texts["bare"] = _csv_text(bare)  # for the quality cases; never mutated
    paths = {}
    for name, text in texts.items():
        paths[name] = str(base / name)
        with open(paths[name], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    paths["fit"] = str(base / "fit.json")
    assert main(["fit", "--experiments", paths["experiments"], "--out", paths["fit"]]) == 0
    with open(paths["fit"], encoding="utf-8") as fh:
        fit_report = json.load(fh)
    found["fit"] = (fit_report, _mutate_json, json.dumps(fit_report))
    return found, paths


# input mutated, cases, argv given the paths (the mutated file as "mut")
CASES = {
    "corpus-whitespace": ("corpus", 60, lambda p: ["score", p["mut"]]),
    "corpus-byte": ("corpus", 30, lambda p: ["--tokenizer", "byte", "score", p["mut"]]),
    "corpus-vocab": ("corpus", 30, lambda p: ["--tokenizer", f"vocab:{p['vocab']}", "score",
                                              p["mut"]]),
    "kgram-reference": ("corpus", 30, lambda p: ["score", p["corpus"], "--scorer",
                                                 f"kgram:{p['mut']}"]),
    "select": ("corpus", 30, lambda p: ["select", p["mut"], "--target", p["corpus"],
                                        "--budget-tokens", "50", "--out", p["out"],
                                        "--report", p["report"]]),
    "dedup": ("corpus", 30, lambda p: ["dedup", p["mut"], "--mode", "near", "--out", p["out"],
                                       "--report", p["report"]]),
    "vocab": ("vocab", 20, lambda p: ["--tokenizer", f"vocab:{p['mut']}", "score", p["corpus"]]),
    "experiments": ("experiments", 30, lambda p: ["fit", "--experiments", p["mut"],
                                                  "--out", p["out"]]),
    "quality": ("quality", 30, lambda p: ["fit", "--experiments", p["bare"], "--quality",
                                          p["mut"], "--out", p["out"]]),
    "constants-predict": ("constants", 40, lambda p: [
        "predict", "--constants", p["mut"], "--n-millions", "25", "--d-tokens", "1e9",
        "--dr", "0.3", "--s", "0.02"]),
    "constants-invert": ("constants", 20, lambda p: [
        "invert", "--constants", p["mut"], "--n-millions", "25", "--loss", "0.38"]),
    "fit-init": ("constants", 10, lambda p: ["fit", "--experiments", p["experiments"],
                                             "--init", p["mut"], "--out", p["out"]]),
    "fit-report": ("fit", 50, lambda p: ["report", "--fit-report", p["mut"],
                                         "--out-dir", p["out_dir"]]),
}
# Cases whose every exit-1 error must name the mutated file's path. Four
# stay out: ``experiment_points`` joins the experiments and quality CSVs
# in one pass, so its ``row N:`` and ``quality row N:`` errors name the
# row, not the file; ``constants-invert`` may fail on a loss the computed
# law cannot reach at that model size, which is not about the file's
# content; and ``select``'s "raw corpus has no n-grams" names the corpus
# by its role, not its path.
NAMES_THE_FILE = {"corpus-whitespace", "corpus-byte", "corpus-vocab", "kgram-reference", "vocab",
                  "dedup", "constants-predict", "fit-init", "fit-report"}


@pytest.mark.parametrize("case", list(CASES))
def test_every_mutated_input_ends_in_a_result_or_one_error_line(case, inputs, tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.delenv("QTOKENS_SCORER", raising=False)
    found, paths = inputs
    name, n_cases, argv_of = CASES[case]
    value, mutate, text = found[name]
    paths = {**paths, "mut": str(tmp_path / name), "out": str(tmp_path / "out"),
             "report": str(tmp_path / "report.json"), "out_dir": str(tmp_path / "out_dir")}
    outputs = [paths["out"], paths["report"], paths["out_dir"]]
    rng = random.Random(f"{case}-2024")
    codes = []
    for i in range(n_cases):
        what = rng.randrange(3)  # 0: the structure, 1: both, 2: the bytes
        data = (mutate(rng, value) if what < 2 else text).encode()
        if what:
            data = _mutate_bytes(rng, data)
        with open(paths["mut"], "wb") as fh:
            fh.write(data)
        for path in outputs:  # what the last case wrote, if it succeeded
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.lexists(path):
                os.remove(path)
        label = f"{case} case {i}: {paths['mut']}"
        try:
            code = main(argv_of(paths))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{label}: {exc!r} escaped main") from exc
        out, err = capsys.readouterr()
        *warnings, last = err.splitlines() or [""]
        codes.append(code)
        if code == 0:
            assert all(line.startswith("warning: ") for line in err.splitlines()), (label, err)
            continue
        assert code in (1, 2), (label, code)
        assert out == "", (label, out)
        if code == 1:
            assert all(line.startswith("warning: ") for line in warnings), (label, err)
            assert last.startswith("error: "), (label, err)
            if case in NAMES_THE_FILE:
                assert last.count(paths["mut"]) == 1, (label, err)
        else:
            assert last.startswith("qtokens: error: ") and "Traceback" not in err, (label, err)
        assert not [path for path in outputs if os.path.lexists(path)], label
    # The mutations reach past the first parse: some inputs still work.
    assert 0 in codes and set(codes) != {0}, (case, codes)
