import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qtokens import fitting, fixtures
from qtokens.cli import main
from qtokens.corpus import Tokenizer
from qtokens.fixtures import QUALITY_TABLE, RESULTS_TABLE
from qtokens.scaling_law import (
    PRESETS,
    QualityInputs,
    ScalingConstants,
    default_initial_guess,
    effective_tokens,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_two_corpora(write_corpus, capsys):
    a = write_corpus("rep.jsonl", [{"text": "spam " * 400}, {"text": "spam " * 300}])
    rng = np.random.default_rng(0)
    b = write_corpus(
        "rand.jsonl",
        [{"text": " ".join(f"w{v}" for v in rng.integers(0, 10**6, size=300))} for _ in range(2)],
    )
    code, out, err = run_cli(["score", a, b], capsys)
    assert code == 0
    assert out.splitlines()[0] == (
        "corpus,tokens,cr,dr,ttr,mattr,ngram_diversity_2,ngram_diversity_3,ngram_diversity_4,"
        "self_repetition,avg_nll,perplexity,syntheticity"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0]["corpus"] == "rep.jsonl"
    # repetitive corpus is less diverse
    assert float(rows[0]["dr"]) < float(rows[1]["dr"])
    # no scorer configured: syntheticity columns empty
    assert rows[0]["syntheticity"] == "" and rows[0]["avg_nll"] == ""


def test_score_with_kgram_scorer(write_corpus, capsys):
    ref = write_corpus("ref.jsonl", [{"text": "the cat sat on the mat " * 20}])
    corpus = write_corpus("c.jsonl", [{"text": "the cat sat on the mat"}])
    code, out, _ = run_cli(["score", corpus, "--scorer", f"kgram:{ref}"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert 0.0 < float(row["syntheticity"]) <= 1.0
    assert float(row["perplexity"]) == pytest.approx(
        math.exp(float(row["avg_nll"])), rel=1e-5
    )


def test_score_tokenizes_each_document_once(write_corpus, capsys, monkeypatch, tmp_path):
    ref = write_corpus("ref.jsonl", [{"text": "the cat sat on the mat"}] * 3)
    a = write_corpus("a.jsonl", [{"text": "the cat sat"}, {"text": "on the mat"}])
    b = write_corpus("b.jsonl", [{"text": "a dog ran off"}] * 4)
    calls = []
    tokenize = Tokenizer.tokenize

    def counting(self, text):
        calls.append(text)
        return tokenize(self, text)

    monkeypatch.setattr(Tokenizer, "tokenize", counting)
    code, out, _ = run_cli(["score", a, b, "--scorer", f"kgram:{ref}"], capsys)
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 2
    assert len(calls) == 3 + 2 + 4
    # The sidecar scores Dr and S before and after from the loaded corpora.
    out_path, side = str(tmp_path / "out.jsonl"), tmp_path / "side.json"
    for argv, documents in (
        (["select", b, "--target", a, "--budget-tokens", "8"], 4 + 2),
        (["dedup", b, "--mode", "near"], 4),
    ):
        calls.clear()
        code, _, _ = run_cli(argv + ["--out", out_path, "--report", str(side),
                                     "--scorer", f"kgram:{ref}"], capsys)
        assert code == 0
        assert json.loads(side.read_text())["after"]["syntheticity"] is not None
        assert len(calls) == 3 + documents


def test_score_env_scorer(write_corpus, capsys, monkeypatch, mock_scorer_cmd):
    corpus = write_corpus("c.jsonl", [{"text": "x y z"}])
    monkeypatch.setenv("QTOKENS_SCORER", f"external:{mock_scorer_cmd('const')}")
    code, out, _ = run_cli(["score", corpus], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["avg_nll"]) == pytest.approx(1.0)


def test_score_bad_scorer_endpoint(write_corpus, capsys):
    corpus = write_corpus("c.jsonl", [{"text": "x y z"}])
    code, out, err = run_cli(["score", corpus, "--scorer", "external:tcp://127.0.0.1:abc"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "tcp://127.0.0.1:abc" in err


def test_score_unknown_scorer_spec(write_corpus, capsys):
    corpus = write_corpus("c.jsonl", [{"text": "x y z"}])
    code, out, err = run_cli(["score", corpus, "--scorer", "bogus"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: unknown scorer spec 'bogus'\n"


@pytest.mark.parametrize(
    "spec, code",
    [("none", 0), ("kgram:{ref}", 0), ("external:{cmd}", 0), ("tcp://127.0.0.1:9", 1),
     ("kgram", 1), ("kgram:", 1), ("kgram: ", 1), ("external:", 1), ("external: \t", 1),
     ("bogus", 1), ("", 1)],
    ids=["none", "kgram", "external", "bare-endpoint", "kgram-without-path", "kgram-empty-path",
         "kgram-blank-path", "external-empty-target", "external-blank-target", "bogus", "empty"],
)
def test_scorer_flag_and_environment_agree(spec, code, write_corpus, capsys, monkeypatch,
                                           mock_scorer_cmd):
    ref = write_corpus("ref.jsonl", [{"text": "the cat sat on the mat"}])
    spec = spec.format(ref=ref, cmd=mock_scorer_cmd("const"))
    monkeypatch.delenv("QTOKENS_SCORER", raising=False)
    flag = run_cli(["score", ref, "--scorer", spec], capsys)
    monkeypatch.setenv("QTOKENS_SCORER", spec)
    env = run_cli(["score", ref], capsys)
    assert env == flag
    assert flag[0] == code
    if code:
        assert flag[2] == f"error: unknown scorer spec {spec!r}\n"


def test_score_unreadable_input(capsys):
    code, out, err = run_cli(["score", "/nonexistent/input.jsonl"], capsys)
    assert code == 1
    assert "error" in err
    assert out == ""


# One command for each kind of input file, reading it from {bad}.
_INPUT_KINDS = {
    "corpus": ["score", "{bad}"],
    "vocab": ["--tokenizer", "vocab:{bad}", "score", "{corpus}"],
    "experiments": ["fit", "--experiments", "{bad}"],
    "quality": ["fit", "--experiments", "{exp}", "--quality", "{bad}"],
    "constants": ["predict", "--constants", "{bad}", "--n-millions", "10", "--d-tokens", "1e9",
                  "--dr", "0.3", "--s", "0.1"],
    "fit-report": ["report", "--fit-report", "{bad}", "--out-dir", "{out}"],
}


@pytest.mark.parametrize("argv", _INPUT_KINDS.values(), ids=_INPUT_KINDS)
def test_input_that_is_not_utf8_is_an_error_naming_the_file(argv, write_corpus, tmp_path,
                                                            capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"a,b\n\xff\xfe\n")
    exp = tmp_path / "exp.csv"
    exp.write_text(",".join(fitting.EXPERIMENTS_CSV_HEADER) + "\n")
    paths = {"bad": bad, "exp": exp, "corpus": write_corpus("c.jsonl", [{"text": "a b"}]),
             "out": tmp_path / "o"}
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert (code, out, err) == (1, "", f"error: {bad}: not UTF-8 (invalid start byte)\n")
    assert not paths["out"].exists()


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


_QUALITY = {(label, pct): (dr, s) for label, pct, dr, s in QUALITY_TABLE}
# A valid file of each kind; the quality one joins to the {exp} experiments.
_VALID_INPUTS = {
    "corpus": '{"text": "a b c a"}\n{"text": "b c d"}\n',
    "vocab": "a\nb\n",
    "experiments": _csv_text(fitting.EXPERIMENTS_CSV_HEADER,
                             [[*row, *_QUALITY[row[1], row[2]]] for row in RESULTS_TABLE]),
    "quality": _csv_text(fitting.QUALITY_CSV_HEADER, QUALITY_TABLE),
    "constants": json.dumps(PRESETS["paper-ours"].to_dict()),
    "fit-report": json.dumps({
        "constants": PRESETS["paper-ours"].to_dict(),
        "points": [{"n_millions": n, "d_tokens": 1e9, "dr": dr, "s": s, "observed": acc,
                    "predicted": acc + 0.01}
                   for n, dr, s, acc in ((25, 0.3, 0.05, 0.38), (350, 0.4, 0.1, 0.44))],
    }),
}


@pytest.mark.parametrize("kind", _INPUT_KINDS)
def test_a_leading_bom_is_ignored(kind, write_corpus, tmp_path, capsys):
    exp = tmp_path / "exp.csv"
    exp.write_text(_csv_text(fitting.EXPERIMENTS_CSV_HEADER,
                             [[*row, "", ""] for row in RESULTS_TABLE]))
    paths = {"bad": tmp_path / "input", "exp": exp, "out": tmp_path / "o",
             "corpus": write_corpus("c.jsonl", [{"text": "a b c"}])}
    argv = [arg.format(**paths) for arg in _INPUT_KINDS[kind]]
    runs = []
    for bom in ("", "\ufeff"):
        paths["bad"].write_text(bom + _VALID_INPUTS[kind], encoding="utf-8")
        runs.append((*run_cli(argv, capsys),
                     {p.name: p.read_bytes() for p in paths["out"].glob("*")}))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def _reason(parse, text) -> str:
    """The message of the exception ``parse(text)`` raises."""
    with pytest.raises(Exception) as info:
        parse(text)
    return str(info.value)


_DEEP = "[" * 5000 + "]" * 5000
_LONG_CELL = "x" * 200_000


def _read_csv(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.mark.parametrize("argv, bad_text, parse, message", [
    (["score", "{bad}"], '{"text": "a", "id": ' + "9" * 5000 + "}", json.loads,
     "{bad}: line 1: cannot parse JSON ({reason})"),
    (["score", "{bad}"], '{"text": "a", "x": ' + _DEEP + "}", json.loads,
     "{bad}: line 1: cannot parse JSON ({reason})"),
    (["predict", "--constants", "{bad}", "--n-millions", "10", "--d-tokens", "1e9", "--dr", "0.3",
      "--s", "0.1"], _DEEP, json.loads, "{bad}: not valid JSON: {reason}"),
    (["fit", "--fixture", "--init", "{bad}"], _DEEP, json.loads, "{bad}: not valid JSON: {reason}"),
    (["report", "--fit-report", "{bad}", "--out-dir", "{out}"], _DEEP, json.loads,
     "{bad}: not valid JSON: {reason}"),
    (["fit", "--experiments", "{bad}", "--out", "{out}"],
     ",".join(fitting.EXPERIMENTS_CSV_HEADER) + "\n" + _LONG_CELL, _read_csv, "{bad}: {reason}"),
    (["fit", "--experiments", "{exp}", "--quality", "{bad}"],
     ",".join(fitting.QUALITY_CSV_HEADER) + "\n" + _LONG_CELL, _read_csv, "{bad}: {reason}"),
], ids=["corpus-long-integer", "corpus-deep", "constants", "init", "fit-report", "experiments",
        "quality"])
def test_input_python_cannot_parse_is_an_error_naming_the_file(argv, bad_text, parse, message,
                                                               tmp_path, capsys):
    """An integer longer than int() parses, JSON nested deeper than the
    parser recurses, or a CSV field over the csv module's limit is one
    error line naming the file, not a traceback."""
    bad = tmp_path / "bad"
    bad.write_text(bad_text + "\n")
    exp = tmp_path / "exp.csv"
    exp.write_text(",".join(fitting.EXPERIMENTS_CSV_HEADER) + "\n")
    paths = {"bad": bad, "exp": exp, "out": tmp_path / "o"}
    message = message.format(bad=bad, reason=_reason(parse, bad_text))
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not paths["out"].exists()


@pytest.mark.parametrize("field", ["text", "id"])
@pytest.mark.parametrize("argv", [
    ["score", "{bad}"],
    ["score", "{good}", "--scorer", "kgram:{bad}"],
    ["select", "{bad}", "--target", "{good}", "--budget-tokens", "4", "--out", "{out}",
     "--report", "{report}"],
    ["select", "{good}", "--target", "{bad}", "--budget-tokens", "4", "--out", "{out}"],
    ["dedup", "{bad}", "--mode", "exact", "--out", "{out}"],
    ["dedup", "{bad}", "--mode", "near", "--out", "{out}", "--report", "{report}"],
], ids=["score", "kgram-reference", "select-input", "select-target", "dedup-exact", "dedup-near"])
def test_a_lone_surrogate_in_a_corpus_is_an_error(argv, field, write_corpus, tmp_path, capsys):
    # json.dumps writes the lone surrogate as the escape \ud800: valid JSON that
    # parses to a string no UTF-8 encode takes.
    bad_row = {"text": "x \ud800 y"} if field == "text" else {"id": "d\udfff", "text": "x y"}
    paths = {"bad": write_corpus("bad.jsonl", [{"text": "a b c"}, bad_row]),
             "good": write_corpus("good.jsonl", [{"text": "a b c"}, {"text": "d e f"}]),
             "out": tmp_path / "o.jsonl", "report": tmp_path / "r.json"}
    message = (f"error: {paths['bad']}: line 2: field {field} cannot be encoded as UTF-8 "
               "(surrogates not allowed)\n")
    assert run_cli([arg.format(**paths) for arg in argv], capsys) == (1, "", message)
    assert not paths["out"].exists() and not paths["report"].exists()


def test_score_names_the_corpus_a_bad_line_is_in(write_corpus, capsys):
    good = write_corpus("good.jsonl", [{"text": "the cat sat on the mat " * 10}])
    bad = write_corpus("bad.jsonl", [{"text": "a b c"}, {"text": 5}])
    message = f"error: {bad}: line 2: field text is not a string\n"
    assert run_cli(["score", good, bad], capsys) == (1, "", message)


@pytest.mark.parametrize("role, rows, message", [
    ("input", [], "cannot compress empty corpus"),
    ("input", [{"text": " \t "}], "corpus has no tokens"),
    ("input", [{"id": "d0", "text": "a b"}, {"id": "d0", "text": "c d"}],
     "duplicate document id: 'd0'"),
    ("kgram", [], "reference corpus is empty"),
    ("kgram", [{"text": "a b"}], "k=3 exceeds longest reference document (2 tokens)"),
], ids=["empty", "no-tokens", "repeated-id", "empty-reference", "short-reference"])
def test_score_names_the_file_it_cannot_use(role, rows, message, write_corpus, capsys):
    good = write_corpus("good.jsonl", [{"text": "the cat sat on the mat " * 10}])
    bad = write_corpus("bad.jsonl", rows)
    argv = ["score", good, bad] if role == "input" else ["score", good, "--scorer", f"kgram:{bad}"]
    assert run_cli(argv, capsys) == (1, "", f"error: {bad}: {message}\n")


@pytest.mark.parametrize("command", ["score", "select", "dedup"])
def test_a_scorer_error_names_the_corpus_once(command, write_corpus, tmp_path, capsys,
                                              mock_scorer_cmd):
    # Both inputs hold document d0, so only the path tells them apart.
    first = write_corpus("x1.jsonl", [{"id": "d0", "text": "a b c"}])
    second = write_corpus("x2.jsonl", [{"id": "d0", "text": "a b c"}])
    scorer = ["--scorer", f"external:{mock_scorer_cmd('positive')}"]
    out, report = tmp_path / "out.jsonl", tmp_path / "side.json"
    outputs = ["--out", str(out), "--report", str(report)]
    named, argv = {
        "score": (first, ["score", first, second, *scorer]),
        "select": (second, ["select", second, "--target", first, "--budget-tokens", "8",
                            *outputs, *scorer]),
        "dedup": (second, ["dedup", second, *outputs, *scorer]),
    }[command]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (1, "")
    assert err.splitlines()[-1] == f"error: {named}: log-probability > 0 on document 'd0': 0.1"
    assert not out.exists() and not report.exists()


def test_score_warns_on_incompressible_input(write_corpus, capsys):
    # 9 bytes of text compress to 17, so CR < 1.
    path = write_corpus("tiny.jsonl", [{"text": "a b c d e"}])
    code, out, err = run_cli(["score", path], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["cr"] == "0.529412"
    assert "warning" not in out
    assert err == "warning: tiny.jsonl: compression ratio 0.5294 < 1; input is incompressible\n"


def test_fit_fixture_f1(capsys):
    code, out, _ = run_cli(["fit", "--fixture", "--form", "F1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pearson"] >= 0.80
    assert payload["n_points"] == 207
    assert payload["seed"] == 42
    assert len(payload["points"]) == 207
    assert set(payload["constants"]) == {"E", "A", "alpha", "B", "beta", "c1", "c2", "form"}
    assert payload["bootstrap_converged"] is None


def test_fit_fixture_bootstrap_counts_converged_refits(capsys):
    # Every refit converges: E, A and B are solved exactly, so none creeps
    # along the E-A ridge to the iteration cap.
    code, out, err = run_cli(["--seed", "42", "fit", "--fixture", "--bootstrap-n", "24"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["bootstrap_converged"] == 24
    assert set(payload["se"]) == {"E", "A", "alpha", "B", "beta", "c1", "c2"}
    # All converged, so no warning.
    assert err == ""


def test_fit_warns_when_most_bootstrap_refits_hit_the_cap(capsys, monkeypatch):
    argv = ["--seed", "42", "fit", "--fixture", "--bootstrap-n", "6"]
    monkeypatch.setattr(fitting, "MAX_ITERS", 3)
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    converged = json.loads(out)["bootstrap_converged"]
    assert 2 * converged < 6
    assert err == (
        f"warning: only {converged} of 6 bootstrap refits converged within 3 iterations; "
        "the standard errors are bounded by the iteration cap\n"
    )
    # The warning goes to stderr only: stdout is what the library alone gives.
    points = fixtures.fixture_points()
    report = fitting.fit_constants(points, default_initial_guess("F1"), n_restarts=0,
                                   restart_seed=42)
    report.se, report.bootstrap_converged = fitting.bootstrap_se(points, report, n_resamples=6,
                                                                 seed=42)
    assert out == json.dumps(fitting.fit_report_to_dict(report, points, seed=42), indent=2) + "\n"


def test_fit_synthetic_csv_exact_recovery(tmp_path, capsys):
    truth = ScalingConstants(e=0.5, a=0.6, alpha=0.4, b=8.0, beta=0.3, c1=-1.0, c2=1.0)
    rng = np.random.default_rng(1)
    rows = []
    for i in range(10):
        n = (25, 50, 75, 125, 350, 500, 1500, 2000, 40, 90)[i]
        d = float(10 ** rng.uniform(8, 10))
        dr = float(rng.uniform(0.25, 0.5))
        s = float(rng.uniform(0.02, 0.15))
        dq = d * math.exp(truth.c1 * dr + truth.c2 * s)
        acc = truth.e + truth.a / n**truth.alpha + truth.b / dq**truth.beta
        rows.append((n, "Synthetic", 100, d, "", "", acc * 100, dr, s))
    path = tmp_path / "exp.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
            "accuracy_pct,diversity,syntheticity".split(",")
        )
        writer.writerows(rows)
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps(
            {"E": 0.55, "A": 0.5, "alpha": 0.45, "B": 9.0, "beta": 0.28,
             "c1": -1.2, "c2": 0.8, "form": "F1"}
        )
    )
    code, out, _ = run_cli(
        ["fit", "--experiments", str(path), "--init", str(init)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sse"] < 1e-10


def test_fit_five_rows_is_an_error(tmp_path, capsys):
    path = tmp_path / "exp.csv"
    header = (
        "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
        "accuracy_pct,diversity,syntheticity\n"
    )
    lines = [
        f"{n},X,100,1000000000,,,40.0,0.35,0.05\n" for n in (25, 50, 75, 125, 350)
    ]
    path.write_text(header + "".join(lines))
    code, out, err = run_cli(["fit", "--experiments", str(path)], capsys)
    assert code == 1
    assert "at least 8" in err


def _write_quality_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["data_label", "fraction_pct", "diversity", "syntheticity"])
        writer.writerows(rows)


def test_fit_experiments_with_quality_csv_matches_fixture(tmp_path, capsys):
    exp = tmp_path / "exp.csv"
    with open(exp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
            "accuracy_pct,diversity,syntheticity".split(",")
        )
        writer.writerows([*row, "", ""] for row in RESULTS_TABLE)
    quality = tmp_path / "q.csv"
    _write_quality_csv(quality, QUALITY_TABLE)
    code, out, _ = run_cli(
        ["fit", "--experiments", str(exp), "--quality", str(quality)], capsys
    )
    assert code == 0
    code, fixture_out, _ = run_cli(["fit", "--fixture"], capsys)
    assert code == 0
    assert out == fixture_out


def test_fit_needs_exactly_one_data_source(capsys):
    for argv in (["fit"], ["fit", "--fixture", "--experiments", "runs.csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
        assert "error:" in capsys.readouterr().err


def test_fit_quality_needs_experiments(tmp_path, capsys):
    quality = tmp_path / "q.csv"
    _write_quality_csv(quality, QUALITY_TABLE)
    code, out, err = run_cli(["fit", "--fixture", "--quality", str(quality)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--quality" in err


@pytest.mark.parametrize("bad_row", [("Random", 20, "oops", 0.02), ("Random", 20)])
def test_fit_malformed_quality_row(tmp_path, capsys, bad_row):
    exp = tmp_path / "exp.csv"
    exp.write_text(
        "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
        "accuracy_pct,diversity,syntheticity\n25,Random,10,1083200970,1.36,6.89,37.87,,\n"
    )
    quality = tmp_path / "q.csv"
    _write_quality_csv(quality, [("Random", 10, 0.3775, 0.02699), bad_row])
    code, out, err = run_cli(
        ["fit", "--experiments", str(exp), "--quality", str(quality)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "row 3" in err


def test_fit_quality_csv_is_checked_like_the_experiments_csv(tmp_path, capsys):
    """A quality CSV lacking a column fails once, naming the file and the
    column, and a repeated (data_label, fraction_pct) names its row."""
    exp = tmp_path / "exp.csv"
    exp.write_text(",".join(fitting.EXPERIMENTS_CSV_HEADER)
                   + "\n25,Random,10,1083200970,1.36,6.89,37.87,,\n")
    quality = tmp_path / "q.csv"
    quality.write_text("data_label,fraction_pct,diversity\nRandom,10,0.3775\n")
    argv = ["fit", "--experiments", str(exp), "--quality", str(quality)]
    assert run_cli(argv, capsys) == (1, "", f"error: {quality}: missing columns "
                                            "['syntheticity']\n")
    _write_quality_csv(quality, [("Random", 10, 0.3775, 0.02699)] * 2)
    assert run_cli(argv, capsys) == (1, "", "error: quality row 3: duplicate key "
                                            "('Random', 10)\n")


def test_fit_with_bootstrap(capsys, tmp_path):
    # small synthetic set so the bootstrap stays quick
    truth = ScalingConstants(e=0.2, a=1.0, alpha=0.3, b=50.0, beta=0.35, c1=-2.0, c2=1.5)
    rng = np.random.default_rng(2)
    header = (
        "model_size_m,data_label,fraction_pct,n_tokens,train_loss,eval_loss,"
        "accuracy_pct,diversity,syntheticity\n"
    )
    lines = []
    for i in range(24):
        n = (25, 50, 75, 125, 350, 500, 1500)[i % 7]
        d = float(10 ** rng.uniform(8, 10))
        dr = float(rng.uniform(0.25, 0.5))
        s = float(rng.uniform(0.02, 0.15))
        dq = d * math.exp(truth.c1 * dr + truth.c2 * s)
        acc = truth.e + truth.a / n**truth.alpha + truth.b / dq**truth.beta
        acc += float(rng.normal(0, 0.003))
        lines.append(f"{n},X,100,{d},,,{acc * 100},{dr},{s}\n")
    path = tmp_path / "exp.csv"
    path.write_text(header + "".join(lines))
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps({"E": 0.2, "A": 1.0, "alpha": 0.3, "B": 50.0, "beta": 0.35,
                    "c1": -2.0, "c2": 1.5, "form": "F1"})
    )
    code, out, _ = run_cli(
        ["fit", "--experiments", str(path), "--init", str(init), "--bootstrap-n", "4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["se"] is not None
    assert set(payload["se"]) == {"E", "A", "alpha", "B", "beta", "c1", "c2"}
    assert 0 <= payload["bootstrap_converged"] <= 4


def test_predict_preset_random_100(capsys):
    code, out, _ = run_cli(
        ["predict", "--constants", "paper-ours", "--n-millions", "25",
         "--d-tokens", "10993147242", "--dr", "0.36370", "--s", "0.02635"],
        capsys,
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["accuracy"]) == pytest.approx(0.380, abs=0.015)
    assert float(lines["effective_tokens"]) == pytest.approx(1.073e8, rel=1e-3)


def test_predict_constant_model(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"E": 0.5, "A": 0.0, "alpha": 0.5, "B": 0.0, "beta": 0.5,
                    "c1": 0.0, "c2": 0.0, "form": "F1"})
    )
    code, out, _ = run_cli(
        ["predict", "--constants", str(path), "--n-millions", "100",
         "--d-tokens", "1e9", "--dr", "0.3", "--s", "0.1"],
        capsys,
    )
    assert code == 0
    assert float(out.splitlines()[0].split()[1]) == 0.5


def test_predict_sel_syn_1500(capsys):
    code, out, _ = run_cli(
        ["predict", "--constants", "paper-ours", "--n-millions", "1500",
         "--d-tokens", "2507011688", "--dr", "0.28578", "--s", "0.11902"],
        capsys,
    )
    assert code == 0
    accuracy = float(out.splitlines()[0].split()[1])
    assert accuracy == pytest.approx(0.4527, abs=0.05)  # observed accuracy


def test_predict_unknown_preset(capsys):
    code, _, err = run_cli(
        ["predict", "--constants", "nope", "--n-millions", "1",
         "--d-tokens", "1", "--dr", "1", "--s", "1"],
        capsys,
    )
    assert code == 1
    assert "unknown constants" in err


def test_invert_simple(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"E": 1.0, "A": 0.0, "alpha": 0.5, "B": 1.0, "beta": 1.0,
                    "c1": 0.0, "c2": 0.0, "form": "F1"})
    )
    code, out, _ = run_cli(
        ["invert", "--constants", str(path), "--n-millions", "10", "--loss", "1.5"],
        capsys,
    )
    assert code == 0
    assert float(out.split()[1]) == pytest.approx(2.0, rel=1e-9)


def test_predict_constants_bad_value(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"E": "abc", "A": 0.0, "alpha": 0.5, "B": 1.0, "beta": 1.0,
                    "c1": 0.0, "c2": 0.0, "form": "F1"})
    )
    code, out, err = run_cli(
        ["predict", "--constants", str(path), "--n-millions", "10",
         "--d-tokens", "1e9", "--dr", "0.3", "--s", "0.1"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "abc" in err


def test_invert_constants_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"E": 1.0,')
    code, out, err = run_cli(
        ["invert", "--constants", str(path), "--n-millions", "10", "--loss", "1.5"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not valid JSON" in err


@pytest.mark.parametrize("command", ["predict", "fit", "report"])
def test_constants_that_are_not_an_object_are_an_error(command, tmp_path, capsys):
    path = tmp_path / "l.json"
    path.write_text("[1]")
    if command == "report":
        assert main(["fit", "--fixture", "--out", str(path)]) == 0
        path.write_text(json.dumps({**json.loads(path.read_text()), "constants": [1]}))
    argv = {
        "predict": ["predict", "--constants", str(path), "--n-millions", "10",
                    "--d-tokens", "1e9", "--dr", "0.3", "--s", "0.1"],
        "fit": ["fit", "--fixture", "--init", str(path)],
        "report": ["report", "--fit-report", str(path), "--out-dir", str(tmp_path / "o")],
    }[command]
    assert run_cli(argv, capsys) == (1, "", f"error: {path}: constants JSON is a list, "
                                            "not an object\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["predict", "fit", "report-constants", "report-points"])
def test_an_integer_beyond_the_float_range_is_an_error(where, tmp_path, capsys):
    # JSON parses 1 followed by 400 zeros as an int, which float() cannot hold.
    big = 10**400
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**PRESETS["paper-ours"].to_dict(), "E": big}))
    message = f"error: {path}: constant E is not finite\n"
    if where.startswith("report"):
        assert main(["fit", "--fixture", "--out", str(path)]) == 0
        fit = json.loads(path.read_text())
        if where == "report-constants":
            fit["constants"]["E"] = big
        else:
            fit["points"][0]["observed"] = big
            message = f"error: {path}: point 0: 'observed' is not finite\n"
        path.write_text(json.dumps(fit))
    argv = {
        "predict": ["predict", "--constants", str(path), "--n-millions", "25",
                    "--d-tokens", "1e10", "--dr", "0.36", "--s", "0.02"],
        "fit": ["fit", "--fixture", "--init", str(path)],
    }.get(where, ["report", "--fit-report", str(path), "--out-dir", str(tmp_path / "o")])
    assert run_cli(argv, capsys) == (1, "", message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, value", [("A", True), ("E", "1.14")], ids=["bool", "string"])
@pytest.mark.parametrize("where", ["predict", "fit", "report"])
def test_a_constant_that_is_not_a_json_number_is_an_error(where, name, value, tmp_path, capsys):
    path = tmp_path / "c.json"
    if where == "report":
        assert main(["fit", "--fixture", "--out", str(path)]) == 0
        fit = json.loads(path.read_text())
        fit["constants"][name] = value
        path.write_text(json.dumps(fit))
    else:
        path.write_text(json.dumps({**PRESETS["paper-ours"].to_dict(), name: value}))
    argv = {
        "predict": ["predict", "--constants", str(path), "--n-millions", "25",
                    "--d-tokens", "1e10", "--dr", "0.36", "--s", "0.02"],
        "fit": ["fit", "--fixture", "--init", str(path)],
        "report": ["report", "--fit-report", str(path), "--out-dir", str(tmp_path / "o")],
    }[where]
    message = f"error: {path}: constant {name} is not a number: {value!r}\n"
    assert run_cli(argv, capsys) == (1, "", message)
    assert not (tmp_path / "o").exists()


def test_invert_out_of_domain(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"E": 1.0, "A": 0.0, "alpha": 0.5, "B": 1.0, "beta": 1.0,
                    "c1": 0.0, "c2": 0.0, "form": "F1"})
    )
    code, _, err = run_cli(
        ["invert", "--constants", str(path), "--n-millions", "10", "--loss", "0.5"],
        capsys,
    )
    assert code == 1
    assert "unreachable" in err


def test_score_average_nll_beyond_perplexity_range(write_corpus, capsys, mock_scorer_cmd):
    corpus = write_corpus("c.jsonl", [{"text": "the cat sat on the mat " * 10}])
    code, out, err = run_cli(
        ["score", corpus, "--scorer", f"external:{mock_scorer_cmd('value -1000')}"], capsys
    )
    assert code == 1
    assert out == ""
    assert err == (f"error: {corpus}: average NLL is too large for a finite perplexity "
                   "(above about 709 nats per token)\n")


def test_score_all_zero_log_probs_print_a_zero_average_nll(write_corpus, capsys, mock_scorer_cmd):
    corpus = write_corpus("c.jsonl", [{"text": "x y z"}])
    code, out, _ = run_cli(["score", corpus, "--scorer", f"external:{mock_scorer_cmd('value 0')}"],
                           capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert (row["avg_nll"], row["perplexity"], row["syntheticity"]) == ("0", "1", "1")


def test_select_end_to_end(write_corpus, tmp_path, capsys):
    rng = np.random.default_rng(4)
    raw_rows = [
        {"id": f"r{i}", "text": " ".join(f"w{v}" for v in rng.integers(0, 50, size=20))}
        for i in range(30)
    ]
    target_rows = [
        {"id": f"t{i}", "text": " ".join(f"w{v}" for v in rng.integers(0, 10, size=20))}
        for i in range(10)
    ]
    raw = write_corpus("raw.jsonl", raw_rows)
    target = write_corpus("target.jsonl", target_rows)
    out_path = tmp_path / "selected.jsonl"
    report_path = tmp_path / "select_report.json"
    code, _, _ = run_cli(
        ["select", raw, "--target", target, "--budget-tokens", "200",
         "--out", str(out_path), "--report", str(report_path)],
        capsys,
    )
    assert code == 0
    from qtokens.corpus import load_jsonl

    selected = load_jsonl(str(out_path))
    assert 0 < selected.total_tokens <= 200
    side = json.loads(report_path.read_text())
    assert side["after"]["tokens"] <= side["before"]["tokens"]
    assert side["budget_tokens"] == 200
    assert "dr" in side["before"]


@pytest.mark.parametrize(
    "raw_rows, target_rows, named",
    [
        ([], [{"text": "a b c"}], "raw"),
        ([{"text": "a b c"}], [], "target"),
        ([{"text": "a b c"}], [{"text": ""}, {"text": "   "}], "target"),
    ],
    ids=["empty-raw", "empty-target", "tokenless-target"],
)
def test_select_rejects_corpus_without_ngrams(
    write_corpus, tmp_path, capsys, raw_rows, target_rows, named
):
    raw = write_corpus("raw.jsonl", raw_rows)
    target = write_corpus("target.jsonl", target_rows)
    out_path = tmp_path / "selected.jsonl"
    code, _, err = run_cli(
        ["select", raw, "--target", target, "--budget-tokens", "10", "--out", str(out_path)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:") and f"{named} corpus" in err
    assert not out_path.exists()


def test_select_budget_below_smallest_document(write_corpus, tmp_path, capsys):
    raw = write_corpus("raw.jsonl", [{"text": "a b c d"}, {"text": "e f g h i"}])
    target = write_corpus("target.jsonl", [{"text": "a b c"}])
    out_path = tmp_path / "selected.jsonl"
    report_path = tmp_path / "side.json"
    code, out, err = run_cli(
        ["select", raw, "--target", target, "--budget-tokens", "3",
         "--out", str(out_path), "--report", str(report_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert err == "warning: budget smaller than the smallest document; empty selection\n"
    assert out_path.read_text() == ""
    side = json.loads(report_path.read_text())
    # An empty corpus has no compression ratio, so its Dr is null.
    assert side["after"] == {"documents": 0, "tokens": 0, "dr": None, "syntheticity": None}
    assert side["before"]["dr"] > 0


@pytest.mark.parametrize("command", ["select", "dedup"])
def test_sidecar_fails_on_a_failing_scorer(command, write_corpus, tmp_path, capsys,
                                           mock_scorer_cmd):
    raw = write_corpus("raw.jsonl", [{"text": "a b c d"}, {"text": "e f g h i"}])
    target = write_corpus("target.jsonl", [{"text": "a b c"}])
    report_path = tmp_path / "side.json"
    argv = [command, raw, "--out", str(tmp_path / "out.jsonl"), "--report", str(report_path),
            "--scorer", f"external:{mock_scorer_cmd('die')}"]
    if command == "select":
        argv += ["--target", target, "--budget-tokens", "6"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err == f"error: {raw}: scorer exited with status 3 before responding\n"
    assert not report_path.exists()
    assert not (tmp_path / "out.jsonl").exists()


def test_select_sidecar_syntheticity_matches_score(write_corpus, tmp_path, capsys):
    rng = np.random.default_rng(5)
    raw = write_corpus("raw.jsonl", [
        {"id": f"r{i}", "text": " ".join(f"w{v}" for v in rng.integers(0, 40, size=30))}
        for i in range(24)
    ])
    target = write_corpus("target.jsonl", [
        {"id": f"t{i}", "text": " ".join(f"w{v}" for v in rng.integers(0, 15, size=30))}
        for i in range(8)
    ])
    ref = write_corpus("ref.jsonl", [
        {"text": " ".join(f"w{v}" for v in rng.integers(0, 20, size=200))} for _ in range(4)
    ])
    out_path = tmp_path / "selected.jsonl"
    report_path = tmp_path / "side.json"
    code, _, _ = run_cli(
        ["--seed", "7", "select", raw, "--target", target, "--budget-tokens", "300",
         "--out", str(out_path), "--report", str(report_path), "--scorer", f"kgram:{ref}"],
        capsys,
    )
    assert code == 0
    side = json.loads(report_path.read_text())
    code, out, _ = run_cli(
        ["--seed", "7", "score", str(out_path), "--scorer", f"kgram:{ref}"], capsys
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    # score prints six significant digits
    assert row["syntheticity"] == f"{side['after']['syntheticity']:.6g}"


def test_dedup_end_to_end(write_corpus, tmp_path, capsys):
    rows = [{"id": "a", "text": "same text " * 50},
            {"id": "b", "text": "same text " * 50},
            {"id": "c", "text": "different content " * 50}]
    src = write_corpus("dup.jsonl", rows)
    out_path = tmp_path / "dedup.jsonl"
    report_path = tmp_path / "dedup_report.json"
    code, _, _ = run_cli(
        ["dedup", src, "--mode", "exact", "--out", str(out_path),
         "--report", str(report_path)],
        capsys,
    )
    assert code == 0
    from qtokens.corpus import load_jsonl

    survivors = load_jsonl(str(out_path))
    assert [d.id for d in survivors] == ["a", "c"]
    side = json.loads(report_path.read_text())
    assert side["after"]["documents"] == 2
    assert side["after"]["dr"] > side["before"]["dr"]


@pytest.mark.parametrize("command", ["select", "dedup"])
def test_a_sidecar_that_cannot_be_written_leaves_no_output(command, write_corpus, tmp_path,
                                                           capsys):
    # The report is opened before the corpus is written, so its failure writes nothing.
    src = write_corpus("c.jsonl", [{"id": "a", "text": "a b c d e"}, {"id": "b", "text": "a b"}])
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    argv = {
        "select": ["select", src, "--target", src, "--budget-tokens", "5"],
        "dedup": ["dedup", src],
    }[command]
    report = tmp_path / "missing" / "side.json"
    code, out, err = run_cli(
        [*argv, "--out", str(out_dir / "out.jsonl"), "--report", str(report)], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{report}'\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["select", "dedup"])
def test_a_failing_output_leaves_existing_files_as_they_were(command, write_corpus, tmp_path,
                                                             capsys):
    # Written in place, --out is the input; a failure must neither remove nor truncate it.
    src = write_corpus("c.jsonl", [{"id": "a", "text": "a b c d e"}, {"id": "b", "text": "a b"},
                                   {"id": "c", "text": "a b"}])
    with open(src, "rb") as fh:
        corpus = fh.read()
    argv = {
        "select": ["select", src, "--target", src, "--budget-tokens", "5"],
        "dedup": ["dedup", src],
    }[command]
    missing = tmp_path / "missing"
    code, out, err = run_cli([*argv, "--out", src, "--report", str(missing / "side.json")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory")
    with open(src, "rb") as fh:
        assert fh.read() == corpus
    # An --out that cannot be written leaves an existing report as it was and removes a new one.
    old = tmp_path / "old.json"
    old.write_text("old\n")
    for report in (old, tmp_path / "new.json"):
        code, out, err = run_cli(
            [*argv, "--out", str(missing / "o.jsonl"), "--report", str(report)], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing / 'o.jsonl'}'\n"
    assert old.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "old.json"]


@pytest.mark.parametrize("out, report", [("o.jsonl", "o.jsonl"), ("o.jsonl", "./o.jsonl"),
                                         ("c.jsonl", "c.jsonl")],
                         ids=["same-path", "two-spellings", "the-input"])
@pytest.mark.parametrize("command", ["select", "dedup"])
def test_out_and_report_naming_one_file_is_an_error(command, out, report, write_corpus, tmp_path,
                                                    capsys, monkeypatch):
    # The sidecar would overwrite the corpus written to --out, even when that is the input.
    src = write_corpus("c.jsonl", [{"id": "a", "text": "a b c d e"}, {"id": "b", "text": "a b"}])
    with open(src, "rb") as fh:
        corpus = fh.read()
    monkeypatch.chdir(tmp_path)
    argv = {
        "select": ["select", "c.jsonl", "--target", "c.jsonl", "--budget-tokens", "5"],
        "dedup": ["dedup", "c.jsonl"],
    }[command]
    code, stdout, err = run_cli([*argv, "--out", out, "--report", report], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: --out and --report name the same file: {report}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]
    with open(src, "rb") as fh:
        assert fh.read() == corpus


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
@pytest.mark.parametrize("command", ["dedup", "select"])
def test_seed_out_of_range_is_a_usage_error(write_corpus, tmp_path, capsys, command, seed):
    src = write_corpus("c.jsonl", [{"id": "a", "text": "a b c d e"}, {"id": "b", "text": "a b c d f"}])
    out_path = tmp_path / "out.jsonl"
    argv = {
        "dedup": ["dedup", src, "--mode", "near"],
        "select": ["select", src, "--target", src, "--budget-tokens", "5", "--mode", "gumbel-sample"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(["--seed", seed, *argv, "--out", str(out_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("qtokens: error: argument --seed: ")
    assert "Traceback" not in err
    assert not out_path.exists()


def test_seed_bounds_are_accepted(write_corpus, tmp_path, capsys):
    src = write_corpus("c.jsonl", [{"id": "a", "text": "a b c d e"}, {"id": "b", "text": "a b c d e"}])
    for seed in ("0", str(2**64 - 1)):
        code, _, _ = run_cli(["--seed", seed, "dedup", src, "--mode", "near",
                              "--out", str(tmp_path / "near.jsonl")], capsys)
        assert code == 0
        code, _, _ = run_cli(["--seed", seed, "select", src, "--target", src, "--budget-tokens",
                              "5", "--mode", "gumbel-sample", "--out", str(tmp_path / "sel.jsonl")],
                             capsys)
        assert code == 0


@pytest.mark.parametrize("command, setting, report", [
    *[(command, "--tokenizer", False)
      for command in ("score", "fit", "predict", "invert", "select", "dedup", "report")],
    *[(command, setting, report) for command in ("select", "dedup")
      for setting in ("--scorer", "QTOKENS_SCORER") for report in (False, True)],
])
def test_each_setting_is_checked_in_every_command(command, setting, report, write_corpus,
                                                  tmp_path, capsys, monkeypatch):
    """A bad ``--tokenizer``, ``--scorer`` or ``$QTOKENS_SCORER`` is the same
    error in every command that takes it, whether or not the run would use
    it, and the command writes nothing."""
    src = write_corpus("c.jsonl", [{"id": "a", "text": "a b c d e"}, {"id": "b", "text": "a b c d f"}])
    fit_report = tmp_path / "fit.json"
    if command == "report":
        assert main(["fit", "--fixture", "--out", str(fit_report)]) == 0

    def argv(out_dir):
        out_dir.mkdir()
        out = ["--out", str(out_dir / "out.jsonl")]
        line = {
            "score": ["score", src],
            "fit": ["fit", "--fixture"],
            "predict": ["predict", "--constants", "paper-ours", "--n-millions", "25",
                        "--d-tokens", "1e9", "--dr", "0.3", "--s", "0.2"],
            "invert": ["invert", "--constants", "paper-ours", "--n-millions", "25",
                       "--loss", "0.38"],
            "select": ["select", src, "--target", src, "--budget-tokens", "5", *out],
            "dedup": ["dedup", src, *out],
            "report": ["report", "--fit-report", str(fit_report), "--out-dir", str(out_dir)],
        }[command]
        return line + ["--report", str(out_dir / "side.json")] * report

    monkeypatch.delenv("QTOKENS_SCORER", raising=False)
    assert run_cli(argv(tmp_path / "good"), capsys)[0] == 0
    # A scorer spec with an empty or blank target is as bad as an unknown one.
    specs = (["bogus"] if setting == "--tokenizer"
             else ["bogus", "kgram:", "external:", "kgram: ", "external: "])
    for i, spec in enumerate(specs):
        bad = argv(tmp_path / f"bad{i}")
        error = f"error: unknown scorer spec {spec!r}\n"
        if setting == "--tokenizer":
            bad = [setting, spec, *bad]
            error = (f"error: unknown tokenizer spec {spec!r}: "
                     "expected whitespace, byte or vocab:<path>\n")
        elif setting == "--scorer":
            bad = [*bad, setting, spec]
        else:
            monkeypatch.setenv(setting, spec)
        assert run_cli(bad, capsys) == (1, "", error)
        assert list((tmp_path / f"bad{i}").iterdir()) == []


def test_fixed_settings_are_the_library_defaults(write_corpus, tmp_path, capsys):
    from qtokens.corpus import load_jsonl
    from qtokens.diversity import score_corpus_diversity
    from qtokens.refine import dedup_near, importance_weights, select_by_weight
    from qtokens.syntheticity import score_corpus, train_kgram_scorer

    rng = np.random.default_rng(6)

    def text(vocab, length):
        return " ".join(f"w{v}" for v in rng.integers(0, vocab, size=length))

    ref = write_corpus("ref.jsonl", [{"text": text(12, 80)} for _ in range(6)])
    # Raw documents of mixed length and vocabulary rank differently under
    # other selection smoothings.
    raw = write_corpus("raw.jsonl", [
        {"id": f"r{i}", "text": text(int(rng.integers(12, 60)), int(rng.integers(8, 40)))}
        for i in range(30)
    ])
    target = write_corpus("target.jsonl", [{"text": text(12, 25)} for _ in range(8)])
    # Pairs whose second, longer copy replaces every 8th to 29th token:
    # other shingle lengths, hash counts or keep rules cluster them differently.
    dup_rows = []
    for g in range(8):
        base = text(5000, 120).split()
        copy = [t if i % (8 + 3 * g) else "x" for i, t in enumerate(base, 1)]
        dup_rows += [{"id": f"g{g}a", "text": " ".join(base)},
                     {"id": f"g{g}b", "text": " ".join(copy + ["tail", "end"])}]
    dups = write_corpus("dups.jsonl", dup_rows)

    code, out, _ = run_cli(["score", raw, "--scorer", f"kgram:{ref}"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    raw_corpus = load_jsonl(raw)
    s = score_corpus(train_kgram_scorer(load_jsonl(ref)), raw_corpus, 0.25, 42).s
    assert row["syntheticity"] == f"{s:.6g}"
    assert row["mattr"] == f"{score_corpus_diversity(raw_corpus).mattr:.6g}"

    selected = tmp_path / "selected.jsonl"
    code, _, _ = run_cli(["select", raw, "--target", target, "--budget-tokens", "200",
                          "--out", str(selected)], capsys)
    assert code == 0
    expected = select_by_weight(
        raw_corpus, importance_weights(raw_corpus, load_jsonl(target)), 200, seed=42
    )
    assert [d.id for d in load_jsonl(str(selected))] == [d.id for d in expected]

    deduped = tmp_path / "deduped.jsonl"
    code, _, _ = run_cli(["dedup", dups, "--mode", "near", "--out", str(deduped)], capsys)
    assert code == 0
    expected_ids = [d.id for d in dedup_near(load_jsonl(dups), seed=42)]
    assert [d.id for d in load_jsonl(str(deduped))] == expected_ids
    assert {f"g{g}b" for g in range(8)} < set(expected_ids) < {r["id"] for r in dup_rows}


def _lcg_text(state: int, vocab: int, length: int) -> tuple[int, str]:
    """``length`` words drawn from ``vocab`` by a 64-bit LCG; the next state and the text."""
    words = []
    for _ in range(length):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        words.append(f"w{(state >> 33) % vocab}")
    return state, " ".join(words)


# sha256 of every stdout and output file of test_pinned_outputs. A change to
# any fixed setting (Dr's zlib level, the report's window and n-gram orders,
# selection smoothing, the MinHash layout, the report's grid) changes one.
PINNED_OUTPUTS = {
    "score stdout": "cf275d982c4cc96112d66b3b6dc99e4e7b39aedcd92647be930652213015e817",
    "select stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "near stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "exact stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "exact.jsonl": "c3bf6e808b77681c2231f1a5d607bff566a51e50701a8c40a18502740bfe1c43",
    "fit.json": "a4ba88d9ad2f120ad43977c21833c8a4ee097e32f520dec00d899151fe3990f5",
    "near.json": "5681dfa3e69178b110bbcb48e37b08e8ceaec6f768ca33f1b82208b848b38641",
    "near.jsonl": "b5f60517b7707a478546b1c597e6819c875c61e85869cea1599b8542f66a2f95",
    "select.json": "3f77c2dace6e5f03bb3d50e5dd92e0c615268746705b02268527a9d229a19c27",
    "select.jsonl": "01fce2f93f58af3497f5b7af52f2d90c8be7c67202d750008564c01443af9d37",
    "acc_vs_dq.svg": "b60811143c15b21e3859a68980fc863547f0250a1dc0dbcada2948bc560bf420",
    "pred_vs_true.svg": "7791b9e3ff8a33ed09db9a17f81e5739bea601d6616e525d495c4224ada3be57",
    "q_surface.csv": "ea8d42e47f723e288cdb6c7c39bd0ea62388482c2ddd7e27ca7a6ab83315780d",
}


def test_pinned_outputs(write_corpus, tmp_path, capsys):
    state = 2024
    raw_rows, target_rows, dup_rows = [], [], []
    for i in range(30):
        state, text = _lcg_text(state, 12 + 2 * (i % 25), 8 + i % 33)
        raw_rows.append({"id": f"r{i}", "text": text})
    for i in range(8):
        state, text = _lcg_text(state, 12, 25)
        target_rows.append({"id": f"t{i}", "text": text})
    for g in range(8):
        state, text = _lcg_text(state, 5000, 120)
        base = text.split()
        copy = [t if i % (8 + 3 * g) else "x" for i, t in enumerate(base, 1)]
        dup_rows += [{"id": f"g{g}a", "text": text},
                     {"id": f"g{g}b", "text": " ".join(copy + ["tail", "end"])},
                     {"id": f"g{g}c", "text": text}]
    raw = write_corpus("raw.jsonl", raw_rows)
    target = write_corpus("target.jsonl", target_rows)
    dups = write_corpus("dups.jsonl", dup_rows)

    digests = {}
    for name, argv in [
        ("score", ["score", raw, target, dups, "--scorer", f"kgram:{target}"]),
        ("select", ["select", raw, "--target", target, "--budget-tokens", "200",
                    "--out", str(tmp_path / "select.jsonl"),
                    "--report", str(tmp_path / "select.json")]),
        ("near", ["dedup", dups, "--mode", "near", "--out", str(tmp_path / "near.jsonl"),
                  "--report", str(tmp_path / "near.json")]),
        ("exact", ["dedup", dups, "--mode", "exact", "--out", str(tmp_path / "exact.jsonl")]),
        ("fit", ["fit", "--fixture", "--out", str(tmp_path / "fit.json")]),
    ]:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, name
        digests[f"{name} stdout"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    code, _, _ = run_cli(["report", "--fit-report", str(tmp_path / "fit.json"),
                          "--out-dir", str(tmp_path / "plots")], capsys)
    assert code == 0
    for path in sorted(tmp_path.glob("*.json*")) + sorted((tmp_path / "plots").iterdir()):
        if path.name not in ("raw.jsonl", "target.jsonl", "dups.jsonl"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PINNED_OUTPUTS


def test_dedup_near_shingles_under_global_tokenizer(write_corpus, tmp_path, capsys):
    # Single-word texts are too short to shingle under whitespace tokens;
    # byte tokens make the first two near duplicates.
    texts = [
        "the_quick_brown_fox_jumps_over_the_lazy_dog_0123456789",
        "the_quick_brown_fox_jumps_over_the_lazy_cog_0123456789",
        "zyxwvutsrqponmlkjihgfedcba_unrelated_entirely",
    ]
    src = write_corpus("near.jsonl", [{"id": f"d{i}", "text": t} for i, t in enumerate(texts)])
    out_path = tmp_path / "near_out.jsonl"
    code, _, _ = run_cli(
        ["--tokenizer", "byte", "dedup", src, "--mode", "near", "--out", str(out_path)], capsys
    )
    assert code == 0
    kept = [json.loads(line)["id"] for line in out_path.read_text().splitlines()]
    assert kept == ["d0", "d2"]


def test_report_from_fixture_fit(tmp_path, capsys):
    code, out, _ = run_cli(["fit", "--fixture", "--out", str(tmp_path / "fit.json")], capsys)
    assert code == 0
    out_dir = tmp_path / "plots"
    code, out, _ = run_cli(
        ["report", "--fit-report", str(tmp_path / "fit.json"), "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    svg = (out_dir / "pred_vs_true.svg").read_text()
    assert svg.count("<circle") == 207
    assert (out_dir / "acc_vs_dq.svg").exists()
    surface = (out_dir / "q_surface.csv").read_text().splitlines()
    assert surface[0] == "diversity,syntheticity,q"
    assert len(surface) == 1 + 21 * 21
    # accuracy axis covers the fixture range [0.35, 0.50]
    from qtokens.report import _pad_limits

    points = json.loads((tmp_path / "fit.json").read_text())["points"]
    observed = [p["observed"] for p in points]
    predicted = [p["predicted"] for p in points]
    assert min(observed) >= 0.35 and max(observed) <= 0.50
    lo, hi = _pad_limits(observed + predicted)
    assert lo <= 0.35 and hi >= 0.50


def test_report_q_surface_uses_fitted_form(tmp_path, capsys):
    fit = tmp_path / "fit.json"
    code, _, _ = run_cli(["fit", "--fixture", "--form", "F2", "--out", str(fit)], capsys)
    assert code == 0
    out_dir = tmp_path / "plots"
    code, _, _ = run_cli(["report", "--fit-report", str(fit), "--out-dir", str(out_dir)], capsys)
    assert code == 0
    consts = ScalingConstants.from_dict(json.loads(fit.read_text())["constants"])
    assert consts.form == "F2"
    rows = list(csv.DictReader(io.StringIO((out_dir / "q_surface.csv").read_text())))
    assert len(rows) == 21 * 21
    for row in rows:
        dr, s = float(row["diversity"]), float(row["syntheticity"])
        # q is written with 9 significant digits
        assert float(row["q"]) == pytest.approx(
            effective_tokens(QualityInputs(d=1.0, dr=dr, s=s, n_millions=1.0), consts), rel=1e-8
        )


def test_dedup_sidecar_with_kgram_scorer(write_corpus, tmp_path, capsys):
    rows = [{"id": "a", "text": "alpha beta gamma " * 30},
            {"id": "b", "text": "alpha beta gamma " * 30},
            {"id": "c", "text": "delta epsilon zeta " * 30}]
    src = write_corpus("dup2.jsonl", rows)
    ref = write_corpus("ref2.jsonl", [{"text": "alpha beta gamma delta epsilon zeta " * 10}])
    report_path = tmp_path / "side.json"
    code, _, _ = run_cli(
        ["dedup", src, "--mode", "exact", "--out", str(tmp_path / "o.jsonl"),
         "--report", str(report_path), "--scorer", f"kgram:{ref}"],
        capsys,
    )
    assert code == 0
    side = json.loads(report_path.read_text())
    assert 0 < side["before"]["syntheticity"] <= 1
    assert 0 < side["after"]["syntheticity"] <= 1


def test_fit_with_restarts_flag(capsys):
    code, out, _ = run_cli(["fit", "--fixture", "--restarts", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pearson"] >= 0.80


def test_fit_negative_restarts_is_an_error(capsys):
    code, out, err = run_cli(["fit", "--fixture", "--restarts", "-2"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: n_restarts must be >= 0, got -2\n"


def test_fit_negative_bootstrap_n_is_an_error(capsys):
    code, out, err = run_cli(["fit", "--fixture", "--bootstrap-n", "-5"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: n_resamples must be >= 2, got -5\n"


def test_report_single_point_rejected(tmp_path, capsys):
    payload = {
        "constants": {"E": 1, "A": 0, "alpha": 0.5, "B": 1, "beta": 0.5,
                      "c1": 0, "c2": 0, "form": "F1"},
        "se": None, "r2": 0.0, "pearson": 0.0, "sse": 0.0, "n_points": 1,
        "n_evals": 0, "n_iters": 0, "converged": True, "residuals": [0.0],
        "points": [{"n_millions": 25, "d_tokens": 1e9, "dr": 0.3, "s": 0.1,
                    "observed": 0.4, "predicted": 0.4, "residual": 0.0,
                    "label": "X", "fraction_pct": 100}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(
        ["report", "--fit-report", str(path), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 1
    assert "2 points" in err


def test_report_non_object_rejected(tmp_path, capsys):
    fit = tmp_path / "fit.json"
    fit.write_text("[1, 2]")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(["report", "--fit-report", str(fit), "--out-dir", str(out_dir)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {fit}: fit report is not a JSON object\n"
    assert not out_dir.exists()


def test_report_without_constants_rejected(tmp_path, capsys):
    fit = tmp_path / "fit.json"
    code, _, _ = run_cli(["fit", "--fixture", "--out", str(fit)], capsys)
    assert code == 0
    payload = json.loads(fit.read_text())
    del payload["constants"]
    fit.write_text(json.dumps(payload))
    code, out, err = run_cli(
        ["report", "--fit-report", str(fit), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "constants" in err


def _drop_dr(points):
    del points[1]["dr"]


def _number_for_point(points):
    points[0] = 3.0


def _string_observed(points):
    points[2]["observed"] = "x"


def _zero_dr(points):
    points[3]["dr"] = 0


def _zero_s(points):
    points[5]["s"] = 0.0


@pytest.mark.parametrize(
    "break_points, message",
    [(_drop_dr, "point 1 has no 'dr'"),
     (_number_for_point, "point 0 is not a JSON object"),
     (_string_observed, "point 2: 'observed' is not a number: 'x'"),
     (_zero_dr, "point 3: 'dr' must be finite and > 0, got 0.0"),
     (_zero_s, "point 5: 's' must be finite and > 0, got 0.0")],
    ids=["missing-key", "number", "string-value", "zero-dr", "zero-s"],
)
def test_report_malformed_point_rejected(tmp_path, capsys, break_points, message):
    fit = tmp_path / "fit.json"
    code, _, _ = run_cli(["fit", "--fixture", "--out", str(fit)], capsys)
    assert code == 0
    payload = json.loads(fit.read_text())
    break_points(payload["points"])
    fit.write_text(json.dumps(payload))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(["report", "--fit-report", str(fit), "--out-dir", str(out_dir)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {fit}: {message}\n"
    assert not out_dir.exists()


BIG_C1 = {"E": 0.8, "A": -0.45, "alpha": 0.05, "B": -24.0, "beta": 0.45,
          "c1": 1e6, "c2": -4.9, "form": "F1"}


@pytest.mark.parametrize(
    "c1, message",
    [(1e6, "effective tokens overflow under form F1 with c1=1000000.0, c2=-4.9"),
     (-1e6, "score is undefined at N=25.0, Dq=0.0: float division by zero")],
    ids=["overflow", "underflow"],
)
def test_predict_extreme_constants_rejected(tmp_path, capsys, c1, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BIG_C1, "c1": c1}))
    code, out, err = run_cli(
        ["predict", "--constants", str(path), "--n-millions", "25",
         "--d-tokens", "1e9", "--dr", "0.3", "--s", "0.1"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "c1, message",
    [(1e6, "effective tokens overflow under form F1 with c1=1000000.0"),
     (-1e6, "point 0: effective tokens 0.0 cannot be plotted")],
    ids=["overflow", "underflow"],
)
def test_report_extreme_constants_write_nothing(tmp_path, capsys, c1, message):
    fit = tmp_path / "fit.json"
    code, _, _ = run_cli(["fit", "--fixture", "--out", str(fit)], capsys)
    assert code == 0
    payload = json.loads(fit.read_text())
    payload["constants"]["c1"] = c1
    fit.write_text(json.dumps(payload))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(["report", "--fit-report", str(fit), "--out-dir", str(out_dir)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {fit}: {message}")
    assert not out_dir.exists()


def _run_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "qtokens.cli", *args],
        capture_output=True,
        timeout=120,
    )


def test_fit_fixture_byte_identical_across_runs():
    a = _run_subprocess(["fit", "--fixture", "--form", "F1"])
    b = _run_subprocess(["fit", "--fixture", "--form", "F1"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_report_files_byte_identical(tmp_path):
    fit = _run_subprocess(["fit", "--fixture", "--out", str(tmp_path / "f.json")])
    assert fit.returncode == 0
    r1 = _run_subprocess(["report", "--fit-report", str(tmp_path / "f.json"),
                          "--out-dir", str(tmp_path / "d1")])
    r2 = _run_subprocess(["report", "--fit-report", str(tmp_path / "f.json"),
                          "--out-dir", str(tmp_path / "d2")])
    assert r1.returncode == r2.returncode == 0
    for name in ("pred_vs_true.svg", "acc_vs_dq.svg", "q_surface.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
