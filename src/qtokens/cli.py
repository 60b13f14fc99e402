"""Command-line interface.

Subcommands: score, fit, predict, invert, select, dedup, report. Data
goes to stdout (or --out files), errors to stderr with a nonzero exit
code. Every run is deterministic given its flags and --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import replace

from . import diversity, refine
from .corpus import Corpus, Tokenizer, load_jsonl, write_jsonl
from .errors import DiversityError, QTokensError, _check_seed, _naming
from .scaling_law import (
    FORMS,
    PRESETS,
    QualityInputs,
    ScalingConstants,
    default_initial_guess,
    effective_tokens,
    invert_effective_tokens,
    predict_accuracy,
)
from .syntheticity import external_scorer_connect, score_corpus, train_kgram_scorer

SCORER_ENV = "QTOKENS_SCORER"

def _read_json(path: str):
    """The JSON value in the file at ``path``; its errors name no file, so
    a caller reads it inside ``_naming(path)``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise QTokensError(f"not valid JSON: {exc}") from exc


def _load_constants(spec: str) -> ScalingConstants:
    if spec in PRESETS:
        return PRESETS[spec]
    if os.path.exists(spec):
        with _naming(spec):
            return ScalingConstants.from_dict(_read_json(spec))
    raise QTokensError(
        f"unknown constants {spec!r}: not a preset ({', '.join(sorted(PRESETS))}) "
        f"or a JSON file"
    )


def _scorer_spec(spec: str):
    """``--scorer``, else ``$QTOKENS_SCORER``: ``none``, ``kgram:<ref.jsonl>``
    or ``external:<target>``, with a target that is not blank. Return a
    function of the tokenizer giving a context manager that opens the scorer
    (None for ``none``) and closes it on exit, so nothing is opened until S
    is computed. A k-gram reference that cannot be trained on is named in
    the error."""
    kind, _, target = spec.partition(":")
    if spec == "none":
        return lambda tokenizer: contextlib.nullcontext()
    if target.strip() and kind == "kgram":
        def open_kgram(tokenizer):
            reference = load_jsonl(target, tokenizer)
            with _naming(target):
                return contextlib.nullcontext(train_kgram_scorer(reference))
        return open_kgram
    if target.strip() and kind == "external":
        return lambda tokenizer: external_scorer_connect(target)
    raise QTokensError(f"unknown scorer spec {spec!r}")


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_score(args) -> int:
    def score_one(path: str, scorer) -> dict:
        corpus = load_jsonl(path, args.tokenizer)
        name = os.path.basename(path)
        with _naming(path):
            rep = diversity.score_corpus_diversity(corpus)
            if rep.cr < 1.0:
                print(f"warning: {name}: compression ratio {rep.cr:.4f} < 1; "
                      "input is incompressible", file=sys.stderr)
            if scorer is None:
                avg_nll = perplexity = s = None
            else:
                result = score_corpus(scorer, corpus, seed=args.seed)
                avg_nll, perplexity, s = result.avg_nll, result.perplexity, result.s
        return {
            "corpus": name,
            "tokens": corpus.total_tokens,
            **rep.to_flat_dict(),
            "avg_nll": avg_nll,
            "perplexity": perplexity,
            "syntheticity": s,
        }

    with args.scorer(args.tokenizer) as scorer:
        rows = [score_one(path, scorer) for path in args.inputs]

    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
    return 0


def cmd_fit(args) -> int:
    from . import fitting, fixtures

    if args.fixture:
        if args.quality:
            raise QTokensError("--quality needs --experiments, not --fixture")
        points = fixtures.fixture_points()
    else:
        quality = (fitting.read_csv(args.quality, fitting.QUALITY_CSV_HEADER)
                   if args.quality else None)
        points = fitting.load_experiments_csv(args.experiments, quality)
    if args.init:
        init = replace(args.init, form=args.form)
    else:
        init = default_initial_guess(args.form)
    report = fitting.fit_constants(
        points, init, n_restarts=args.restarts, restart_seed=args.seed
    )
    if args.bootstrap_n:
        report.se, report.bootstrap_converged = fitting.bootstrap_se(
            points, report, n_resamples=args.bootstrap_n, seed=args.seed
        )
        if 2 * report.bootstrap_converged < args.bootstrap_n:
            print(f"warning: only {report.bootstrap_converged} of {args.bootstrap_n} bootstrap "
                  f"refits converged within {fitting.MAX_ITERS} iterations; the standard "
                  "errors are bounded by the iteration cap", file=sys.stderr)
    payload = fitting.fit_report_to_dict(report, points, seed=args.seed)
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_predict(args) -> int:
    q_in = QualityInputs(d=args.d_tokens, dr=args.dr, s=args.s, n_millions=args.n_millions)
    dq = effective_tokens(q_in, args.constants)
    acc = predict_accuracy(q_in, args.constants)
    sys.stdout.write(f"accuracy {acc:.6f}\n")
    sys.stdout.write(f"effective_tokens {dq:.6e}\n")
    return 0


def cmd_invert(args) -> int:
    dq = invert_effective_tokens(args.constants, args.n_millions, args.loss)
    sys.stdout.write(f"effective_tokens {dq:.6e}\n")
    return 0


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them is yet to be written
        return os.path.realpath(a) == os.path.realpath(b)


def _write_outputs(args, before: Corpus, after: Corpus, **extra) -> None:
    """Write ``after`` to ``--out``, then the ``--report`` sidecar if one
    was asked for: seed, document and token counts, Dr and S before and
    after refinement, then ``extra``.

    Dr is null for a corpus with no text, and S for one with no tokens or
    when no scorer is set. A failing command leaves both files as they
    were: the sidecar is computed first, as in ``score``, and the report is
    opened, not truncated, before ``--out`` is written (and removed if this
    command created it and ``--out`` fails). Both flags naming one file is
    an error, raised before either is opened."""
    if args.report and _same_file(args.report, args.out):
        raise QTokensError(f"--out and --report name the same file: {args.report}")
    if not args.report:
        write_jsonl(after, args.out)
        return
    side = {"seed": args.seed}
    with args.scorer(args.tokenizer) as scorer:
        for key, corpus in (("before", before), ("after", after)):
            side[key] = {"documents": len(corpus), "tokens": corpus.total_tokens,
                         "dr": None, "syntheticity": None}
            with contextlib.suppress(DiversityError):
                side[key]["dr"] = diversity.diversity_score(corpus)
            if scorer is not None and corpus.total_tokens > 0:
                # Both corpora are subsets of --input, so its path names them.
                with _naming(args.input):
                    side[key]["syntheticity"] = score_corpus(scorer, corpus, seed=args.seed).s
    created = not os.path.lexists(args.report)
    with open(args.report, "a", encoding="utf-8") as fh:
        try:
            write_jsonl(after, args.out)
        except BaseException:
            if created:
                os.remove(args.report)
            raise
        if fh.seekable():  # not a pipe such as /dev/stdout
            fh.truncate(0)
        fh.write(json.dumps({**side, **extra}, indent=2) + "\n")


def cmd_select(args) -> int:
    raw = load_jsonl(args.input, args.tokenizer)
    target = load_jsonl(args.target, args.tokenizer)
    weights = refine.importance_weights(raw, target)
    selected = refine.select_by_weight(
        raw, weights, args.budget_tokens, mode=args.mode, seed=args.seed
    )
    if not selected:
        print("warning: budget smaller than the smallest document; empty selection",
              file=sys.stderr)
    _write_outputs(args, raw, selected, budget_tokens=args.budget_tokens, mode=args.mode)
    return 0


def cmd_dedup(args) -> int:
    corpus = load_jsonl(args.input, args.tokenizer)
    if args.mode == "exact":
        deduped = refine.dedup_exact(corpus)
    else:
        deduped = refine.dedup_near(corpus, seed=args.seed)
    _write_outputs(args, corpus, deduped, mode=args.mode)
    return 0


def cmd_report(args) -> int:
    from .report import write_report

    with _naming(args.fit_report):
        paths = write_report(_read_json(args.fit_report), args.out_dir)
    for path in paths:
        sys.stdout.write(path + "\n")
    return 0


def _seed(text: str) -> int:
    """``--seed``: an integer in the range ``_check_seed`` allows."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    _check_seed(seed, argparse.ArgumentTypeError)
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtokens",
        description="Corpus quality metrics and the effective-token scaling law.",
    )
    parser.add_argument("--seed", type=_seed, default=42, help="global random seed")
    parser.add_argument("--tokenizer", type=Tokenizer, default="whitespace",
                        help="whitespace | byte | vocab:<path>")
    sub = parser.add_subparsers(dest="command", required=True)

    # The syntheticity scorer: score's S columns, select's and dedup's sidecar.
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--scorer", type=_scorer_spec,
                         default=os.environ.get(SCORER_ENV, "none"),
                         help=f"none | kgram:<ref.jsonl> | external:<target> "
                              f"(default from ${SCORER_ENV} if set)")

    p = sub.add_parser("score", parents=[scoring],
                       help="diversity/syntheticity metrics per corpus")
    p.add_argument("inputs", nargs="+", help="JSONL corpus files")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fit", help="estimate scaling-law constants")
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--experiments", help="experiments CSV path")
    data.add_argument("--fixture", action="store_true", help="use the embedded dataset")
    p.add_argument("--quality", help="separate quality CSV (data_label, fraction_pct, "
                                     "diversity, syntheticity); needs --experiments")
    p.add_argument("--form", default="F1", choices=FORMS)
    p.add_argument("--init", type=_load_constants,
                   help="initial constants: preset name or JSON path")
    p.add_argument("--restarts", type=int, default=0,
                   help="extra fits from perturbed initial guesses; best SSE wins")
    p.add_argument("--bootstrap-n", type=int, default=0)
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict accuracy and effective tokens")
    p.add_argument("--constants", type=_load_constants, required=True,
                   help="preset name or JSON path")
    p.add_argument("--n-millions", type=float, required=True)
    p.add_argument("--d-tokens", type=float, required=True)
    p.add_argument("--dr", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("invert", help="effective tokens needed for a target score")
    p.add_argument("--constants", type=_load_constants, required=True)
    p.add_argument("--n-millions", type=float, required=True)
    p.add_argument("--loss", type=float, required=True, help="unclamped model score")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("select", parents=[scoring],
                       help="importance-sampling coreset selection")
    p.add_argument("input", help="raw corpus JSONL")
    p.add_argument("--target", required=True, help="target corpus JSONL")
    p.add_argument("--budget-tokens", type=int, required=True)
    p.add_argument("--mode", default="topk", choices=refine.SELECT_MODES)
    p.add_argument("--out", required=True, help="selected corpus JSONL")
    p.add_argument("--report", help="sidecar JSON with before/after stats")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("dedup", parents=[scoring], help="remove exact or near duplicates")
    p.add_argument("input", help="corpus JSONL")
    p.add_argument("--mode", default="exact", choices=["exact", "near"])
    p.add_argument("--out", required=True, help="deduplicated corpus JSONL")
    p.add_argument("--report", help="sidecar JSON with before/after stats")
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("report", help="render SVG/CSV report files for a fit")
    p.add_argument("--fit-report", required=True, help="fit report JSON path")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (QTokensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
