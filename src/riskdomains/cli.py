"""Command line interface for the risk factor domain pipeline.

Subcommands mirror the pipeline stages: synth writes a synthetic corpus,
train fits a model and persists a bundle directory, classify labels
paragraphs with a bundle, evaluate scores predictions against gold,
agreement analyzes a three-annotator table, and project-lda exports a 2-d
discriminant scatter as CSV + SVG.

Every subcommand accepts --config (a JSON object); explicit flags override
config keys. Logs go to stderr, each warning as one "warning:" line, data
to files or stdout. Exit codes: 0 success, 1 config/usage error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import sys
import warnings
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .bundle import load_bundle, save_bundle
from .classify import classify_batch, embed
from .corpus import (
    Paragraph,
    default_synthetic_config,
    generate_synthetic_corpus,
    iter_paragraphs,
    load_gold,
    load_lexicon,
    load_paragraphs,
    parse_errors,
    replaced,
    require_field,
    weak_label,
    write_gold,
    write_lexicon,
    write_paragraphs,
)
from .domains import CLASSIFIED_DOMAINS, Domain
from .errors import ConfigError, DataError, RiskDomainsError
from .evaluation import (
    PredictionRecord,
    build_report,
    iaa_report,
    load_annotations,
)
from .pipeline import PipelineOptions, train_pipeline
from .plots import write_scatter_svg
from .vectorspace import lda_2d

CORPUS_NAME = "corpus.jsonl"
GOLD_NAME = "gold.jsonl"
LEXICON_NAME = "lexicon.json"
# Paragraphs classify reads, classifies and writes at a time. The scores of
# a paragraph can depend on its batch in the last bit, so this is a
# constant: the same corpus always gives the same bytes.
CLASSIFY_CHUNK = 1024
# A prediction line, byte for byte what json.dumps gives for its object: the
# id is escaped as json.dumps escapes a string, domain names are letters that
# need no escaping, the labels are never empty (assign gives at least
# [Other]), and each score is formatted by float.__repr__ as json formats a
# finite float (classify_batch refuses any other).
_PREDICTION_LINE = (
    '{"id": %s, "labels": ["%s"], "scores": {'
    + ", ".join(f'"{d.value}": %r' for d in CLASSIFIED_DOMAINS)
    + "}}\n"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; our contract reserves
    # 2 for data errors, so reroute through ConfigError (exit 1).
    def error(self, message):
        raise ConfigError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    with parse_errors(p, ConfigError):
        raw = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return raw


class _Options:
    """Flag > config > default resolution with key and type checks."""

    def __init__(self, args: argparse.Namespace, allowed: dict[str, type]):
        self._args = vars(args)
        path = self._args.get("config")
        config = _load_config(path)
        unknown = set(config) - set(allowed)
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
        try:
            self._config = {
                key: require_field(config, key, path, allowed[key]) for key in config
            }
        except DataError as e:
            raise ConfigError(str(e)) from None

    def get(self, key: str, default=None):
        value = self._args.get(key)
        if value is None:
            value = self._config.get(key, default)
        return value

    def given(self, keys) -> dict:
        """The keys that a flag or the config sets, with their values."""
        return {key: self.get(key) for key in keys if self.get(key) is not None}

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value


def _existing_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def cmd_synth(opts: _Options) -> int:
    out = Path(opts.get("out", "."))
    seed = opts.get("seed", 0)
    counts = opts.given(inspect.signature(default_synthetic_config).parameters)
    config = default_synthetic_config(**counts)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e}")
    paragraphs, gold, lexicon = generate_synthetic_corpus(config, seed)
    write_paragraphs(out / CORPUS_NAME, paragraphs)
    write_gold(out / GOLD_NAME, gold)
    write_lexicon(out / LEXICON_NAME, lexicon)
    _log(
        f"wrote {len(paragraphs)} paragraphs, gold labels, and the lexicon "
        f"to {out} (seed {seed})"
    )
    return 0


def cmd_train(opts: _Options) -> int:
    corpus_path = _existing_file(opts.require("corpus"), "corpus")
    lexicon_path = _existing_file(opts.require("lexicon"), "lexicon")
    out = opts.require("out")
    options = PipelineOptions(
        **opts.given(f.name for f in dataclasses.fields(PipelineOptions))
    )
    paragraphs = load_paragraphs(corpus_path)
    lexicon = load_lexicon(lexicon_path)
    trained = train_pipeline(paragraphs, lexicon, options)
    for epoch, value in enumerate(trained.loss_history, start=1):
        _log(f"epoch {epoch} loss {value:.6f}")
    # Record the corpus file name but not its directory so that identical
    # inputs produce byte-identical bundles regardless of working paths.
    training_info = {
        "corpus": corpus_path.name,
        "paragraphs": len(paragraphs),
        "weakly_labeled": trained.pipeline.tfidf.corpus_size,
        "svd_k": trained.pipeline.svd.k,  # clamped to min(N, V)
        "alpha": options.effective_alpha(),
        "seed": options.seed,
    }
    if options.kind != "cosine":
        config = options.train_config()
        training_info.update(
            epochs=config.epochs,
            batch_size=config.batch_size,
            loss=config.loss,
            final_loss=trained.loss_history[-1] if trained.loss_history else None,
        )
    path = save_bundle(out, trained.pipeline, training_info)
    _log(f"wrote bundle to {path}")
    return 0


def _prediction_lines(pipeline, paragraphs: list[Paragraph]) -> str:
    """One JSON line of labels and scores per paragraph, classified as a batch."""
    labels, scores = classify_batch(pipeline, [p.text for p in paragraphs])
    return "".join(
        _PREDICTION_LINE
        % (
            encode_basestring_ascii(p.id),
            '", "'.join([d.value for d in assigned]),
            *row,
        )
        for p, assigned, row in zip(paragraphs, labels, scores.tolist())
    )


def cmd_classify(opts: _Options) -> int:
    bundle_dir = opts.require("bundle")
    corpus_path = _existing_file(opts.require("corpus"), "corpus")
    pipeline, _, _ = load_bundle(bundle_dir)
    paragraphs = iter_paragraphs(corpus_path)
    chunks = iter(lambda: list(islice(paragraphs, CLASSIFY_CHUNK)), [])
    out = opts.get("out")
    if out is None:
        for chunk in chunks:
            sys.stdout.write(_prediction_lines(pipeline, chunk))
        return 0
    written = 0
    with replaced(Path(out)) as staged, open(staged, "w", encoding="utf-8") as f:
        for chunk in chunks:
            f.write(_prediction_lines(pipeline, chunk))
            written += len(chunk)
    _log(f"wrote {written} predictions to {out}")
    return 0


def cmd_evaluate(opts: _Options) -> int:
    predictions_path = _existing_file(opts.require("predictions"), "predictions")
    gold_path = _existing_file(opts.require("gold"), "gold")
    predictions = load_gold(predictions_path)
    gold = load_gold(gold_path)
    mismatched = sorted(set(predictions) ^ set(gold))
    if mismatched:
        shown = ", ".join(mismatched[:10])
        raise DataError(
            f"{len(mismatched)} ids do not align between predictions and gold; "
            f"first offenders: {shown}"
        )
    records = [
        PredictionRecord(
            id=pid, predicted=tuple(predictions[pid]), gold=tuple(gold[pid])
        )
        for pid in gold
    ]
    report = build_report(records)
    out = opts.get("out")
    if out is not None:
        json_path = Path(str(out) + ".json")
        json_path.write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        text_path = Path(str(out) + ".txt")
        text_path.write_text(report.to_text_table() + "\n", encoding="utf-8")
        _log(f"wrote {json_path} and {text_path}")
    print(report.to_text_table())
    return 0


def _agreement_table(report: dict) -> str:
    views = [
        ("Overall", report["overall"]),
        ("First Domain Only", report["first_domain_only"]),
    ]
    lines = [f"{'View':<18}  Fleiss kappa  Multi-kappa  Accuracy  Band"]
    for name, view in views:
        lines.append(
            f"{name:<18}  {view['fleiss_kappa']:12.3f}"
            f"  {view['multi_kappa']:11.3f}  {view['mean_accuracy']:8.3f}"
            f"  {view['fleiss_band']}"
        )
    counts = report["agreement_counts"]
    lines.append(
        f"paragraphs {counts['n_paragraphs']}, "
        f"total agreement {counts['total_agreement']}, "
        f"partial {counts['partial']}, "
        f"total disagreement {counts['total_disagreement']}"
    )
    return "\n".join(lines)


def cmd_agreement(opts: _Options) -> int:
    annotations_path = _existing_file(opts.require("annotations"), "annotations")
    gold_path = _existing_file(opts.require("gold"), "gold")
    annotations = load_annotations(annotations_path)
    gold = load_gold(gold_path)
    report = iaa_report(annotations, gold)
    out = opts.get("out")
    if out is not None:
        Path(out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _log(f"wrote {out}")
    print(_agreement_table(report))
    return 0


def cmd_project_lda(opts: _Options) -> int:
    bundle_dir = opts.require("bundle")
    corpus_path = _existing_file(opts.require("corpus"), "corpus")
    out = str(opts.require("out"))
    pipeline, lexicon, _ = load_bundle(bundle_dir)
    paragraphs = load_paragraphs(corpus_path)

    gold_path = opts.get("gold")
    labeled: list[tuple[Paragraph, Domain]] = []
    if gold_path is not None:
        gold = load_gold(_existing_file(gold_path, "gold"))
        for p in paragraphs:
            # Other is always a sole label, so checking the first suffices.
            if p.id in gold and gold[p.id][0] is not Domain.OTHER:
                labeled.append((p, gold[p.id][0]))
    else:
        labeled = list(weak_label(paragraphs, lexicon).entries)
    if not labeled:
        raise DataError("no labeled paragraphs to project")

    vectors, _ = embed(pipeline, [p.text for p, _ in labeled])
    domains = [d for _, d in labeled]
    coords = lda_2d(vectors, domains)

    csv_path = Path(out + ".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "domain", "x", "y"])
        for (p, d), (x, y) in zip(labeled, coords):
            writer.writerow([p.id, d.value, f"{x:.10g}", f"{y:.10g}"])
    svg_path = Path(out + ".svg")
    write_scatter_svg(
        svg_path,
        coords,
        domains,
        title="Risk factor domains, 2-d discriminant projection",
    )
    _log(f"wrote {csv_path} and {svg_path}")
    return 0


# Each subcommand's options and JSON types, as config keys and as the flags
# --key-with-dashes (--mwes/--no-mwes), checked alike where they are used.
_ALLOWED_KEYS = {
    "synth": {
        "seed": int, "out": str, "paragraphs_per_domain": int,
        "multilabel_per_domain": int, "other_paragraphs": int,
    },
    "train": {
        "seed": int, "out": str, "corpus": str, "lexicon": str, "kind": str,
        "svd_k": int, "alpha": float, "epochs": int, "batch_size": int,
        "loss": str, "use_mwes": bool,
    },
    "classify": {"out": str, "bundle": str, "corpus": str},
    "evaluate": {"out": str, "predictions": str, "gold": str},
    "agreement": {"out": str, "annotations": str, "gold": str},
    "project-lda": {"out": str, "bundle": str, "corpus": str, "gold": str},
}

_HELP = {
    "out": "output path (see subcommand help)",
    "seed": "random seed",
    "corpus": "paragraphs JSONL file",
    "lexicon": "keyword/keyphrase lexicon JSON file",
    "kind": "scorer: cosine, mlp or rbf",
    "alpha": "threshold multiplier",
    "loss": "training loss: cce, bce or mse",
    "bundle": "bundle directory",
    "predictions": "predictions JSONL file",
    "gold": "gold labels JSONL file (project-lda: optional, else weak labels)",
    "annotations": "annotations JSONL file (3 annotators)",
}

_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic corpus, gold labels, and lexicon"),
    "train": (cmd_train, "fit a pipeline and write a model bundle directory"),
    "classify": (cmd_classify, "label paragraphs with a trained bundle (JSONL out)"),
    "evaluate": (cmd_evaluate, "score predictions against gold labels"),
    "agreement": (cmd_agreement, "inter-annotator agreement report"),
    "project-lda": (cmd_project_lda, "export 2-d discriminant coordinates (CSV + SVG)"),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="riskdomains",
        description="Risk factor domain extraction for psychiatric narrative text.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        for key, json_type in _ALLOWED_KEYS[name].items():
            if json_type is bool:
                flag = key.removeprefix("use_")
                for prefix, value in (("", True), ("no-", False)):
                    p.add_argument(
                        f"--{prefix}{flag}", dest=key, action="store_const", const=value
                    )
            else:
                p.add_argument(
                    "--" + key.replace("_", "-"), dest=key, type=json_type,
                    help=_HELP.get(key),
                )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("no subcommand given; see --help")
        opts = _Options(args, _ALLOWED_KEYS[args.command])
        # Whatever filter the caller set, a warning is shown, never raised,
        # as one line without the file name and source line.
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = lambda message, *_: _log(f"warning: {message}")
            return _COMMANDS[args.command][0](opts)
    except RiskDomainsError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
