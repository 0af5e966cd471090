"""Multilabel scoring against gold labels and inter-annotator agreement.

Paragraph-level precision/recall/F1 use set intersections and unweighted
means over paragraphs. Per-domain rows are one-vs-rest binary counts.
Agreement tooling covers Fleiss's kappa (pooled marginals), the
Davies-Fleiss multi-rater kappa (per-rater-pair marginals), set-theoretic
agreement counts, and per-annotator accuracy in two variants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Hashable, Sequence

from .corpus import (
    parse_labels, read_records, require_field, validate_labels, write_records,
)
from .domains import ALL_DOMAINS, Domain
from .errors import DataError


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    predicted: tuple[Domain, ...]
    gold: tuple[Domain, ...]

    def __post_init__(self):
        validate_labels(f"{self.id} (predicted)", self.predicted)
        validate_labels(f"{self.id} (gold)", self.gold)


@dataclass(frozen=True)
class DomainRow:
    domain: Domain
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    degenerate: bool


@dataclass(frozen=True)
class MetricsReport:
    n_paragraphs: int
    precision: float
    recall: float
    f1: float
    rows: tuple[DomainRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_paragraphs": self.n_paragraphs,
            "overall": {
                "precision": self.precision,
                "recall": self.recall,
                "f1": self.f1,
            },
            "domains": {
                r.domain.value: {
                    "precision": r.precision,
                    "recall": r.recall,
                    "f1": r.f1,
                    "tp": r.tp,
                    "fp": r.fp,
                    "fn": r.fn,
                    "degenerate": r.degenerate,
                }
                for r in self.rows
            },
        }

    def to_text_table(self) -> str:
        width = max(len(d.value) for d in ALL_DOMAINS)
        lines = [f"{'Domain':<{width}}  Precision  Recall      F1"]
        for r in self.rows:
            mark = " *" if r.degenerate else ""
            lines.append(
                f"{r.domain.value:<{width}}  {r.precision:9.3f}  {r.recall:6.3f}"
                f"  {r.f1:6.3f}{mark}"
            )
        lines.append(
            f"{'Overall':<{width}}  {self.precision:9.3f}  {self.recall:6.3f}"
            f"  {self.f1:6.3f}"
        )
        lines.append("* degenerate row: domain absent from predictions or gold")
        return "\n".join(lines)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def example_prf(records: Sequence[PredictionRecord]) -> tuple[float, float, float]:
    """Per-paragraph set precision/recall/F1, averaged without weights."""
    if not records:
        raise DataError("cannot score an empty record list")
    ps, rs, fs = 0.0, 0.0, 0.0
    for rec in records:
        pred, gold = set(rec.predicted), set(rec.gold)
        hit = len(pred & gold)
        p = hit / len(pred)
        r = hit / len(gold)
        ps += p
        rs += r
        fs += _f1(p, r)
    n = len(records)
    return ps / n, rs / n, fs / n


def per_domain_prf(records: Sequence[PredictionRecord]) -> tuple[DomainRow, ...]:
    """One-vs-rest binary rows per domain, Other included.

    A row is degenerate when its precision or recall denominator is zero;
    the undefined metric is reported as 0.
    """
    if not records:
        raise DataError("cannot score an empty record list")
    rows = []
    for domain in ALL_DOMAINS:
        tp = fp = fn = 0
        for rec in records:
            in_pred = domain in rec.predicted
            in_gold = domain in rec.gold
            tp += in_pred and in_gold
            fp += in_pred and not in_gold
            fn += in_gold and not in_pred
        degenerate = (tp + fp == 0) or (tp + fn == 0)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        rows.append(
            DomainRow(
                domain=domain, precision=p, recall=r, f1=_f1(p, r),
                tp=tp, fp=fp, fn=fn, degenerate=degenerate,
            )
        )
    return tuple(rows)


def build_report(records: Sequence[PredictionRecord]) -> MetricsReport:
    p, r, f = example_prf(records)
    return MetricsReport(
        n_paragraphs=len(records), precision=p, recall=r, f1=f,
        rows=per_domain_prf(records),
    )


# ---------------------------------------------------------------------------
# Inter-annotator agreement
# ---------------------------------------------------------------------------

def _rating_table(items: Sequence[Sequence[Hashable]]) -> list[Counter]:
    """One Counter of its ratings per item, each item rated by the same 2+ raters."""
    if len(items) < 2:
        raise DataError("kappa needs at least 2 rated items")
    n_raters = len(items[0])
    if n_raters < 2:
        raise DataError("kappa needs at least 2 raters")
    for i, ratings in enumerate(items):
        if len(ratings) != n_raters:
            raise DataError(
                f"item {i} has {len(ratings)} ratings, expected {n_raters}"
            )
    return [Counter(ratings) for ratings in items]


def _observed_agreement(counts: list[Counter], n_raters: int) -> float:
    """Share of agreeing rater pairs per item, averaged over the items."""
    p_obs = 0.0
    for row in counts:
        agree = sum(v * v for v in row.values()) - n_raters
        p_obs += agree / (n_raters * (n_raters - 1))
    return p_obs / len(counts)


def _kappa(p_obs: float, p_exp: float, name: str) -> float:
    if 1.0 - p_exp == 0.0:
        raise DataError(f"{name} undefined: every rating uses a single category")
    return (p_obs - p_exp) / (1.0 - p_exp)


def fleiss_kappa(items: Sequence[Sequence[Hashable]]) -> float:
    """Fleiss's kappa with category proportions pooled over all ratings."""
    counts = _rating_table(items)
    n_ratings = len(items) * len(items[0])
    totals = sum(counts, Counter())  # categories in first-seen order
    p_exp = sum((v / n_ratings) ** 2 for v in totals.values())
    return _kappa(_observed_agreement(counts, len(items[0])), p_exp, "Fleiss kappa")


def multi_kappa(items: Sequence[Sequence[Hashable]]) -> float:
    """Davies-Fleiss multi-rater kappa.

    Observed agreement matches Fleiss; chance agreement averages, over all
    rater pairs, the product of the two raters' own marginal distributions.
    Rater order must therefore be consistent across items.
    """
    counts = _rating_table(items)
    n_items, n_raters = len(items), len(items[0])
    marginals = [Counter(ratings[a] for ratings in items) for a in range(n_raters)]
    pairs = list(combinations(marginals, 2))
    p_exp = sum(
        sum((va / n_items) * (b[c] / n_items) for c, va in a.items())
        for a, b in pairs
    ) / len(pairs)
    return _kappa(_observed_agreement(counts, n_raters), p_exp, "multi-rater kappa")


def kappa_band(kappa: float) -> str:
    """Landis-Koch agreement band for a kappa value."""
    if kappa < 0.0:
        return "poor"
    if kappa <= 0.20:
        return "slight"
    if kappa <= 0.40:
        return "fair"
    if kappa <= 0.60:
        return "moderate"
    if kappa <= 0.80:
        return "substantial"
    return "almost perfect"


@dataclass(frozen=True)
class AgreementStats:
    n_items: int
    total_agreement: int
    total_disagreement: int
    partial: int
    single_domain_share: float  # of total-agreement items, share with 1 domain


def agreement_stats(annotations: dict[str, list[list[Domain]]]) -> AgreementStats:
    """Set-theoretic agreement counts over three annotators per paragraph."""
    if not annotations:
        raise DataError("no annotations to analyze")
    total = null = partial = 0
    single = 0
    for pid, lists in annotations.items():
        sets = [set(l) for l in lists]
        if all(s == sets[0] for s in sets[1:]):
            total += 1
            if len(sets[0]) == 1:
                single += 1
        elif not set.intersection(*sets):
            null += 1
        else:
            partial += 1
    return AgreementStats(
        n_items=len(annotations),
        total_agreement=total,
        total_disagreement=null,
        partial=partial,
        single_domain_share=(single / total) if total else 0.0,
    )


@dataclass(frozen=True)
class AnnotatorAccuracy:
    exact: tuple[float, ...]
    first: tuple[float, ...]
    mean_exact: float
    mean_first: float


def annotator_accuracy(
    annotations: dict[str, list[list[Domain]]], gold: dict[str, list[Domain]]
) -> AnnotatorAccuracy:
    """Per-annotator accuracy: exact set match, and first-label match."""
    if not annotations:
        raise DataError("no annotations to analyze")
    n_raters = len(next(iter(annotations.values())))
    exact = [0] * n_raters
    first = [0] * n_raters
    for pid, lists in annotations.items():
        if pid not in gold:
            raise DataError(f"annotated paragraph {pid!r} missing from gold")
        gold_labels = gold[pid]
        for a, labels in enumerate(lists):
            exact[a] += set(labels) == set(gold_labels)
            first[a] += labels[0] == gold_labels[0]
    n = len(annotations)
    ex = tuple(c / n for c in exact)
    fi = tuple(c / n for c in first)
    return AnnotatorAccuracy(
        exact=ex, first=fi,
        mean_exact=sum(ex) / n_raters, mean_first=sum(fi) / n_raters,
    )


def binary_rating_items(
    annotations: dict[str, list[list[Domain]]]
) -> list[list[bool]]:
    """Expand multilabel annotations to one binary item per (paragraph, domain).

    Each annotator's rating for an item is whether that domain is in their
    label set. This is the 'Overall' kappa construction for multilabel data.
    """
    items: list[list[bool]] = []
    for pid in annotations:
        sets = [set(l) for l in annotations[pid]]
        for domain in ALL_DOMAINS:
            items.append([domain in s for s in sets])
    return items


def first_label_items(
    annotations: dict[str, list[list[Domain]]]
) -> list[list[Domain]]:
    return [[l[0] for l in lists] for lists in annotations.values()]


def iaa_report(
    annotations: dict[str, list[list[Domain]]], gold: dict[str, list[Domain]]
) -> dict:
    """Both kappas and accuracies for the Overall and First-Domain-Only views."""
    stats = agreement_stats(annotations)
    accuracy = annotator_accuracy(annotations, gold)
    overall_items = binary_rating_items(annotations)
    first_items = first_label_items(annotations)
    overall_fleiss = fleiss_kappa(overall_items)
    first_fleiss = fleiss_kappa(first_items)
    return {
        "overall": {
            "fleiss_kappa": overall_fleiss,
            "fleiss_band": kappa_band(overall_fleiss),
            "multi_kappa": multi_kappa(overall_items),
            "mean_accuracy": accuracy.mean_exact,
            "definition": "one binary rating item per paragraph-domain pair",
        },
        "first_domain_only": {
            "fleiss_kappa": first_fleiss,
            "fleiss_band": kappa_band(first_fleiss),
            "multi_kappa": multi_kappa(first_items),
            "mean_accuracy": accuracy.mean_first,
            "definition": "first label of each annotator per paragraph",
        },
        "per_annotator_accuracy": {
            "exact_set": list(accuracy.exact),
            "first_domain": list(accuracy.first),
        },
        "agreement_counts": {
            "n_paragraphs": stats.n_items,
            "total_agreement": stats.total_agreement,
            "total_disagreement": stats.total_disagreement,
            "partial": stats.partial,
            "single_domain_share_of_total_agreement": stats.single_domain_share,
        },
    }


def load_annotations(path: str | Path) -> dict[str, list[list[Domain]]]:
    """JSON-lines of {id, annotators: [labels, labels, labels]}."""
    annotations: dict[str, list[list[Domain]]] = {}
    for where, pid, obj in read_records(path):
        raw = require_field(obj, "annotators", where)
        if not isinstance(raw, list) or len(raw) != 3:
            raise DataError(f"{where}: expected a list of 3 annotators")
        lists = []
        for labels in raw:
            domains = parse_labels(labels, where)
            validate_labels(where, domains)
            lists.append(list(domains))
        annotations[pid] = lists
    if not annotations:
        raise DataError(f"{path}: no annotations found")
    return annotations


def write_annotations(
    path: str | Path, annotations: dict[str, list[list[Domain]]]
) -> None:
    write_records(path, (
        {"id": pid, "annotators": [[d.value for d in l] for l in lists]}
        for pid, lists in annotations.items()
    ))
