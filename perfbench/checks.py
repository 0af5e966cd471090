"""Output checks. Every paragraph or train that fails one counts as failed."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DOMAINS = (
    "Appearance", "ThoughtContent", "Interpersonal", "Mood",
    "Occupation", "ThoughtProcess", "Substance",
)
OTHER = "Other"


def label_problem(labels) -> str | None:
    """Why a label list is invalid, or None when it is valid."""
    if not isinstance(labels, list) or not labels:
        return "empty label list"
    if any(name not in DOMAINS and name != OTHER for name in labels):
        return "unknown label"
    if len(set(labels)) != len(labels):
        return "duplicate label"
    if OTHER in labels and len(labels) > 1:
        return "Other is not alone"
    return None


def scores_problem(scores) -> str | None:
    """Why a domain -> score mapping is invalid, or None when it is valid."""
    if not isinstance(scores, dict) or sorted(scores) != sorted(DOMAINS):
        return "scores do not cover exactly the seven domains"
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in scores.values()):
        return "non-finite score"
    return None


def check_predictions(path: Path, ids: list[str]) -> tuple[int, dict, list[dict]]:
    """Check a classify JSONL output against the input ids, in order.

    Returns the number of failed paragraphs, a count of failure reasons and
    the parsed records (None where a line could not be parsed).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    reasons: dict[str, int] = {}
    records: list[dict | None] = []
    failed = 0

    def fail(reason: str) -> None:
        nonlocal failed
        failed += 1
        reasons[reason] = reasons.get(reason, 0) + 1

    for i, expected in enumerate(ids):
        if i >= len(lines):
            fail("missing prediction")
            records.append(None)
            continue
        try:
            obj = json.loads(lines[i])
        except json.JSONDecodeError:
            fail("unparseable line")
            records.append(None)
            continue
        records.append(obj)
        if not isinstance(obj, dict) or obj.get("id") != expected:
            fail("id out of order")
            continue
        problem = label_problem(obj.get("labels")) or scores_problem(obj.get("scores"))
        if problem:
            fail(problem)
    for _ in lines[len(ids):]:
        fail("extra prediction")
    return failed, reasons, records


def bundle_sha256(directory: Path) -> str:
    """sha256 over the bundle's file names and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def corrupt_first_prediction(path: Path) -> None:
    """Self-test aid: make the first prediction carry Other beside a domain."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(lines[0])
    obj["labels"] = [OTHER, DOMAINS[0]]
    lines[0] = json.dumps(obj) + "\n"
    Path(path).write_text("".join(lines), encoding="utf-8")
