"""Model bundle persistence: a directory of raw arrays plus manifest.json.

Every array lives in its own file of raw little-endian 64-bit values in C
order, with its shape and dtype recorded in the manifest, so bundles are
portable and the manifest stays humanly diffable. Loading reads each file
block by block straight into an array of the memory order its stage type
holds, checking each block, so no second copy of an array is ever made.
Nothing in a bundle depends on wall time; retraining with the same inputs,
seed and BLAS thread count reproduces byte-identical files.

A bundle stores only what cannot be recomputed; the stage types derive the
idf, the term index and the thresholds. Format 1 bundles, which also stored
idf.bin and thresholds.min, load through the same code, which ignores both.

A scorer is stored field by field under its kind's SCORER_PREFIXES entry: an
array field f as <prefix>f.bin, a scalar as the manifest field <prefix>f.
Loading walks the same fields. The loader only reads: the stage types
(Vocabulary, TfidfModel, SvdProjection, the scorer, ThresholdSet, Pipeline)
check the shapes and values when they are built.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from pathlib import Path

import numpy as np

from .classify import SCORER_TYPES, Pipeline, ThresholdSet
from .corpus import (
    KeywordLexicon, is_json_type, lexicon_from_json, lexicon_to_json, parse_errors,
    replaced, require_field,
)
from .domains import CLASSIFIED_DOMAINS
from .errors import ConfigError, DataError
from .vectorspace import SvdProjection, TfidfModel, Vocabulary

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocabulary.txt"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
SCORER_PREFIXES = {"cosine": "megadoc_", "mlp": "mlp_", "rbf": "rbf_"}
# Bytes _read_array reads and _write_array writes at a time. 4 MiB holds a
# dozen rows of standard-size SVD components, so each cache line of the
# Fortran-order array is touched whole; smaller blocks read the components
# about twice as slowly.
_READ_BLOCK_BYTES = 1 << 22


def _row_step(shape: tuple[int, ...], itemsize: int) -> int:
    """Leading-axis rows in one block of at most _READ_BLOCK_BYTES (at least 1)."""
    return max(1, _READ_BLOCK_BYTES // max(1, math.prod(shape[1:]) * itemsize))


def _write_array(directory: Path, name: str, array: np.ndarray, dtype: str) -> dict:
    path = directory / f"{name}.bin"
    # The file holds C order. tofile writes a Fortran-order array one element
    # at a time, so write C-ordered copies of one block of rows at a time,
    # which holds no copy of the whole array.
    array = np.asarray(array, dtype=_DTYPES[dtype])
    rows = array.reshape(1) if not array.shape else array
    step = _row_step(array.shape, array.itemsize)
    with open(path, "wb") as f:
        for start in range(0, len(rows), step):
            np.ascontiguousarray(rows[start : start + step]).tofile(f)
    return {"file": path.name, "shape": list(array.shape), "dtype": dtype}


def _bundle_file(directory: Path, name: str) -> Path:
    """directory/name, for a plain file name that stays inside the bundle."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise DataError(f"bundle file name {name!r} is not a file inside the bundle")
    return directory / name


def _read_array(
    directory: Path, arrays: dict, name: str, order: str = "C"
) -> np.ndarray:
    """The array arrays[name] indexes, in the given memory order."""
    where = f"bundle array {name!r}"
    spec = require_field(arrays, name, "bundle manifest arrays", dict)
    path = _bundle_file(directory, require_field(spec, "file", where, str))
    dtype = _DTYPES.get(require_field(spec, "dtype", where, str))
    if dtype is None:
        raise DataError(f"{where}: dtype must be one of {sorted(_DTYPES)}")
    shape = tuple(require_field(spec, "shape", where, list))
    if not all(is_json_type(d, int) and d >= 0 for d in shape):
        raise DataError(f"{where}: shape must be a list of non-negative integers")
    if not path.is_file():
        raise DataError(f"bundle array file missing: {path}")
    # Python ints, so that no shape can overflow into a matching size.
    expected = math.prod(shape) * dtype.itemsize
    size = path.stat().st_size
    if size != expected:
        raise DataError(
            f"bundle array {name!r} has {size} bytes, "
            f"expected {expected} for shape {list(shape)}"
        )
    # The file holds C order; fill an owned native-order array in the
    # requested order a block of leading-axis rows at a time, so no second
    # copy of the whole array is ever held.
    native = np.float64 if dtype.kind == "f" else np.int64
    array = np.empty(shape, dtype=native, order=order)
    rows = array.reshape(1) if not shape else array
    step = _row_step(shape, dtype.itemsize)
    with open(path, "rb") as f:
        for start in range(0, len(rows) if array.size else 0, step):
            block = rows[start : start + step]
            raw = f.read(block.size * dtype.itemsize)
            if len(raw) != block.size * dtype.itemsize:
                raise DataError(f"bundle array {name!r} is shorter than its shape")
            values = np.frombuffer(raw, dtype=dtype).reshape(block.shape)
            if native is np.float64 and not np.isfinite(values).all():
                raise DataError(f"bundle array {name!r} holds non-finite values")
            block[...] = values
    return array


def save_bundle(
    directory: str | Path, pipeline: Pipeline, training_info: dict | None = None
) -> Path:
    """Write a pipeline to a bundle directory, replacing an existing bundle.

    The manifest stores the pipeline's own lexicon, the one it fuses with.
    The bundle is written by corpus.replaced, so a failed save leaves an
    existing bundle as it was.
    """
    directory = Path(directory)
    if directory.exists():
        if not (directory / MANIFEST_NAME).exists() and any(directory.iterdir()):
            raise DataError(
                f"refusing to overwrite non-bundle directory: {directory}"
            )
    directory.parent.mkdir(parents=True, exist_ok=True)
    with replaced(directory) as staged:
        staged.mkdir()
        _save_into(staged, pipeline, training_info or {})
    return directory


def _save_into(directory: Path, pipeline: Pipeline, training_info: dict) -> None:
    tfidf = pipeline.tfidf
    svd = pipeline.svd
    arrays = {
        "df": _write_array(directory, "df", tfidf.vocabulary.df, "<i8"),
        "svd_components": _write_array(
            directory, "svd_components", svd.components, "<f8"
        ),
        "svd_singular_values": _write_array(
            directory, "svd_singular_values", svd.singular_values, "<f8"
        ),
    }
    (directory / VOCAB_NAME).write_text(
        "\n".join(tfidf.vocabulary.terms) + "\n", encoding="utf-8"
    )

    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "kind": pipeline.kind,
        "use_mwes": pipeline.use_mwes,
        "domain_order": [d.value for d in CLASSIFIED_DOMAINS],
        "corpus_size": tfidf.corpus_size,
        "vocabulary_file": VOCAB_NAME,
        "lexicon": lexicon_to_json(pipeline.lexicon),
        "training": training_info,
    }
    prefix = SCORER_PREFIXES[pipeline.kind]
    for f in dataclasses.fields(pipeline.scorer):
        name, value = prefix + f.name, getattr(pipeline.scorer, f.name)
        if isinstance(value, np.ndarray):
            arrays[name] = _write_array(directory, name, value, "<f8")
        else:
            manifest[name] = value

    t = pipeline.thresholds
    manifest["thresholds"] = {
        "alpha": t.alpha,
        "mean": {d.value: t.means[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
        "sigma": {d.value: t.sigmas[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
    }
    manifest["arrays"] = arrays
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_bundle(directory: str | Path) -> tuple[Pipeline, KeywordLexicon, dict]:
    """Load a bundle: returns the pipeline, its lexicon and the manifest.

    Every manifest field is read by corpus.require_field, with its JSON
    type; the stage types check shapes and values when they are built. A
    bundle whose manifest says use_mwes false fuses no keyphrases, whatever
    its stored lexicon holds. Manifest fields the reader does not use, such
    as the arrays.idf, thresholds.min, mlp_dropout and rbf_dropout that older
    bundles carry, are ignored.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(f"not a model bundle (no {MANIFEST_NAME}): {directory}")
    with parse_errors(manifest_path):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest must be a JSON object")
    where = str(manifest_path)
    version = require_field(manifest, "format_version", where, int)
    if version not in (1, FORMAT_VERSION):
        raise DataError(
            f"bundle format version {version!r} not supported "
            f"(reader expects 1 or {FORMAT_VERSION})"
        )
    order = require_field(manifest, "domain_order", where)
    if order != [d.value for d in CLASSIFIED_DOMAINS]:
        raise DataError(
            "bundle domain order does not match this reader; refusing to "
            "misinterpret model outputs"
        )
    arrays = require_field(manifest, "arrays", where, dict)

    def arr(name: str, order: str = "C") -> np.ndarray:
        return _read_array(directory, arrays, name, order)

    vocab_file = _bundle_file(
        directory, require_field(manifest, "vocabulary_file", where, str)
    )
    if not vocab_file.is_file():
        raise DataError(f"bundle vocabulary file missing: {vocab_file}")
    with parse_errors(vocab_file):
        terms = tuple(vocab_file.read_text(encoding="utf-8").splitlines())
    tfidf = TfidfModel(
        vocabulary=Vocabulary(terms=terms, df=arr("df")),
        corpus_size=require_field(manifest, "corpus_size", where, int),
    )
    # SvdProjection holds its components in Fortran order.
    svd = SvdProjection(
        components=arr("svd_components", order="F"),
        singular_values=arr("svd_singular_values"),
    )
    try:
        lexicon = lexicon_from_json(require_field(manifest, "lexicon", where), where)
    except ConfigError as e:
        raise DataError(f"{where}: lexicon: {e}")
    use_mwes = require_field(manifest, "use_mwes", where, bool)
    if not use_mwes:
        lexicon = lexicon.without_keyphrases()

    kind = require_field(manifest, "kind", where, str)
    if kind not in SCORER_TYPES:
        raise DataError(f"bundle has unknown model kind {kind!r}")
    scorer_type, prefix = SCORER_TYPES[kind], SCORER_PREFIXES[kind]
    scorer = scorer_type(**{
        name: arr(prefix + name) if hint is np.ndarray
        else require_field(manifest, prefix + name, where, hint)
        for name, hint in typing.get_type_hints(scorer_type).items()
    })

    t = require_field(manifest, "thresholds", where, dict)
    t_where = f"{where}: thresholds"
    per_domain = []  # mean and sigma, the order of ThresholdSet's fields
    for key in ("mean", "sigma"):
        table = require_field(t, key, t_where, dict)
        per_domain.append(np.array([
            require_field(table, d.value, f"{t_where}.{key}", float)
            for d in CLASSIFIED_DOMAINS
        ]))
    thresholds = ThresholdSet(require_field(t, "alpha", t_where, float), *per_domain)
    pipeline = Pipeline(
        kind=kind, use_mwes=use_mwes, lexicon=lexicon, tfidf=tfidf, svd=svd,
        thresholds=thresholds, scorer=scorer,
    )
    return pipeline, lexicon, manifest
