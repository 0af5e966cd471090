"""Model bundle persistence: a directory of raw arrays plus manifest.json.

Every array lives in its own file of raw little-endian 64-bit values with
its shape and dtype recorded in the manifest, so bundles are portable and
the manifest stays humanly diffable. Nothing in a bundle depends on wall
time; retraining with the same inputs, seed and BLAS thread count
reproduces byte-identical files.

A scorer is stored field by field under its kind's SCORER_PREFIXES entry: an
array field f as <prefix>f.bin, a scalar as the manifest field <prefix>f.
Loading walks the same fields; the scorer type checks the shapes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import typing
from pathlib import Path

import numpy as np

from .classify import SCORER_TYPES, Pipeline, ThresholdSet
from .corpus import KeywordLexicon, lexicon_from_json, lexicon_to_json
from .domains import CLASSIFIED_DOMAINS
from .errors import DataError
from .vectorspace import SvdProjection, TfidfModel, Vocabulary

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocabulary.txt"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
SCORER_PREFIXES = {"cosine": "megadoc_", "mlp": "mlp_", "rbf": "rbf_"}


def _write_array(directory: Path, name: str, array: np.ndarray, dtype: str) -> dict:
    path = directory / f"{name}.bin"
    # tofile writes C order whatever the memory layout, without a full copy.
    np.asarray(array, dtype=_DTYPES[dtype]).tofile(path)
    return {"file": path.name, "shape": list(array.shape), "dtype": dtype}


def _instance(type_):
    """A convert for _field that accepts only values of one JSON type."""

    def check(value):
        if not isinstance(value, type_):
            raise TypeError(value)
        return value

    return check


def _bundle_file(directory: Path, name: str) -> Path:
    """directory/name, for a plain file name that stays inside the bundle."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise DataError(f"bundle file name {name!r} is not a file inside the bundle")
    return directory / name


def _read_array(
    directory: Path, spec: dict, name: str, order: str = "C"
) -> np.ndarray:
    try:
        path = _bundle_file(directory, _instance(str)(spec["file"]))
        shape = tuple(_instance(int)(d) for d in spec["shape"])
        dtype = _DTYPES[spec["dtype"]]
    except (KeyError, TypeError):
        raise DataError(f"bundle manifest entry for array {name!r} is malformed")
    if any(d < 0 for d in shape):
        raise DataError(f"bundle array {name!r} has a negative dimension")
    if not path.is_file():
        raise DataError(f"bundle array file missing: {path}")
    raw = path.read_bytes()
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise DataError(
            f"bundle array {name!r} has {len(raw)} bytes, "
            f"expected {expected} for shape {list(shape)}"
        )
    # frombuffer views are read-only; copy into an owned native-order array
    # laid out in the requested memory order.
    native = np.float64 if spec["dtype"] == "<f8" else np.int64
    array = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(native, order=order)
    if native is np.float64 and not np.isfinite(array).all():
        raise DataError(f"bundle array {name!r} holds non-finite values")
    return array


def _field(manifest: dict, key: str, convert):
    """A required manifest field, passed through convert (int, float, ...)."""
    if key not in manifest:
        raise DataError(f"bundle manifest lacks field {key!r}")
    try:
        return convert(manifest[key])
    except (TypeError, ValueError):
        raise DataError(f"bundle manifest field {key!r} is malformed")


def save_bundle(
    directory: str | Path, pipeline: Pipeline, training_info: dict | None = None
) -> Path:
    """Write a pipeline to a bundle directory, replacing an existing bundle.

    The manifest stores the pipeline's own lexicon, the one it fuses with.
    The bundle is written into a temporary sibling directory and renamed into
    place, so a failed save leaves an existing bundle as it was.
    """
    directory = Path(directory)
    if directory.exists():
        if not (directory / MANIFEST_NAME).exists() and any(directory.iterdir()):
            raise DataError(
                f"refusing to overwrite non-bundle directory: {directory}"
            )
    directory.parent.mkdir(parents=True, exist_ok=True)
    # mkdtemp makes a private directory; the bundle itself is made inside it
    # with mkdir, so it keeps the permissions of a normally created directory.
    scratch = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", dir=directory.parent))
    try:
        staged = scratch / "new"
        staged.mkdir()
        _save_into(staged, pipeline, training_info or {})
        if directory.exists():
            directory.rename(scratch / "old")
        staged.rename(directory)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return directory


def _save_into(directory: Path, pipeline: Pipeline, training_info: dict) -> None:
    tfidf = pipeline.tfidf
    svd = pipeline.svd
    arrays = {
        "idf": _write_array(directory, "idf", tfidf.idf, "<f8"),
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
        "min": {d.value: t.thresholds[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
        "mean": {d.value: t.means[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
        "sigma": {d.value: t.sigmas[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
    }
    manifest["arrays"] = arrays
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_bundle(directory: str | Path) -> tuple[Pipeline, KeywordLexicon, dict]:
    """Load a bundle; validates format version, fields, shapes and finiteness.

    Returns the pipeline, its lexicon and the manifest. A bundle whose
    manifest says use_mwes false fuses no keyphrases, whatever its stored
    lexicon holds. Manifest fields the reader does not use, such as the
    mlp_dropout and rbf_dropout that older bundles carry, are ignored.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(f"not a model bundle (no {MANIFEST_NAME}): {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"{manifest_path}: invalid JSON: {e}")
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"bundle format version {version!r} not supported "
            f"(reader expects {FORMAT_VERSION})"
        )
    order = manifest.get("domain_order")
    if order != [d.value for d in CLASSIFIED_DOMAINS]:
        raise DataError(
            "bundle domain order does not match this reader; refusing to "
            "misinterpret model outputs"
        )
    arrays = _field(manifest, "arrays", _instance(dict))

    def arr(name: str, order: str = "C") -> np.ndarray:
        if name not in arrays:
            raise DataError(f"bundle manifest lacks array {name!r}")
        return _read_array(directory, arrays[name], name, order)

    vocab_file = _bundle_file(
        directory, _field(manifest, "vocabulary_file", _instance(str))
    )
    if not vocab_file.is_file():
        raise DataError(f"bundle vocabulary file missing: {vocab_file}")
    terms = tuple(vocab_file.read_text(encoding="utf-8").splitlines())
    idf = arr("idf")
    df = arr("df")
    if idf.shape != (len(terms),) or df.shape != (len(terms),):
        raise DataError(
            f"vocabulary size {len(terms)} does not match idf/df arrays of "
            f"shapes {list(idf.shape)}/{list(df.shape)}"
        )
    vocabulary = Vocabulary(
        terms=terms, index={t: i for i, t in enumerate(terms)}, df=df
    )
    tfidf = TfidfModel(
        vocabulary=vocabulary,
        idf=idf,
        corpus_size=_field(manifest, "corpus_size", int),
    )
    # SvdProjection holds its components in Fortran order.
    components = arr("svd_components", order="F")
    singular_values = arr("svd_singular_values")
    if (
        components.shape[1:] != (len(terms),)
        or singular_values.shape != components.shape[:1]
    ):
        raise DataError(
            f"svd components of shape {list(components.shape)} and singular values "
            f"of shape {list(singular_values.shape)} do not fit {len(terms)} terms"
        )
    svd = SvdProjection(components=components, singular_values=singular_values)
    lexicon = lexicon_from_json(manifest.get("lexicon", {}), manifest_path)
    use_mwes = _field(manifest, "use_mwes", _instance(bool))
    if not use_mwes:
        lexicon = lexicon.without_keyphrases()

    kind = _field(manifest, "kind", str)
    if kind not in SCORER_TYPES:
        raise DataError(f"bundle has unknown model kind {kind!r}")
    scorer_type, prefix = SCORER_TYPES[kind], SCORER_PREFIXES[kind]
    scorer = scorer_type(**{
        name: arr(prefix + name) if hint is np.ndarray
        else _field(manifest, prefix + name, hint)
        for name, hint in typing.get_type_hints(scorer_type).items()
    })

    t = _field(manifest, "thresholds", dict)
    try:
        alpha = float(t["alpha"])
        values = [
            np.array([float(t[key][d.value]) for d in CLASSIFIED_DOMAINS])
            for key in ("min", "mean", "sigma")
        ]
    except KeyError as e:
        raise DataError(f"bundle thresholds are missing {e}")
    except (TypeError, ValueError):
        raise DataError("bundle thresholds are malformed")
    if not (np.isfinite(alpha) and all(np.isfinite(v).all() for v in values)):
        raise DataError("bundle thresholds hold non-finite values")
    if np.any(values[2] < 0):
        raise DataError("bundle thresholds hold a negative sigma")
    thresholds = ThresholdSet(
        alpha=alpha, thresholds=values[0], means=values[1], sigmas=values[2]
    )
    pipeline = Pipeline(
        kind=kind, use_mwes=use_mwes, lexicon=lexicon, tfidf=tfidf, svd=svd,
        thresholds=thresholds, scorer=scorer,
    )
    return pipeline, lexicon, manifest
