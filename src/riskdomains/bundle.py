"""Model bundle persistence: a directory of raw arrays plus manifest.json.

Array a lives in a.bin as raw little-endian 64-bit values, int for df,
term_keys and term_columns and float otherwise: exactly the array's memory,
in Fortran order for svd_components, as SvdProjection holds it, and C order
for the rest. words.txt holds the vocabulary's W words, one a line, in id
order. The manifest records each array's shape, the sha256 of every other
file, and manifest_sha256, the sha256 of its own canonical serialization
without that field. A save is one tofile per array; a load reads each file
once into its array, then hashes and checks those bytes, so nothing is read
twice or copied. Nothing in a bundle depends on wall time; retraining with
the same inputs, seed and BLAS thread count reproduces byte-identical files.

Hashing svd_components.bin is most of a load, so in formats 4 and 5 a
thread of its own checks those bytes (their sha256 and finiteness) block by
block as the load reads them; hashlib and numpy let it run beside the
interpreter. load_bundle joins it before it returns, so a bundle that loads
is fully checked. loading_bundle joins it at the end of a with block
instead, so that the block can start its work beside the check, such as
classify's first chunk; a failed check is the error the block ends with.

A bundle stores only what cannot be recomputed, and what classify reads:
the vocabulary as its key table (the words, each term's key and its
column), which a save derives once, so that a load derives nothing. The
stage types derive the idf, the thresholds and, on first read, the terms
and the term index. Format 1 to 4 bundles load through the same code, which
reads their vocabulary.txt instead and derives the key table from its terms
at the first classify. It ignores what they also stored (format 1's idf.bin
and thresholds.min, each array's file and dtype, vocabulary_file), so no
string from a manifest ever becomes a path. Formats 1 to 3 record no
hashes, so they load unchecked, and hold C order, so SvdProjection copies
their components once; format 4 has no manifest hash.

A scorer is stored field by field under its kind's SCORER_PREFIXES entry: an
array field f as <prefix>f.bin, a scalar as the manifest field <prefix>f.
Loading walks the same fields. The loader only reads: the stage types
(KeyTable, Vocabulary, TfidfModel, SvdProjection, the scorer, ThresholdSet,
Pipeline) check the shapes and values when they are built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import queue
import threading
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .classify import SCORER_TYPES, Pipeline, ThresholdSet
from .corpus import (
    KeywordLexicon, is_json_type, lexicon_from_json, lexicon_to_json, parse_errors,
    replaced, require_field,
)
from .domains import CLASSIFIED_DOMAINS
from .errors import ConfigError, DataError
from .vectorspace import KeyTable, SvdProjection, TfidfModel, Vocabulary

FORMAT_VERSION = 5
MANIFEST_NAME = "manifest.json"
WORDS_NAME = "words.txt"
VOCAB_NAME = "vocabulary.txt"  # the terms, in formats 1 to 4

# Arrays stored as <i8; every other array is <f8.
_INT_ARRAYS = frozenset({"df", "term_keys", "term_columns"})

SCORER_PREFIXES = {"cosine": "megadoc_", "mlp": "mlp_", "rbf": "rbf_"}

# Bytes of svd_components a load reads before it hands them to the thread
# that checks them. 256 KiB and 4 MiB blocks each made a 1x load about 2 ms
# slower than 1 MiB.
_READ_BLOCK = 2**20


def _array_file(directory: Path, name: str, version: int) -> tuple[Path, np.dtype, str]:
    """The file, dtype and memory order of array name in a bundle of version."""
    order = "F" if name == "svd_components" and version >= 4 else "C"
    dtype = np.dtype("<i8" if name in _INT_ARRAYS else "<f8")
    return directory / f"{name}.bin", dtype, order


def manifest_sha256(manifest: dict) -> str:
    """The sha256 of the manifest's canonical serialization, without its
    manifest_sha256 field. json.dumps writes every float so that it reads
    back exactly, so a rewrite that changes only whitespace or key order
    keeps the hash."""
    fields = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    canonical = json.dumps(fields, indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_sha256(path: Path, sha, recorded: str) -> None:
    """Raise unless sha, a hashlib sha256 of path's bytes, is recorded."""
    if sha.hexdigest() != recorded:
        raise DataError(f"{path}: bytes do not match the sha256 in the manifest")


def _write_array(directory: Path, name: str, array: np.ndarray) -> dict:
    path, dtype, order = _array_file(directory, name, FORMAT_VERSION)
    # The array's memory; ravel copies only an array not already in this order.
    flat = np.asarray(array, dtype=dtype).ravel(order)
    flat.tofile(path)
    return {"shape": list(np.shape(array)), "sha256": hashlib.sha256(flat).hexdigest()}


def _array_spec(
    directory: Path, arrays: dict, name: str, version: int
) -> tuple[Path, np.dtype, str, tuple[int, ...], str | None]:
    """The file, dtype, memory order and shape of array name, once its file
    is found to hold as many bytes as the shape arrays[name] records, and
    its recorded sha256, which formats before 4 lack."""
    where = f"bundle array {name!r}"
    spec = require_field(arrays, name, "bundle manifest arrays", dict)
    shape = tuple(require_field(spec, "shape", where, list))
    # No fit stores an empty array; one would label every paragraph Other.
    if not shape or not all(is_json_type(d, int) and d > 0 for d in shape):
        raise DataError(f"{where}: shape must be a non-empty list of positive integers")
    path, dtype, order = _array_file(directory, name, version)
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
    recorded = require_field(spec, "sha256", where, str) if version >= 4 else None
    return path, dtype, order, shape, recorded


def _read_array(directory: Path, arrays: dict, name: str, version: int) -> np.ndarray:
    """Array name, of the shape arrays[name] records, in its file's order."""
    path, dtype, order, shape, recorded = _array_spec(directory, arrays, name, version)
    flat = np.fromfile(path, dtype=dtype)
    if recorded is not None:  # older formats record no hashes
        _check_sha256(path, hashlib.sha256(flat), recorded)
    if dtype.kind == "f" and not np.isfinite(flat).all():
        raise DataError(f"bundle array {name!r} holds non-finite values")
    return flat.reshape(shape, order=order)


def _read_checking(
    directory: Path, arrays: dict, name: str, version: int
) -> tuple[np.ndarray, _CheckThread | None]:
    """Array name, as _read_array gives it but unchecked until the check
    ends, and in formats 4 and 5 the thread that checks it. The file is read
    in _READ_BLOCK blocks into memory allocated here, and the thread hashes
    each block and tests its finiteness once it is read, so that the check
    ends soon after the read, beside whatever the caller does next. Formats
    1 to 3 record no hash: their array is checked before it is returned,
    and there is no thread."""
    path, dtype, order, shape, recorded = _array_spec(directory, arrays, name, version)
    if recorded is None:
        return _read_array(directory, arrays, name, version), None
    flat = np.empty(math.prod(shape), dtype)
    step = _READ_BLOCK // dtype.itemsize
    # The thread's one temporary, allocated here so that it comes from this
    # thread's heap: a whole-array isfinite on the thread took 4 MiB from
    # that thread's heap and raised a classify run's peak memory by 6 MiB.
    finite = np.empty(min(flat.size, step), bool)
    blocks: queue.SimpleQueue = queue.SimpleQueue()

    def check() -> None:
        sha, all_finite = hashlib.sha256(), True
        while (item := blocks.get()) is not None:
            block, size = item
            sha.update(memoryview(block).cast("B")[:size])
            all_finite &= bool(np.isfinite(block, out=finite[: block.size]).all())
        _check_sha256(path, sha, recorded)  # first, as in _read_array
        if not all_finite:
            raise DataError(f"bundle array {name!r} holds non-finite values")

    checking = _CheckThread(check)
    try:
        with open(path, "rb") as f:
            for a in range(0, flat.size, step):
                block = flat[a : a + step]
                # A file cut short since its size was read hashes short.
                blocks.put((block, f.readinto(block)))
    except BaseException:
        blocks.put(None)
        checking.join()  # the read's error is the one raised
        raise
    blocks.put(None)
    return flat.reshape(shape, order=order), checking


class _CheckThread(threading.Thread):
    """A thread that runs a check; wait() joins it and raises what the
    check raised."""

    def __init__(self, check: typing.Callable[[], None]):
        super().__init__()
        self._check = check
        self._error: Exception | None = None
        self.start()

    def run(self) -> None:
        try:
            self._check()
        except Exception as e:  # for wait() to raise, whatever it is
            self._error = e

    def wait(self) -> None:
        self.join()
        if self._error is not None:
            raise self._error


def _read_vocabulary_lines(
    directory: Path, manifest: dict, where: str, version: int
) -> tuple[str, ...]:
    """The lines of the vocabulary file: the words of words.txt in format
    5, the terms of vocabulary.txt before. Its bytes are freed on return."""
    name, field = (
        (WORDS_NAME, "words_sha256") if version >= 5 else (VOCAB_NAME, "vocabulary_sha256")
    )
    path = directory / name
    if not path.is_file():
        raise DataError(f"bundle vocabulary file missing: {path}")
    raw = path.read_bytes()
    if version >= 4:
        recorded = require_field(manifest, field, where, str)
        _check_sha256(path, hashlib.sha256(raw), recorded)
    with parse_errors(path):
        return tuple(raw.decode("utf-8").splitlines())


def save_bundle(
    directory: str | Path, pipeline: Pipeline, training_info: dict | None = None
) -> Path:
    """Write a pipeline to a bundle directory, replacing an existing bundle.

    The manifest stores the pipeline's own lexicon, the one it fuses with.
    The bundle is written by corpus.replaced, so a failed save leaves an
    existing bundle as it was.
    """
    directory = Path(directory)
    # Derived before anything is written: a training vocabulary whose keys
    # would not fit in 64 bits fails here and leaves no directory behind.
    pipeline.tfidf.vocabulary.key_table
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
        "df": _write_array(directory, "df", tfidf.vocabulary.df),
        "svd_components": _write_array(directory, "svd_components", svd.components),
        "svd_singular_values": _write_array(
            directory, "svd_singular_values", svd.singular_values
        ),
    }
    key_table = tfidf.vocabulary.key_table
    words = ("\n".join(key_table.words) + "\n").encode("utf-8")
    (directory / WORDS_NAME).write_bytes(words)
    arrays["term_keys"] = _write_array(directory, "term_keys", key_table.keys)
    arrays["term_columns"] = _write_array(directory, "term_columns", key_table.columns)

    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "kind": pipeline.kind,
        "use_mwes": pipeline.use_mwes,
        "domain_order": [d.value for d in CLASSIFIED_DOMAINS],
        "corpus_size": tfidf.corpus_size,
        "lexicon": lexicon_to_json(pipeline.lexicon),
        "training": training_info,
        "words_sha256": hashlib.sha256(words).hexdigest(),
    }
    prefix = SCORER_PREFIXES[pipeline.kind]
    for f in dataclasses.fields(pipeline.scorer):
        name, value = prefix + f.name, getattr(pipeline.scorer, f.name)
        if isinstance(value, np.ndarray):
            arrays[name] = _write_array(directory, name, value)
        else:
            manifest[name] = value

    t = pipeline.thresholds
    manifest["thresholds"] = {
        "alpha": t.alpha,
        "mean": {d.value: t.means[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
        "sigma": {d.value: t.sigmas[i] for i, d in enumerate(CLASSIFIED_DOMAINS)},
    }
    manifest["arrays"] = arrays
    manifest["manifest_sha256"] = manifest_sha256(manifest)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_bundle(directory: str | Path) -> tuple[Pipeline, KeywordLexicon, dict]:
    """Load a bundle: returns the pipeline, its lexicon and the manifest.

    Every manifest field is read by corpus.require_field, with its JSON
    type; the stage types check shapes and values when they are built. A
    bundle whose manifest says use_mwes false fuses no keyphrases, whatever
    its stored lexicon holds. Manifest fields the reader does not use, such
    as mlp_dropout, rbf_dropout and those older formats stored, are ignored.
    Every check has passed when it returns.
    """
    with loading_bundle(directory) as loaded:
        pass
    return loaded


@contextmanager
def loading_bundle(
    directory: str | Path,
) -> typing.Iterator[tuple[Pipeline, KeywordLexicon, dict]]:
    """Load a bundle as load_bundle does, for a with block that runs while
    the check of svd_components (formats 4 and 5) may still run on a thread
    of its own. The block's end waits for that check, and a failed check is
    the error raised there, in place of any the block raised. So nothing the
    block computes from the components may leave it before the block ends
    without error: it must not be written, returned or saved from inside.
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
    if version not in range(1, FORMAT_VERSION + 1):
        raise DataError(
            f"bundle format version {version!r} not supported "
            f"(reader expects 1 to {FORMAT_VERSION})"
        )
    if version >= 5:
        recorded = require_field(manifest, "manifest_sha256", where, str)
        if manifest_sha256(manifest) != recorded:
            raise DataError(f"{where}: fields do not match its manifest_sha256")
    order = require_field(manifest, "domain_order", where)
    if order != [d.value for d in CLASSIFIED_DOMAINS]:
        raise DataError(
            "bundle domain order does not match this reader; refusing to "
            "misinterpret model outputs"
        )
    arrays = require_field(manifest, "arrays", where, dict)

    def arr(name: str) -> np.ndarray:
        return _read_array(directory, arrays, name, version)

    df = arr("df")
    # Hashing this file is most of a load: a thread checks it while this one
    # reads it, the rest of the bundle and what the block does.
    components, checking = _read_checking(directory, arrays, "svd_components", version)
    try:
        svd = SvdProjection(
            components=components, singular_values=arr("svd_singular_values")
        )
        # The vocabulary is read after svd_components: reading its small
        # arrays before that one raised the peak memory of repeated loads by
        # 23 MiB in 3 of 4 runs, by where the C heap placed them.
        lines = _read_vocabulary_lines(directory, manifest, where, version)
        if version >= 5:
            key_table = KeyTable(lines, arr("term_keys"), arr("term_columns"))
            vocabulary = Vocabulary.from_key_table(key_table, df)
        else:
            vocabulary = Vocabulary(lines, df)
        tfidf = TfidfModel(
            vocabulary=vocabulary,
            corpus_size=require_field(manifest, "corpus_size", where, int),
        )
        try:
            lexicon = lexicon_from_json(
                require_field(manifest, "lexicon", where), where
            )
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
        alpha = require_field(t, "alpha", t_where, float)
        thresholds = ThresholdSet(alpha, *per_domain)
        pipeline = Pipeline(
            kind=kind, use_mwes=use_mwes, lexicon=lexicon, tfidf=tfidf, svd=svd,
            thresholds=thresholds, scorer=scorer,
        )
        yield pipeline, lexicon, manifest
    except Exception:
        # A failed check is the error raised, as when it came first.
        if checking is not None:
            checking.wait()
        raise
    if checking is not None:
        checking.wait()
