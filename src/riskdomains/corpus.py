"""Paragraph corpora, the clinician lexicon, weak labeling and megadocuments.

A megadocument is the Counter sum of one domain's weakly labeled paragraph
term multisets.

Also houses the deterministic synthetic corpus generator that stands in for
the restricted clinical data at desk scale, and the JSON-lines file formats
shared by the CLI:

  paragraphs:  one object per line, fields id, text, source
  gold:        one object per line, fields id, labels (ordered domain names)
  lexicon:     a JSON object mapping domain name -> {keywords, keyphrases},
               keyphrases as two or more space-separated words

parse_errors gives every JSON file reader the same DataError for bytes that
are not UTF-8, text that is not JSON and nesting too deep to parse.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import random

from .domains import CLASSIFIED_DOMAINS, Domain, domain_from_name
from .errors import ConfigError, DataError, RiskDomainsError
from .textnorm import phrase_table, tokenize


@dataclass(frozen=True)
class Paragraph:
    id: str
    text: str
    source: str = "training"

    def __post_init__(self):
        if not self.text:
            raise DataError(f"paragraph {self.id!r} has empty text")


@dataclass(frozen=True)
class AnnotatedParagraph:
    """A paragraph with its ordered gold domain labels."""

    paragraph: Paragraph
    labels: tuple[Domain, ...]

    def __post_init__(self):
        validate_labels(self.paragraph.id, self.labels)


def validate_labels(where: str, labels: tuple[Domain, ...]) -> None:
    """Check a label list; where (a file position or an id) prefixes errors."""
    if not labels:
        raise DataError(f"{where}: label list is empty")
    names = ", ".join(map(str, labels))
    if len(set(labels)) != len(labels):
        raise DataError(f"{where}: duplicate labels in [{names}]")
    if Domain.OTHER in labels and len(labels) > 1:
        raise DataError(f"{where}: Other must be the sole label, got [{names}]")


class KeywordLexicon:
    """Per-domain keywords (single words) and keyphrases (tuples of 2+ words).

    Its tables are built here, once: fusion is the phrase table fuse_mwes
    reads, hit_table maps each keyword (as a 1-tuple) and keyphrase to the
    domains that list it, and hit_lengths holds the sorted entry lengths.
    Nothing changes a lexicon once it is built.
    """

    def __init__(self, entries: dict[Domain, tuple[list[str], list[tuple[str, ...]]]]):
        self.keywords: dict[Domain, list[str]] = {}
        self.keyphrases: dict[Domain, list[tuple[str, ...]]] = {}
        self.hit_table: dict[tuple[str, ...], list[Domain]] = {}
        for domain in CLASSIFIED_DOMAINS:
            kws, phrases = entries.get(domain, ([], []))
            for p in phrases:
                if len(p) < 2:
                    raise ConfigError(
                        f"keyphrase {' '.join(p)!r} of {domain} has fewer than 2 words"
                    )
            # A word that is not one word of tokenize's output can never match.
            for w in [*kws, *(w for p in phrases for w in p)]:
                if tokenize(w) != [w]:
                    raise ConfigError(
                        f"lexicon word {w!r} of {domain} is not a run of letters a-z"
                    )
            if len(set(kws)) != len(kws):
                raise ConfigError(f"duplicate keywords for {domain}")
            if len(set(phrases)) != len(phrases):
                raise ConfigError(f"duplicate keyphrases for {domain}")
            self.keywords[domain] = list(kws)
            self.keyphrases[domain] = list(phrases)
            for words in [(w,) for w in kws] + self.keyphrases[domain]:
                self.hit_table.setdefault(words, []).append(domain)
        self.hit_lengths = sorted({len(t) for t in self.hit_table})
        self.fusion = phrase_table(p for ps in self.keyphrases.values() for p in ps)

    def require_nonempty(self) -> None:
        for domain in CLASSIFIED_DOMAINS:
            if not self.keywords[domain] and not self.keyphrases[domain]:
                raise ConfigError(f"lexicon has no entries for domain {domain}")

    def without_keyphrases(self) -> "KeywordLexicon":
        """Keyword-only copy, used by the MWE ablation arm."""
        return KeywordLexicon(
            {d: (list(self.keywords[d]), []) for d in CLASSIFIED_DOMAINS}
        )


@dataclass
class TrainingCorpus:
    """Weakly-labeled paragraphs; each carries exactly one non-Other domain."""

    entries: list[tuple[Paragraph, Domain]]

    def __len__(self) -> int:
        return len(self.entries)


def _scan_hits(
    words: list[str], table: dict[tuple[str, ...], list[Domain]], lengths: list[int]
) -> dict[Domain, int]:
    """Occurrences per domain of the table's entries, in one left-to-right scan.

    lengths is the sorted set of entry lengths. Each entry counts its own
    non-overlapping occurrences: next_free holds the first index where it
    may match again. Different entries may overlap.
    """
    hits = dict.fromkeys(CLASSIFIED_DOMAINS, 0)
    next_free: dict[tuple[str, ...], int] = {}
    n = len(words)
    for i in range(n):
        for m in lengths:
            if i + m > n:
                break
            candidate = tuple(words[i : i + m])
            domains = table.get(candidate)
            if domains is not None and i >= next_free.get(candidate, 0):
                next_free[candidate] = i + m
                for domain in domains:
                    hits[domain] += 1
    return hits


def lexicon_hits(words: list[str], lexicon: KeywordLexicon) -> dict[Domain, int]:
    """Keyword plus keyphrase occurrence counts per domain, pre-stemming."""
    return _scan_hits(words, lexicon.hit_table, lexicon.hit_lengths)


def weak_label(paragraphs: list[Paragraph], lexicon: KeywordLexicon) -> TrainingCorpus:
    """Assign each paragraph to the domain with the unique largest hit count.

    Paragraphs with no hits, or with a tie at the top, are excluded. The
    decision is per paragraph, so the result is order-invariant.
    """
    lexicon.require_nonempty()
    entries: list[tuple[Paragraph, Domain]] = []
    for paragraph in paragraphs:
        hits = lexicon_hits(tokenize(paragraph.text), lexicon)
        best = max(hits.values())
        if best == 0:
            continue
        winners = [d for d in CLASSIFIED_DOMAINS if hits[d] == best]
        if len(winners) != 1:
            continue
        entries.append((paragraph, winners[0]))
    return TrainingCorpus(entries)


def build_megadocuments(
    corpus: TrainingCorpus, term_docs: list[Counter]
) -> dict[Domain, Counter]:
    """Sum each domain's paragraph term multisets into one megadocument.

    term_docs[i] holds the terms of corpus.entries[i].
    """
    out = {d: Counter() for d in CLASSIFIED_DOMAINS}
    for (_, domain), terms in zip(corpus.entries, term_docs, strict=True):
        out[domain].update(terms)
    for domain, terms in out.items():
        if not terms:
            raise DataError(f"no training paragraphs for domain {domain}")
    return out


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

# Lexicon keywords per domain pool, words per paragraph (noise included), and
# the share of single-label paragraphs whose signal only phrases carry.
N_KEYWORDS = 6
MIN_WORDS = 16
MAX_WORDS = 26
MWE_RICH_FRACTION = 0.5


@dataclass
class SyntheticConfig:
    """Vocabulary pools and counts for the deterministic synthetic corpus.

    domain_words holds the full per-domain pool; the first N_KEYWORDS of
    each pool form the lexicon keywords, the rest are non-keyword content
    words. Phrase constituents must come from the shared noise pool so that
    fusing them is genuinely informative.
    """

    domain_words: dict[Domain, tuple[str, ...]]
    domain_phrases: dict[Domain, tuple[tuple[str, ...], ...]]
    noise_words: tuple[str, ...]
    paragraphs_per_domain: int = 200
    multilabel_per_domain: int = 30
    other_paragraphs: int = 100

    def validate(self) -> None:
        if self.paragraphs_per_domain < 1:
            raise ConfigError("paragraphs_per_domain must be >= 1")
        if not (0 <= self.multilabel_per_domain <= self.paragraphs_per_domain):
            raise ConfigError("multilabel_per_domain out of range")
        if self.other_paragraphs < 0:
            raise ConfigError("other_paragraphs must be >= 0")
        if not self.noise_words:
            raise ConfigError("noise pool is empty")
        noise = set(self.noise_words)
        seen: dict[str, Domain] = {}
        for domain in CLASSIFIED_DOMAINS:
            pool = self.domain_words.get(domain, ())
            if not pool:
                raise ConfigError(f"empty word pool for domain {domain}")
            if len(pool) < N_KEYWORDS:
                raise ConfigError(f"pool for {domain} smaller than {N_KEYWORDS} words")
            for w in pool:
                if w in noise:
                    raise ConfigError(f"{w!r} is in both {domain} pool and noise pool")
                if w in seen:
                    raise ConfigError(f"{w!r} is in both {seen[w]} and {domain} pools")
                seen[w] = domain
            for phrase in self.domain_phrases.get(domain, ()):
                if len(phrase) < 2:
                    raise ConfigError(f"phrase too short: {phrase}")
                for w in phrase:
                    if w not in noise:
                        raise ConfigError(
                            f"phrase word {w!r} of {domain} not in noise pool"
                        )

    def keywords(self, domain: Domain) -> tuple[str, ...]:
        return self.domain_words[domain][:N_KEYWORDS]

    def extras(self, domain: Domain) -> tuple[str, ...]:
        return self.domain_words[domain][N_KEYWORDS:]

    def lexicon(self) -> KeywordLexicon:
        return KeywordLexicon({
            d: (list(self.keywords(d)), list(self.domain_phrases[d]))
            for d in CLASSIFIED_DOMAINS
        })


_DEFAULT_POOLS: dict[Domain, tuple[str, ...]] = {
    Domain.APPEARANCE: (
        "disheveled", "groomed", "unkempt", "hygiene", "attire", "gaunt",
        "slender", "posture", "mannerisms", "makeup", "tattoos", "grooming",
    ),
    Domain.THOUGHT_CONTENT: (
        "delusion", "hallucination", "paranoid", "obsession", "suicidal",
        "grandiose", "ideation", "phobia", "intrusive", "persecutory",
        "nihilistic", "delusional",
    ),
    Domain.INTERPERSONAL: (
        "boyfriend", "girlfriend", "roommate", "peers", "sibling", "marriage",
        "friendship", "parents", "divorce", "stepfather", "coworkers", "breakup",
    ),
    Domain.MOOD: (
        "anxious", "depressed", "euthymic", "irritable", "labile", "dysphoric",
        "tearful", "elated", "hopeless", "despondent", "cheerful", "apathetic",
    ),
    Domain.OCCUPATION: (
        "job", "school", "employment", "homework", "workplace", "semester",
        "internship", "coursework", "salary", "supervisor", "tuition", "career",
    ),
    Domain.THOUGHT_PROCESS: (
        "tangential", "circumstantial", "perseverative", "incoherent",
        "disorganized", "derailment", "coherent", "blocking", "linear",
        "loosening", "racing", "logical",
    ),
    Domain.SUBSTANCE: (
        "marijuana", "cocaine", "alcohol", "heroin", "opioid", "intoxicated",
        "cannabis", "sobriety", "relapse", "withdrawal", "benzodiazepine",
        "stimulant",
    ),
}

_DEFAULT_PHRASES: dict[Domain, tuple[tuple[str, ...], ...]] = {
    Domain.APPEARANCE: (("eye", "contact"), ("put", "together"), ("self", "care")),
    Domain.THOUGHT_CONTENT: (
        ("hearing", "things"),
        ("body", "image"),
        ("special", "powers"),
    ),
    Domain.INTERPERSONAL: (
        ("support", "system"),
        ("living", "situation"),
        ("social", "circle"),
    ),
    Domain.MOOD: (("really", "great"), ("feeling", "down"), ("low", "spirits")),
    Domain.OCCUPATION: (("work", "performance"), ("day", "program"), ("time", "off")),
    Domain.THOUGHT_PROCESS: (
        ("goal", "directed"),
        ("word", "salad"),
        ("train", "of", "thought"),
    ),
    Domain.SUBSTANCE: (("heavy", "use"), ("hard", "stuff"), ("getting", "high")),
}

_PHRASE_CONSTITUENTS = tuple(
    sorted({w for phrases in _DEFAULT_PHRASES.values() for p in phrases for w in p})
)

_DEFAULT_NOISE = _PHRASE_CONSTITUENTS + (
    "patient", "reports", "states", "denies", "today", "visit", "session",
    "week", "month", "plan", "continues", "remains", "appears", "noted",
    "discussed", "reviewed", "follow", "clinic", "morning", "afternoon",
    "meeting", "spoke", "arrived", "scheduled", "returned", "described",
    "mentioned", "overall", "recent", "ongoing", "stable", "unchanged",
    "baseline", "status", "progress", "intake", "routine", "further",
    "current", "previous", "record", "note", "assessment", "interview",
    "team", "staff", "provider", "clinician", "hospital", "unit", "group",
    "history", "pattern", "level", "concern", "since", "during", "again",
    "also", "often",
)


def default_synthetic_config(
    paragraphs_per_domain: int = 200,
    multilabel_per_domain: int = 30,
    other_paragraphs: int = 100,
) -> SyntheticConfig:
    return SyntheticConfig(
        domain_words=dict(_DEFAULT_POOLS),
        domain_phrases=dict(_DEFAULT_PHRASES),
        noise_words=_DEFAULT_NOISE,
        paragraphs_per_domain=paragraphs_per_domain,
        multilabel_per_domain=multilabel_per_domain,
        other_paragraphs=other_paragraphs,
    )


def _to_text(words: list[str], rng: random.Random) -> str:
    """Join words into sentence-like chunks; punctuation is cosmetic only."""
    sentences = []
    i = 0
    while i < len(words):
        n = rng.randint(6, 12)
        chunk = words[i : i + n]
        i += n
        sentences.append(" ".join(chunk).capitalize() + ".")
    return " ".join(sentences)


def _assemble(
    units: list[tuple[str, ...]],
    total_words: int,
    rng: random.Random,
    config: SyntheticConfig,
    allowed: set[Domain],
) -> list[str]:
    """Shuffle content units into noise filler, rejecting accidental phrases."""
    foreign = {
        tuple(phrase): [domain]
        for domain in CLASSIFIED_DOMAINS
        if domain not in allowed
        for phrase in config.domain_phrases.get(domain, ())
    }
    lengths = sorted({len(t) for t in foreign})
    for _ in range(100):
        content_len = sum(len(u) for u in units)
        n_noise = max(0, total_words - content_len)
        parts = list(units) + [(rng.choice(config.noise_words),) for _ in range(n_noise)]
        rng.shuffle(parts)
        words = [w for unit in parts for w in unit]
        if not any(_scan_hits(words, foreign, lengths).values()):
            return words
    raise ConfigError(
        "could not assemble a paragraph without accidental foreign phrases; "
        "noise pool is too small relative to the phrase inventory"
    )


def generate_synthetic_corpus(
    config: SyntheticConfig, seed: int
) -> tuple[list[Paragraph], list[AnnotatedParagraph], KeywordLexicon]:
    """Deterministic synthetic paragraphs, gold labels, and the lexicon.

    Primary-label counts match the config exactly: paragraphs_per_domain
    paragraphs per domain (of which multilabel_per_domain carry a second
    domain), plus other_paragraphs of pure noise labeled Other. Roughly
    MWE_RICH_FRACTION of the single-label paragraphs carry their domain
    signal through MWE phrases built from noise-pool words.
    """
    config.validate()
    rng = random.Random(seed)
    paragraphs: list[Paragraph] = []
    gold: list[AnnotatedParagraph] = []
    serial = 0

    def emit(words: list[str], labels: tuple[Domain, ...]) -> None:
        nonlocal serial
        paragraph = Paragraph(
            id=f"syn-{serial:05d}", text=_to_text(words, rng), source="synthetic"
        )
        paragraphs.append(paragraph)
        gold.append(AnnotatedParagraph(paragraph=paragraph, labels=labels))
        serial += 1

    for di, domain in enumerate(CLASSIFIED_DOMAINS):
        keywords = config.keywords(domain)
        extras = config.extras(domain) or keywords
        phrases = config.domain_phrases[domain]
        for i in range(config.paragraphs_per_domain):
            total = rng.randint(MIN_WORDS, MAX_WORDS)
            if i < config.multilabel_per_domain:
                other = CLASSIFIED_DOMAINS[
                    (di + 1 + i % (len(CLASSIFIED_DOMAINS) - 1)) % len(CLASSIFIED_DOMAINS)
                ]
                chosen = rng.sample(keywords, 3)
                units = [(w,) for w in chosen] + [(chosen[0],)]
                units.append((rng.choice(config.domain_words[domain]),))
                units.append(rng.choice(phrases))
                units.append((rng.choice(config.keywords(other)),))
                units.append(rng.choice(config.domain_phrases[other]))
                words = _assemble(units, total, rng, config, {domain, other})
                emit(words, (domain, other))
            elif rng.random() < MWE_RICH_FRACTION:
                # MWE-rich: no lexicon keywords at all; the label is only
                # recoverable through the phrases (plus a few pool words).
                chosen = list(phrases) if len(phrases) <= 2 else rng.sample(phrases, 2)
                units = [tuple(p) for p in chosen]
                units.append(tuple(rng.choice(chosen)))
                picked = rng.sample(extras, min(2, len(extras)))
                units += [(w,) for w in picked] + [(picked[0],)]
                words = _assemble(units, total, rng, config, {domain})
                emit(words, (domain,))
            else:
                chosen = rng.sample(keywords, 4)
                units = [(w,) for w in chosen] + [(w,) for w in chosen[:2]]
                units += [(rng.choice(config.domain_words[domain]),) for _ in range(2)]
                if rng.random() < 0.3:
                    units.append(rng.choice(phrases))
                words = _assemble(units, total, rng, config, {domain})
                emit(words, (domain,))

    for _ in range(config.other_paragraphs):
        total = rng.randint(MIN_WORDS, MAX_WORDS)
        words = _assemble([], total, rng, config, set())
        emit(words, (Domain.OTHER,))

    return paragraphs, gold, config.lexicon()


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write a JSON-lines file: each record, a JSON object, on its own line."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(record) + "\n" for record in records)


def write_paragraphs(path: str | Path, paragraphs: list[Paragraph]) -> None:
    records = ({"id": p.id, "text": p.text, "source": p.source} for p in paragraphs)
    write_records(path, records)


def iter_paragraphs(path: str | Path):
    """Yield the paragraphs of a paragraphs file, checking each as it is read."""
    for where, pid, obj in read_records(path):
        text = require_field(obj, "text", where, str)
        if not text:
            raise DataError(f"{where}: field 'text' is empty")
        source = (
            require_field(obj, "source", where, str) if "source" in obj else "training"
        )
        yield Paragraph(id=pid, text=text, source=source)


def load_paragraphs(path: str | Path) -> list[Paragraph]:
    return list(iter_paragraphs(path))


def write_gold(path: str | Path, gold: list[AnnotatedParagraph]) -> None:
    write_records(path, (
        {"id": g.paragraph.id, "labels": [d.value for d in g.labels]} for g in gold
    ))


def parse_labels(raw, where: str) -> tuple[Domain, ...]:
    """Domains of a JSON list of domain names; where prefixes every error."""
    if not isinstance(raw, list) or not all(isinstance(n, str) for n in raw):
        raise DataError(f"{where}: labels must be a list of domain names")
    try:
        return tuple(domain_from_name(name) for name in raw)
    except DataError as e:
        raise DataError(f"{where}: {e}") from e


def load_gold(path: str | Path) -> dict[str, list[Domain]]:
    """Ordered labels by id, from any {id, labels} file: gold or predictions."""
    gold: dict[str, list[Domain]] = {}
    for where, pid, obj in read_records(path):
        labels = parse_labels(require_field(obj, "labels", where), where)
        validate_labels(where, labels)
        gold[pid] = list(labels)
    return gold


def lexicon_to_json(lexicon: KeywordLexicon) -> dict:
    return {
        d.value: {
            "keywords": lexicon.keywords[d],
            "keyphrases": [" ".join(p) for p in lexicon.keyphrases[d]],
        }
        for d in CLASSIFIED_DOMAINS
    }


def lexicon_from_json(obj, source: str | Path) -> KeywordLexicon:
    """Parse a lexicon JSON object; source names its origin in errors."""
    if not isinstance(obj, dict):
        raise DataError(f"{source}: lexicon must be a JSON object")
    entries: dict[Domain, tuple[list[str], list[tuple[str, ...]]]] = {}
    for name, spec in obj.items():
        try:
            domain = domain_from_name(name)
        except DataError as e:
            raise DataError(f"{source}: {e}") from e
        if domain is Domain.OTHER:
            raise DataError(f"{source}: lexicon must not define entries for Other")
        if not isinstance(spec, dict):
            raise DataError(f"{source}: lexicon entry {name} must be an object")
        keywords = spec.get("keywords", [])
        keyphrases = spec.get("keyphrases", [])
        for strings in (keywords, keyphrases):
            if not isinstance(strings, list) or not all(
                isinstance(w, str) for w in strings
            ):
                raise DataError(
                    f"{source}: keywords and keyphrases of {name} must be string lists"
                )
        entries[domain] = (keywords, [tuple(s.split()) for s in keyphrases])
    return KeywordLexicon(entries)


def write_lexicon(path: str | Path, lexicon: KeywordLexicon) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(lexicon_to_json(lexicon), f, indent=2)
        f.write("\n")


def load_lexicon(path: str | Path) -> KeywordLexicon:
    try:
        with open(path, encoding="utf-8") as f, parse_errors(path):
            obj = json.load(f)
    except FileNotFoundError:
        raise DataError(f"lexicon file not found: {path}")
    return lexicon_from_json(obj, path)


_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    list: "a list", dict: "an object",
}


def is_json_type(value, expected: type) -> bool:
    """A bool is no int, and an int is accepted where a float is expected."""
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def require_field(obj: dict, key: str, where: str, expected: type | None = None):
    """obj[key], which must exist and, given expected, be of that JSON type.

    Nothing is converted, except that an int read as a float is returned as
    one. Errors are DataErrors prefixed by where and do not echo the value,
    which may be clinical text.
    """
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    value = obj[key]
    if expected is None:
        return value
    if not is_json_type(value, expected):
        raise DataError(f"{where}: field {key!r} must be {_TYPE_NAMES[expected]}")
    return float(value) if expected is float else value


@contextmanager
def parse_errors(where, error: type[RiskDomainsError] = DataError):
    """Raise error, naming where, for text in the block that is not UTF-8 or
    not JSON, or JSON nested deeper than the parser goes."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise error(f"{where}: invalid UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise error(f"{where}: invalid JSON: {e}") from None
    except RecursionError:
        raise error(f"{where}: JSON nested too deeply") from None


def read_records(path: str | Path):
    """Yield (where, id, record) for each record of a JSON-lines file.

    where is "path:line". Every record is a JSON object whose id is a JSON
    string or integer, and no two records share an id. Each line is decoded
    on its own, so a line that is not UTF-8 is a DataError naming it; the
    records before it have been yielded by then.
    """
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    seen: set[str] = set()
    with f:
        for lineno, raw_line in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            with parse_errors(where):
                line = raw_line.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            if not isinstance(obj, dict):
                raise DataError(f"{where}: record must be a JSON object")
            raw = require_field(obj, "id", where)
            if not (is_json_type(raw, str) or is_json_type(raw, int)):
                raise DataError(f"{where}: field 'id' must be a string or an integer")
            pid = str(raw)
            if pid in seen:
                raise DataError(f"{where}: duplicate id {pid!r}")
            seen.add(pid)
            yield where, pid, obj


@contextmanager
def replaced(path: Path):
    """Yield a path in a new sibling directory; rename it to path on success.

    The caller makes the file or directory there itself, so it gets normal
    permissions, not mkdtemp's private ones. A failure leaves path as it was
    and nothing beside it. A staged directory moves an existing one aside; a
    staged file replaces a file, never a directory.
    """
    try:
        scratch = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None
    try:
        staged = scratch / "new"
        yield staged
        if staged.is_dir() and path.is_dir():
            path.rename(scratch / "old")
        staged.replace(path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
