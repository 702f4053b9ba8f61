"""Corpus ingestion: tokenization, stopword removal, lemmatization, annotations.

The preprocessing pipeline turns raw UTF-8 text into a stream of
lowercase content-word lemmas:

    tokenize -> remove_stopwords -> lemmatize

All functions are pure and operate on immutable tokens, so documents can
be processed in parallel with no shared state.

The stopword list, lemma table, annotation TSV and the CLI's ``--config``
files skip blank and ``#`` comment lines by one rule, ``_content_lines``.
Every line file the package writes, the CSVs aside, goes through one
writer beside it, ``_write_lines``.
Annotations are parsed (``load_annotations``), then checked against the
documents' content streams in a separate step (``validate_annotations``).
"""

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

# Word = run of letters/digits, with internal apostrophes kept so that
# contractions stay single tokens. Hyphenated words split on the hyphen;
# typographic apostrophes are folded onto the ASCII one.
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)

_VOWELS = "aeiou"

# Sense inventory for the ten ambiguous target words: word -> number of
# admissible sense ids (1-based).
AMBIGUOUS_SENSES = {
    "bear": 3,
    "jam": 2,
    "just": 3,
    "march": 2,
    "rock": 3,
    "ring": 2,
    "save": 2,
    "present": 2,
    "close": 2,
    "note": 2,
}


class MissingStopwordList(OSError):
    """Stopword resource could not be located."""


class MissingLemmaDictionary(OSError):
    """Lemma lookup table could not be located."""


class ParseError(ValueError):
    """Malformed annotation row; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PositionMismatch(ValueError):
    """Annotation does not resolve to a content token with the right lemma."""


@dataclass(frozen=True)
class Token:
    """One word token.

    ``position`` is the 0-based index within the document's content-word
    stream and is only set once stopwords have been flagged; ``offset``
    is the character offset of the surface form in the raw text.
    """

    surface: str
    lemma: str
    offset: int
    position: int | None = None
    is_content: bool = True


@dataclass(frozen=True)
class Document:
    id: str
    raw_text: str
    tokens: tuple[Token, ...]

    def content_lemmas(self):
        return [t.lemma for t in self.tokens if t.is_content]


@dataclass(frozen=True)
class SenseAnnotation:
    """A labelled occurrence of an ambiguous word.

    ``position`` indexes the document's content-word stream and must point
    at a token whose lemma equals ``word``.
    """

    document_id: str
    position: int
    word: str
    sense_id: int


def _read_resource(path, bundled, missing):
    """The text at ``path``, or of the bundled data file ``bundled`` when
    ``path`` is None; a read failure raises ``missing``."""
    try:
        if path is None:
            return (resources.files("sensewalk") / "data" / bundled).read_text(encoding="utf-8")
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise missing(str(path or f"bundled {bundled}")) from exc


def _content_lines(text):
    """``(line number, line)`` for each line of ``text`` that is neither
    blank nor a ``#`` comment; line numbers are 1-based, lines unstripped."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


def _write_lines(path, lines):
    """Write ``lines`` to ``path`` as UTF-8 text, each ending in a newline;
    no lines at all is one newline."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_stopwords(path=None):
    """Load the stopword list (one lowercase word per line)."""
    text = _read_resource(path, "stopwords.txt", MissingStopwordList)
    return frozenset(line.strip().lower() for _, line in _content_lines(text))


def load_lemma_table(path=None):
    """Load the ``surface<TAB>lemma`` lookup table."""
    text = _read_resource(path, "lemmas.txt", MissingLemmaDictionary)
    table = {}
    for i, line in _content_lines(text):
        parts = line.strip().split("\t")
        if len(parts) != 2:
            raise ValueError(f"lemma table line {i}: expected 2 tab-separated fields")
        table[parts[0].strip().lower()] = parts[1].strip().lower()
    return table


def tokenize(raw_text):
    """Split text into case-folded word tokens; punctuation is discarded.

    Tokens come back flagged as content with no position assigned yet;
    ``remove_stopwords`` finalizes both.
    """
    tokens = []
    for match in _WORD_RE.finditer(raw_text):
        surface = match.group(0).lower().replace("’", "'")
        tokens.append(Token(surface=surface, lemma=surface, offset=match.start()))
    return tokens


def remove_stopwords(tokens, stopwords=None):
    """Flag stopwords as non-content and number the surviving content tokens."""
    if stopwords is None:
        stopwords = load_stopwords()
    out = []
    position = 0
    for tok in tokens:
        if tok.surface in stopwords:
            out.append(Token(tok.surface, tok.lemma, tok.offset, None, False))
        else:
            out.append(Token(tok.surface, tok.lemma, tok.offset, position, True))
            position += 1
    return out


def _strip_suffix_once(word):
    """Apply the first matching suffix rule; returns the word unchanged if none fit."""
    if word.endswith("'s"):
        return word[:-2]
    if word.endswith("'"):
        return word[:-1]
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("es") and len(word) > 3 and word[:-2].endswith(("ss", "x", "z", "ch", "sh")):
        return word[:-2]
    if word.endswith("s") and len(word) > 3 and not word.endswith(("ss", "us", "is")):
        return word[:-1]
    if word.endswith("ed") and len(word) > 4 and word[-3] != "e":
        return _undouble(word[:-2])
    if word.endswith("ing") and len(word) > 5:
        return _undouble(word[:-3])
    return word


def _undouble(stem):
    # collapse doubled final consonants from -ed/-ing stripping (stopped -> stop),
    # but keep ll/ss/zz and doubled vowels (fall, pass, buzz, see)
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS and stem[-1] not in "lsz":
        return stem[:-1]
    return stem


def lemmatize_word(word, table=None):
    """Canonical form of one lowercase word: table lookup, then suffix rules.

    Iterates to a fixed point so the mapping is idempotent; every suffix
    rule shortens the word, so the loop ends. Unknown words that match no
    rule come back unchanged.
    """
    if table is None:
        table = load_lemma_table()
    current = word
    while current not in table:
        stripped = _strip_suffix_once(current)
        if stripped == current:
            return current
        current = stripped
    return table[current]


def lemmatize(tokens, table=None):
    """Set the lemma of every content token to its canonical form, looking
    each distinct word up once."""
    if table is None:
        table = load_lemma_table()
    lemmas = {}
    out = []
    for tok in tokens:
        if tok.is_content:
            lemma = lemmas.get(tok.lemma)
            if lemma is None:
                lemma = lemmas[tok.lemma] = lemmatize_word(tok.lemma, table)
            out.append(Token(tok.surface, lemma, tok.offset, tok.position, True))
        else:
            out.append(tok)
    return out


def preprocess_text(raw_text, stopwords=None, lemma_table=None):
    """Full pipeline over one text; returns the finished token list."""
    return lemmatize(remove_stopwords(tokenize(raw_text), stopwords), lemma_table)


def preprocess_document(doc_id, raw_text, stopwords=None, lemma_table=None):
    tokens = preprocess_text(raw_text, stopwords, lemma_table)
    return Document(id=doc_id, raw_text=raw_text, tokens=tuple(tokens))


def load_documents(directory, stopwords=None, lemma_table=None):
    """Read every ``*.txt`` in a directory as one document, fully preprocessed.

    Document ids are the file stems; files are processed in sorted order so
    downstream occurrence numbering is deterministic.
    """
    if stopwords is None:
        stopwords = load_stopwords()
    if lemma_table is None:
        lemma_table = load_lemma_table()
    docs = {}
    for path in sorted(Path(directory).glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        docs[path.stem] = preprocess_document(path.stem, text, stopwords, lemma_table)
    return docs


def load_annotations(path):
    """Parse a TSV of ``document_id  position  word  sense_id`` rows.

    Sense ids are bounded for the words of ``AMBIGUOUS_SENSES``; words
    outside it are accepted with any positive id. Positions are checked
    against the documents in a separate step, by ``validate_annotations``.
    """
    annotations = []
    seen = set()
    for line_no, line in _content_lines(Path(path).read_text(encoding="utf-8")):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", line_no)
        doc_id, pos_s, word, sense_s = (p.strip() for p in parts)
        try:
            position = int(pos_s)
            sense_id = int(sense_s)
        except ValueError:
            raise ParseError("position and sense_id must be integers", line_no) from None
        if position < 0:
            raise ParseError(f"negative position {position}", line_no)
        if sense_id < 1:
            raise ParseError(f"sense_id must be >= 1, got {sense_id}", line_no)
        word = word.lower()
        if word in AMBIGUOUS_SENSES and sense_id > AMBIGUOUS_SENSES[word]:
            raise ParseError(
                f"sense_id {sense_id} out of range for '{word}' "
                f"({AMBIGUOUS_SENSES[word]} senses)",
                line_no,
            )
        if (doc_id, position) in seen:
            raise ParseError(f"duplicate annotation for ({doc_id}, {position})", line_no)
        seen.add((doc_id, position))
        annotations.append(SenseAnnotation(doc_id, position, word, sense_id))
    return annotations


def document_stream(token_streams, document_id):
    """The content lemmas of ``document_id`` in ``token_streams``; an
    unknown document is a ``PositionMismatch``."""
    lemmas = token_streams.get(document_id)
    if lemmas is None:
        raise PositionMismatch(f"unknown document '{document_id}'")
    return lemmas


def validate_annotations(annotations, token_streams):
    """Check that every annotation points at a matching content token of
    ``token_streams`` (document id -> content lemmas)."""
    for ann in annotations:
        lemmas = document_stream(token_streams, ann.document_id)
        if not 0 <= ann.position < len(lemmas):
            raise PositionMismatch(
                f"position {ann.position} outside the content stream of "
                f"'{ann.document_id}' (length {len(lemmas)})"
            )
        if lemmas[ann.position] != ann.word:
            raise PositionMismatch(
                f"lemma '{lemmas[ann.position]}' at {ann.document_id}:{ann.position} "
                f"does not match annotated word '{ann.word}'"
            )
