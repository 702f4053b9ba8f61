"""Corpus ingestion: tokenization, stopword removal, lemmatization, annotations.

The preprocessing pipeline turns raw UTF-8 text into a stream of
lowercase content-word lemmas:

    tokenize -> remove_stopwords -> lemmatize

All functions are pure and operate on immutable tokens, so documents can
be processed in parallel with no shared state.
"""

import re
from dataclasses import dataclass, replace
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


class MissingStopwordList(Exception):
    """Stopword resource could not be located."""


class MissingLemmaDictionary(Exception):
    """Lemma lookup table could not be located."""


class ParseError(Exception):
    """Malformed annotation row; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PositionMismatch(Exception):
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


def _data_path(name):
    return resources.files("sensewalk").joinpath("data", name)


def load_stopwords(path=None):
    """Load the stopword list (one lowercase word per line, ``#`` comments)."""
    try:
        if path is None:
            text = _data_path("stopwords.txt").read_text(encoding="utf-8")
        else:
            text = Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise MissingStopwordList(str(path or "bundled stopwords.txt")) from exc
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def load_lemma_table(path=None):
    """Load the ``surface<TAB>lemma`` lookup table."""
    try:
        if path is None:
            text = _data_path("lemmas.txt").read_text(encoding="utf-8")
        else:
            text = Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise MissingLemmaDictionary(str(path or "bundled lemmas.txt")) from exc
    table = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
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
            out.append(replace(tok, is_content=False, position=None))
        else:
            out.append(replace(tok, is_content=True, position=position))
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

    Iterates to a fixed point so the mapping is idempotent; unknown words
    that match no rule come back unchanged.
    """
    if table is None:
        table = load_lemma_table()
    current = word
    for _ in range(10):  # words only shrink; bound is a safety net
        if current in table:
            return table[current]
        stripped = _strip_suffix_once(current)
        if stripped == current:
            return current
        current = stripped
    return current


def lemmatize(tokens, table=None):
    """Set the lemma of every content token to its canonical form."""
    if table is None:
        table = load_lemma_table()
    out = []
    for tok in tokens:
        if tok.is_content:
            out.append(replace(tok, lemma=lemmatize_word(tok.lemma, table)))
        else:
            out.append(tok)
    return out


def preprocess_text(raw_text, stopwords=None, lemma_table=None):
    """Full pipeline over one text; returns the finished token list."""
    return lemmatize(remove_stopwords(tokenize(raw_text), stopwords), lemma_table)


def preprocess_document(doc_id, raw_text, stopwords=None, lemma_table=None):
    tokens = preprocess_text(raw_text, stopwords, lemma_table)
    return Document(id=doc_id, raw_text=raw_text, tokens=tuple(tokens))


def load_documents(directory, stopwords=None, lemma_table=None, suffix=".txt"):
    """Read every ``*.txt`` in a directory as one document, fully preprocessed.

    Document ids are the file stems; files are processed in sorted order so
    downstream occurrence numbering is deterministic.
    """
    if stopwords is None:
        stopwords = load_stopwords()
    if lemma_table is None:
        lemma_table = load_lemma_table()
    docs = {}
    for path in sorted(Path(directory).glob(f"*{suffix}")):
        text = path.read_text(encoding="utf-8")
        docs[path.stem] = preprocess_document(path.stem, text, stopwords, lemma_table)
    return docs


def load_annotations(path, documents=None, sense_inventory=AMBIGUOUS_SENSES):
    """Parse a TSV of ``document_id  position  word  sense_id`` rows.

    ``#``-prefixed lines are comments. When ``documents`` is given, each
    position must resolve to a content token whose lemma equals the
    annotated word. ``sense_inventory`` bounds sense ids for words it
    lists; words outside the inventory are accepted with any positive id.
    """
    annotations = []
    seen = set()
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
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
        if sense_inventory and word in sense_inventory and sense_id > sense_inventory[word]:
            raise ParseError(
                f"sense_id {sense_id} out of range for '{word}' "
                f"({sense_inventory[word]} senses)",
                line_no,
            )
        if (doc_id, position) in seen:
            raise ParseError(f"duplicate annotation for ({doc_id}, {position})", line_no)
        seen.add((doc_id, position))
        annotations.append(SenseAnnotation(doc_id, position, word, sense_id))
    if documents is not None:
        validate_annotations(annotations, documents)
    return annotations


def validate_annotations(annotations, documents):
    """Check that every annotation points at a matching content token."""
    lemmas_by_doc = {}
    for ann in annotations:
        if ann.document_id not in documents:
            raise PositionMismatch(f"unknown document '{ann.document_id}'")
        if ann.document_id not in lemmas_by_doc:
            lemmas_by_doc[ann.document_id] = documents[ann.document_id].content_lemmas()
        lemmas = lemmas_by_doc[ann.document_id]
        if ann.position >= len(lemmas):
            raise PositionMismatch(
                f"position {ann.position} beyond content stream of "
                f"'{ann.document_id}' (length {len(lemmas)})"
            )
        if lemmas[ann.position] != ann.word:
            raise PositionMismatch(
                f"lemma '{lemmas[ann.position]}' at {ann.document_id}:{ann.position} "
                f"does not match annotated word '{ann.word}'"
            )
