"""Token attribute predicates — the engine's version of the reference's
custom spaCy token extensions and filter attributes
(``spacy_tokenizer.py:31-98,132-146``: is_hashtag / is_username / is_emoji /
is_symbol / is_datetime / is_measure / is_space plus the native
is_punct / is_currency / like_num / like_url / like_email / is_stop),
implemented without spaCy or the emoji package (unicode-range emoji
detection)."""

from __future__ import annotations

import re
import unicodedata
from typing import Dict, Set

# reference spacy_tokenizer.py:51-53
DATETIME_RE = re.compile(
    r"(:|-|\.|/|am|pm|hrs|hr|h|minutes|mins|min|sec|s|ms|ns|y)+", re.IGNORECASE
)
# reference spacy_tokenizer.py:61-69
NUMERIC_SEPARATOR_RE = re.compile(r"[.,]")
ALL_UNITS = (
    {"eme", "th", "st", "nd", "rd", "k"}
    | {"mg", "g", "kg", "t", "lb", "oz"}
    | {"mm", "cm", "m", "km", "in", "ft", "yd", "mi", "kmh", "mph"}
    | {"ml", "dl", "l", "pt", "qt", "gal"}
    | {"k", "a", "v", "mol", "cd", "w", "n", "c"}
)
URL_RE = re.compile(r"^(?:https?://|www\.)\S+$|^\S+\.(?:com|org|net|io|edu|gov)(?:/\S*)?$", re.IGNORECASE)
EMAIL_RE = re.compile(r"^[\w.+-]+@[\w-]+\.[\w.-]+$")
LIKE_NUM_RE = re.compile(r"^[+-]?(?:\d+(?:[.,]\d+)*|\d*\.\d+)(?:/\d+)?$")

_NUM_WORDS = {
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty", "thirty",
    "forty", "fifty", "sixty", "seventy", "eighty", "ninety", "hundred",
    "thousand", "million", "billion", "trillion",
}


def is_space(text: str) -> bool:
    return bool(text) and all(
        c.isspace() or not c.isprintable() or unicodedata.category(c) in ("Cf", "Zs")
        for c in text
    )


def is_punct(text: str) -> bool:
    return bool(text) and all(unicodedata.category(c).startswith("P") for c in text)


def is_currency(text: str) -> bool:
    return bool(text) and all(unicodedata.category(c) == "Sc" for c in text)


def is_hashtag(text: str) -> bool:
    return bool(text) and text[0] == "#"


def is_username(text: str) -> bool:
    return bool(text) and text[0] == "@"


def is_emoji(text: str) -> bool:
    """Any char in the emoji blocks (incl. modifiers/ZWJ sequences)."""
    for c in text:
        o = ord(c)
        if (
            0x1F300 <= o <= 0x1FAFF  # misc symbols+pictographs .. symbols ext-A
            or 0x1F000 <= o <= 0x1F2FF  # mahjong/dominoes/enclosed
            or 0x2600 <= o <= 0x27BF  # misc symbols / dingbats
            or 0xFE0E <= o <= 0xFE0F  # variation selectors
            or o == 0x200D  # ZWJ
            or 0x1F1E6 <= o <= 0x1F1FF  # regional indicators
            or o in (0x2B50, 0x2B55, 0x203C, 0x2049)
        ):
            return True
    return False


def is_symbol(text: str) -> bool:
    """Marks/symbols only, excluding punctuation/currency/emoji
    (reference spacy_tokenizer.py:40-50)."""
    if not text or is_punct(text) or is_currency(text) or is_emoji(text):
        return False
    stripped = "".join(
        c for c in text if not unicodedata.category(c)[0] in ("M", "S")
    ).strip()
    return not stripped


def like_num(text: str) -> bool:
    t = text.replace(",", "").replace(".", "", 1)
    if t.lstrip("+-").isdigit():
        return True
    if LIKE_NUM_RE.match(text):
        return True
    return text.lower() in _NUM_WORDS


def is_datetime(text: str) -> bool:
    """Digit-led token that reduces to digits after removing time/date
    separators and units (reference spacy_tokenizer.py:54-60)."""
    return (
        not like_num(text)
        and text[:1].isdigit()
        and DATETIME_RE.sub("", text).isdigit()
    )


def is_measure(text: str) -> bool:
    """Digit-led quantity with a unit suffix (reference :70-84)."""
    if like_num(text) or is_datetime(text) or not text[:1].isdigit():
        return False
    lowered = NUMERIC_SEPARATOR_RE.sub("", text.lower())
    return any(lowered.replace(unit, "").isdigit() for unit in ALL_UNITS)


def like_url(text: str) -> bool:
    return bool(URL_RE.match(text))


def like_email(text: str) -> bool:
    return bool(EMAIL_RE.match(text))


# attribute name -> predicate; mirrors DEFAULT_FILTER_TOKEN_ATTRIBUTES
# (spacy_tokenizer.py:132-146); is_stop is handled by Stopwords below.
ATTRIBUTE_PREDICATES = {
    "is_space": is_space,
    "is_punct": is_punct,
    "like_num": like_num,
    "is_symbol": is_symbol,
    "is_currency": is_currency,
    "is_measure": is_measure,
    "is_datetime": is_datetime,
    "like_url": like_url,
    "like_email": like_email,
    "is_username": is_username,
    "is_hashtag": is_hashtag,
    "is_emoji": is_emoji,
}

# minimal embedded stopword sets; extensible from a folder of {lang}.txt
# files exactly like the reference's stopwords_folder_path
# (spacy_tokenizer.py:335-365)
_EMBEDDED_STOPWORDS: Dict[str, Set[str]] = {
    "en": {
        "a", "an", "the", "and", "or", "but", "of", "to", "in", "on", "at",
        "for", "with", "by", "from", "as", "is", "are", "was", "were", "be",
        "been", "it", "its", "this", "that", "these", "those", "i", "you",
        "he", "she", "we", "they", "not", "no", "do", "does", "did", "have",
        "has", "had", "my", "your", "his", "her", "our", "their",
    },
    "fr": {"le", "la", "les", "un", "une", "des", "de", "du", "et", "ou",
           "est", "sont", "je", "tu", "il", "elle", "nous", "vous", "ils", "que"},
    "de": {"der", "die", "das", "ein", "eine", "und", "oder", "ist", "sind",
           "ich", "du", "er", "sie", "wir", "ihr", "nicht", "zu", "den", "dem"},
    "es": {"el", "la", "los", "las", "un", "una", "y", "o", "es", "son",
           "yo", "tu", "que", "de", "en", "no", "se", "por", "con"},
}


class Stopwords:
    """Per-language stopword set with the reference's customization
    semantics: a file replaces the defaults; lookups are case-insensitive
    in the same way (word, capitalized, upper all marked)."""

    def __init__(self, language: str, folder_path: str | None = None):
        self.language = language
        words = None
        if folder_path:
            import os

            path = os.path.join(folder_path, f"{language}.txt")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as f:
                    words = {w for w in f.read().splitlines() if w}
        if words is None:
            words = _EMBEDDED_STOPWORDS.get(language, set())
        self.words = {w.lower() for w in words}

    def is_stop(self, token: str) -> bool:
        return token.lower() in self.words
