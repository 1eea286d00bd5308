"""Regex field extraction and tokenization for noisy ad text.

The pattern table below is the normative definition of every extracted
field. Each entry is a named, hand-auditable regex; extraction is a pure
function of the input text, and anything a pattern does not claim is
ignored. Matched ages outside [18, 99] are not dropped silently: values
below 18 land in the ``flagged_ages`` diagnostic set.

Heights and weights are normalized to metric (cm / kg). Phone candidates go
through :func:`normalize_phone`, which resolves spelled-out digits and the
o->0 obfuscation and accepts only exact 10-digit results.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field, fields

__all__ = [
    "FieldSet",
    "extract_fields",
    "normalize_phone",
    "tokenize",
    "special_char_count",
]

_ALNUM = set(string.ascii_letters + string.digits)

# --- phone -----------------------------------------------------------------
# Spelled digit words, longest first so "seven" wins over "even"/"one" pieces.
_DIGIT_WORDS = (
    ("three", "3"), ("seven", "7"), ("eight", "8"), ("zero", "0"),
    ("four", "4"), ("five", "5"), ("nine", "9"), ("one", "1"),
    ("two", "2"), ("six", "6"), ("oh", "0"),
)
_WORD_SUB = re.compile("|".join(w for w, _ in _DIGIT_WORDS), re.IGNORECASE)
_WORD_MAP = {w: d for w, d in _DIGIT_WORDS}

# A phone candidate is a run of digits / digit words / "o" separated by
# spacing or light punctuation, long enough to plausibly hold ten digits.
# Word units must not run into a following letter, so "or"/"ohio" never
# contribute an o->0.
_PHONE_UNIT = r"(?:(?:zero|one|two|three|four|five|six|seven|eight|nine|oh|o)(?![a-z])|\d)"
_PHONE_CANDIDATE = re.compile(
    rf"(?<![0-9a-z])(?:\+?1[\s.\-*/]+)?(?:\(?{_PHONE_UNIT}\)?[\s.\-*/]*){{7,24}}",
    re.IGNORECASE,
)


def normalize_phone(raw: str) -> str | None:
    """Normalize a candidate phone substring to exactly 10 digits.

    Spelled digit words become digits, lone o/O becomes 0, punctuation and
    whitespace are stripped, and a leading country code 1 is dropped.
    Returns None when the result is not exactly 10 digits.
    """
    text = _WORD_SUB.sub(lambda m: _WORD_MAP[m.group(0).lower()], raw)
    digits = []
    for ch in text:
        if ch.isdigit():
            digits.append(ch)
        elif ch in "oO":
            digits.append("0")
        elif ch.isspace() or ch in "()-.+*/#,":
            continue
        else:
            return None  # stray letters mean this was not a phone
    number = "".join(digits)
    if len(number) == 11 and number.startswith("1"):
        number = number[1:]
    return number if len(number) == 10 else None


# --- pattern table ----------------------------------------------------------
# One named group of patterns per extracted field. Values are lowercased;
# numeric fields are validated/converted by the post-processors below.

_AGE_PATTERNS = (
    re.compile(r"\b(\d{2})\s*(?:yo|y/o|yrs?|years?\s*old)\b", re.IGNORECASE),
    re.compile(r"\bage[:\s]+(\d{2})\b", re.IGNORECASE),
)

_COST_PATTERNS = (
    # "$200/hr", "$80 hh", "$150 per hour", "$90"
    re.compile(
        r"\$\s*(\d{2,4})(?:\s*(?:/|per)?\s*(hr|hour|hrs|hh|half(?:\s*(?:hour|hr))?|30\s*min(?:ute)?s?))?",
        re.IGNORECASE,
    ),
    # "150 roses", "200/hr" without the dollar sign
    re.compile(r"\b(\d{2,4})\s*(roses?)\b", re.IGNORECASE),
    re.compile(r"\b(\d{2,4})\s*(?:/|per\s)\s*(hr|hour|hh|half)\b", re.IGNORECASE),
)
_HOUR_UNITS = {"hr", "hrs", "hour"}
_HALF_UNITS = {"hh", "half", "half hour", "half hr"}

_EMAIL_PATTERN = re.compile(r"\b[a-z0-9._%+\-]+@[a-z0-9.\-]+\.[a-z]{2,}\b", re.IGNORECASE)

_URL_PATTERN = re.compile(r"\b(?:https?://|www\.)[^\s<>\"']+", re.IGNORECASE)

_NAME_PATTERN = re.compile(
    r"\b(?:i'?m|im|its|it'?s|this is|my name is|name'?s|call me|ask for)\s+([a-z]{3,})",
    re.IGNORECASE,
)
# keyword-introduced words that are not names
_NAME_STOPWORDS = {
    "here", "back", "new", "available", "ready", "waiting", "the", "your",
    "not", "now", "always", "very", "really", "open", "looking", "also",
    "all", "worth", "gone", "sexy", "sweet", "young", "hot",
}

_ETHNICITY_PATTERN = re.compile(
    r"\b(latina|latin|asian|ebony|caucasian|indian|exotic|mixed|spanish|korean|"
    r"japanese|chinese|thai|russian|persian|brazilian|colombian|dominican|"
    r"italian|cuban|hawaiian|filipina|(?:black|white)(?!\s+(?:hair|eyes|skin|men|list)))\b",
    re.IGNORECASE,
)

_EYE_PATTERN = re.compile(
    r"\b(blue|green|brown|hazel|gray|grey|black)(?:\s+colou?red)?[\s\-]*(?:eyes|eyed)\b",
    re.IGNORECASE,
)
_HAIR_PATTERN = re.compile(
    r"\b(blonde?|brunette|black|brown|red|auburn|dark|platinum)[\s\-]*hair(?:ed)?\b",
    re.IGNORECASE,
)
_SKIN_PATTERN = re.compile(
    r"\b(caramel|chocolate|tanned?|fair|light|dark|olive|brown|smooth|mocha|white|black)[\s\-]*(?:skin|skinned|complexion)\b",
    re.IGNORECASE,
)

_RESTRICTION_PATTERNS = (
    re.compile(
        r"\bno\s+(black men|aa|african americans?|bare\s*back|bb|greek|explicit\s+(?:talk|texts?)|"
        r"blocked\s+(?:calls?|numbers?)|private\s+(?:calls?|numbers?)|pimps?|law enforcement|"
        r"rush(?:ed)?(?:\s+service)?|games|drama|thugs?)\b",
        re.IGNORECASE,
    ),
    re.compile(r"\b(donations?\s+only|gentlemen\s+only|outcalls?\s+only|incalls?\s+only)\b", re.IGNORECASE),
)

_HEIGHT_PATTERNS = (
    re.compile(r"\b(\d)\s*'\s*(\d{1,2})\s*\"?"),           # 5'6"
    re.compile(r"\b(\d)\s*ft\s*(\d{1,2})\b", re.IGNORECASE),
    re.compile(r"\b(1\d{2})\s*cm\b", re.IGNORECASE),
)
_WEIGHT_PATTERNS = (
    re.compile(r"\b(\d{2,3})\s*lbs?\b", re.IGNORECASE),
    re.compile(r"\b(\d{2,3})\s*kgs?\b", re.IGNORECASE),
)

_MEASUREMENT_PATTERNS = (
    re.compile(r"\b(\d{2}[a-f]{1,2}-\d{2}-\d{2})\b", re.IGNORECASE),
    re.compile(r"\b(\d{2}-\d{2}-\d{2})\b"),
    re.compile(r"\b(\d{2}(?:dd|[b-f]))\b", re.IGNORECASE),
)


@dataclass
class FieldSet:
    """Structured fields extracted from one ad text.

    ``costs`` holds (amount, unit) pairs with unit one of "per-hour",
    "per-half-hour", "unknown". ``heights`` are cm, ``weights`` kg.
    """

    phones: set[str] = field(default_factory=set)
    ages: set[int] = field(default_factory=set)
    flagged_ages: set[int] = field(default_factory=set)
    costs: set[tuple[int, str]] = field(default_factory=set)
    emails: set[str] = field(default_factory=set)
    names: set[str] = field(default_factory=set)
    urls: set[str] = field(default_factory=set)
    ethnicities: set[str] = field(default_factory=set)
    eye_colors: set[str] = field(default_factory=set)
    hair_colors: set[str] = field(default_factory=set)
    skin_colors: set[str] = field(default_factory=set)
    restrictions: set[str] = field(default_factory=set)
    heights: set[int] = field(default_factory=set)
    weights: set[int] = field(default_factory=set)
    measurements: set[str] = field(default_factory=set)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "costs":
                out[f.name] = sorted([amt, unit] for amt, unit in value)
            else:
                out[f.name] = sorted(value)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "FieldSet":
        fs = cls()
        for f in fields(fs):
            if f.name not in obj:
                continue
            if f.name == "costs":
                fs.costs = {(int(a), str(u)) for a, u in obj[f.name]}
            elif f.name in ("ages", "flagged_ages", "heights", "weights"):
                setattr(fs, f.name, {int(v) for v in obj[f.name]})
            else:
                setattr(fs, f.name, {str(v) for v in obj[f.name]})
        return fs


def _cost_unit(unit_text: str | None) -> str:
    if not unit_text:
        return "unknown"
    u = " ".join(unit_text.lower().split())
    if u in _HOUR_UNITS:
        return "per-hour"
    if u in _HALF_UNITS or u.startswith("30") or u.startswith("half"):
        return "per-half-hour"
    return "unknown"


def extract_fields(text: str) -> FieldSet:
    """Apply the pattern table to ``text``. Pure and deterministic."""
    fs = FieldSet()
    if not text:
        return fs

    # Phones first; successful spans are masked so their digits cannot
    # feed the age/cost/measurement patterns.
    masked = text
    for m in _PHONE_CANDIDATE.finditer(text):
        number = normalize_phone(m.group(0))
        if number is not None:
            fs.phones.add(number)
            masked = masked[: m.start()] + " " * (m.end() - m.start()) + masked[m.end():]

    for pat in _AGE_PATTERNS:
        for m in pat.finditer(masked):
            age = int(m.group(1))
            if 18 <= age <= 99:
                fs.ages.add(age)
            elif age < 18:
                fs.flagged_ages.add(age)

    for pat in _COST_PATTERNS:
        for m in pat.finditer(masked):
            amount = int(m.group(1))
            unit = _cost_unit(m.group(2) if m.lastindex and m.lastindex >= 2 else None)
            fs.costs.add((amount, unit))

    for m in _EMAIL_PATTERN.finditer(masked):
        fs.emails.add(m.group(0).lower())

    for m in _URL_PATTERN.finditer(masked):
        fs.urls.add(m.group(0).lower().rstrip(".,!?;:"))

    for m in _NAME_PATTERN.finditer(masked):
        candidate = m.group(1).lower()
        if candidate not in _NAME_STOPWORDS:
            fs.names.add(candidate)

    for m in _ETHNICITY_PATTERN.finditer(masked):
        fs.ethnicities.add(m.group(1).lower())
    for m in _EYE_PATTERN.finditer(masked):
        fs.eye_colors.add(m.group(1).lower().replace("grey", "gray"))
    for m in _HAIR_PATTERN.finditer(masked):
        fs.hair_colors.add(m.group(1).lower())
    for m in _SKIN_PATTERN.finditer(masked):
        fs.skin_colors.add(m.group(1).lower())

    for pat in _RESTRICTION_PATTERNS:
        for m in pat.finditer(masked):
            fs.restrictions.add(" ".join(m.group(0).lower().split()))

    for pat in _HEIGHT_PATTERNS[:2]:
        for m in pat.finditer(masked):
            cm = round((int(m.group(1)) * 12 + int(m.group(2))) * 2.54)
            if 120 <= cm <= 215:
                fs.heights.add(cm)
    for m in _HEIGHT_PATTERNS[2].finditer(masked):
        cm = int(m.group(1))
        if 120 <= cm <= 215:
            fs.heights.add(cm)

    for m in _WEIGHT_PATTERNS[0].finditer(masked):
        kg = round(int(m.group(1)) * 0.45359237)
        if 35 <= kg <= 140:
            fs.weights.add(kg)
    for m in _WEIGHT_PATTERNS[1].finditer(masked):
        kg = int(m.group(1))
        if 35 <= kg <= 140:
            fs.weights.add(kg)

    for pat in _MEASUREMENT_PATTERNS:
        for m in pat.finditer(masked):
            fs.measurements.add(m.group(1).lower())

    return fs


_TOKEN_PATTERN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> tuple[Counter, Counter]:
    """(unigrams, bigrams) as multisets.

    Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2;
    bigrams pair adjacent surviving unigrams.
    """
    tokens = [t for t in _TOKEN_PATTERN.findall(text.lower()) if len(t) >= 2]
    unigrams = Counter(tokens)
    bigrams = Counter(zip(tokens, tokens[1:]))
    return unigrams, bigrams


def special_char_count(text: str) -> int:
    """Codepoints outside [a-zA-Z0-9] that are not whitespace."""
    return sum(1 for ch in text if ch not in _ALNUM and not ch.isspace())


def extraction_counts(fieldsets: dict[str, FieldSet]) -> list[tuple[str, int, int]]:
    """Per-field (name, ads_with_match, total_values) summary rows."""
    rows = []
    for f in fields(FieldSet):
        with_match = sum(1 for fs in fieldsets.values() if getattr(fs, f.name))
        total = sum(len(getattr(fs, f.name)) for fs in fieldsets.values())
        rows.append((f.name, with_match, total))
    return rows
