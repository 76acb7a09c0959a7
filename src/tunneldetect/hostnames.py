"""Small helpers for hostname shape checks and apex-suffix matching."""

from __future__ import annotations

import re

from .tokenizer import LITERALS

MAX_NAME_LEN = 253
MAX_LABEL_LEN = 63

# Alphabet characters in either case; re.ASCII keeps KELVIN SIGN from matching 'k'.
_ALPHABET_RUN = re.compile(f"[{re.escape(LITERALS)}]+", re.ASCII | re.IGNORECASE)


def strip_trailing_dot(name: str) -> str:
    return name[:-1] if name.endswith(".") else name


def has_valid_lengths(name: str) -> bool:
    """True if the name has 1..253 characters and every dot-separated
    label has 1..63."""
    if not name or len(name) > MAX_NAME_LEN:
        return False
    for label in name.split("."):
        if not label or len(label) > MAX_LABEL_LEN:
            return False
    return True


def is_plausible_hostname(name: str) -> bool:
    """True if the string, exactly as given, is ASCII and shaped like a
    queryable name. Callers strip whitespace and the trailing dot first:
    neither is part of a name, so either makes this False.

    Permissive on purpose: tunneling payload labels legitimately contain
    '=', '+', '/', '_' and '~', so only clearly-invalid strings (empty
    labels, oversize labels, characters outside the tokenizer's literal
    alphabet after lowercasing) are rejected.
    """
    return _ALPHABET_RUN.fullmatch(name) is not None and has_valid_lengths(name)


def normalize_name(name: str) -> str:
    """The name as apex matching compares it: stripped of whitespace,
    lowercased, and without one trailing dot."""
    return strip_trailing_dot(name.strip().lower())


def apex_matcher(apexes):
    """A test of whether a name lies under one of `apexes`, which are
    normalized with normalize_name already. The name is normalized the
    same way, then matched on a label boundary: 'a.evil.com' and
    'evil.com' lie under 'evil.com', 'notevil.com' does not."""
    exact = frozenset(apexes)
    suffixes = tuple("." + apex for apex in exact)

    def matches(name: str) -> bool:
        name = normalize_name(name)
        return name in exact or name.endswith(suffixes)

    return matches
