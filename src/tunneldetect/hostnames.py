"""Small helpers for hostname shape checks and apex-suffix matching."""

from __future__ import annotations

import re

from .tokenizer import LITERALS

MAX_NAME_LEN = 253
MAX_LABEL_LEN = 63

# 1..253 characters of dot-separated labels, each 1..63 alphabet
# characters in either case. Listing A-Z is faster than re.IGNORECASE
# (about 1.6x per check), and keeps KELVIN SIGN from matching 'k'.
_LABEL = f"[A-Z{re.escape(LITERALS.replace('.', ''))}]{{1,{MAX_LABEL_LEN}}}"
_HOSTNAME = re.compile(f"(?=.{{1,{MAX_NAME_LEN}}}\\Z)(?:{_LABEL}\\.)*{_LABEL}")


def strip_trailing_dot(name: str) -> str:
    return name[:-1] if name.endswith(".") else name


def is_plausible_hostname(name: str) -> bool:
    """True if the string, exactly as given, is ASCII and shaped like a
    queryable name. Callers strip whitespace and the trailing dot first:
    neither is part of a name, so either makes this False.

    Permissive on purpose: tunneling payload labels legitimately contain
    '=', '+', '/', '_' and '~', so only clearly-invalid strings (empty
    labels, oversize labels, characters outside the tokenizer's literal
    alphabet after lowercasing) are rejected.
    """
    return _HOSTNAME.fullmatch(name) is not None


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
