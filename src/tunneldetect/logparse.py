"""Query-name extraction from resolver logs.

Three line grammars are supported so real logs can be scored directly:

  plain   - one query name per line
  dnsmasq - `... query[TYPE] NAME from IP`
  bind    - querylog lines containing `... query: NAME IN ...`

A line yields its query name, without a trailing dot, if that name is
a plausible hostname (ASCII, in the tokenizer's alphabet after
lowercasing); nothing else on the line is read. Parsing is total:
lines that do not match are skipped, never fatal.
"""

from __future__ import annotations

import re

from .hostnames import is_plausible_hostname, strip_trailing_dot

FORMATS = ("plain", "dnsmasq", "bind")

_QNAME_RE = {
    "dnsmasq": re.compile(r"query\[[^\]]+\]\s+(\S+)\s+from\s+\S+"),
    "bind": re.compile(r"query:\s+(\S+)\s+IN\b"),
}


def parse_line(fmt: str, line: str) -> str | None:
    """The query name of one log line; None means the line is skipped."""
    if fmt == "plain":
        qname = line.strip()
    elif fmt in _QNAME_RE:
        m = _QNAME_RE[fmt].search(line)
        qname = m.group(1) if m else ""
    else:
        raise ValueError(f"unsupported log format {fmt!r} (choose from {FORMATS})")
    qname = strip_trailing_dot(qname)
    return qname if is_plausible_hostname(qname) else None
