"""Seeded benchmark inputs: held-out corpora and resolver logs.

Corpora come from the package's public `datagen`. Logs are built here
with the structure a resolver log has: normal names repeat with
Zipf-like frequencies, tunneling names are mostly unique, and some
lines are unparseable or carry names that no hostname check accepts.
Every generator is a pure function of its seed, and each log comes with
the names the parser must accept, in order.

One property of the log mix is calibrated, the rest are assumed. The
distinct-name ratio (distinct lowercased names / accepted lines) decides
what classify could save by scoring each name once; it is set to 0.14,
the ratio of a 20,000-line dnsmasq log with 2,824 distinct names, by
sizing the pool of normal names the Zipf draws come from (see
`_normal_pool_size`). The shares below and the Zipf exponent are
assumptions, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tunneldetect import datagen

DISTINCT_NAME_RATIO = 0.14  # calibrated: 2,824 distinct names in 20,000 lines
# Assumed:
ZIPF_EXPONENT = 1.1
TUNNEL_SHARE = 0.10      # query lines carrying a tunneling name
TUNNEL_REPEAT = 0.10     # tunneling lines that retransmit the previous name
UNPARSEABLE_SHARE = 0.05
IMPLAUSIBLE_SHARE = 0.02
MIXED_CASE_SHARE = 0.03  # 0x20-style case randomisation of normal names


@dataclass
class Log:
    lines: list[str]
    accepted: list[str]  # qname of every line the parser must accept, in order
    tunneling: int       # accepted lines carrying a tunneling name

    @property
    def skip_ratio(self) -> float:
        return 1.0 - len(self.accepted) / len(self.lines)

    @property
    def distinct_names(self) -> int:
        """Distinct accepted names as the network sees them: the tokenizer
        lowercases, so case variants are one name."""
        return len({name.lower() for name in self.accepted})

    @property
    def distinct_name_ratio(self) -> float:
        return self.distinct_names / len(self.accepted)


def corpus(seed: int, per_class: int) -> list[datagen.DomainSample]:
    return datagen.build_corpus(datagen.desk_scale_spec(seed=seed, per_class=per_class))


def _implausible(rng: np.random.Generator, name: str) -> str:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return name.replace(".", "..", 1)                 # empty label
    if kind == 1:
        return "x" * 64 + "." + name                      # label over 63 characters
    if kind == 2:
        return "wpad\\032" + name                         # escaped byte
    return name.split(".")[0] + "*!." + name              # characters outside the alphabet


def _dnsmasq(ts: int, kind: str, name: str, rng: np.random.Generator) -> str:
    stamp = f"Oct 17 {ts // 3600 % 24:02d}:{ts // 60 % 60:02d}:{ts % 60:02d} dnsmasq[812]:"
    client = f"192.168.{int(rng.integers(0, 4))}.{int(rng.integers(2, 250))}"
    if kind == "query":
        qtype = ("A", "AAAA", "TXT", "MX")[int(rng.integers(0, 4))]
        return f"{stamp} query[{qtype}] {name} from {client}"
    other = (
        f"forwarded {name} to 9.9.9.9",
        f"reply {name} is 93.184.216.34",
        f"cached {name} is NXDOMAIN",
        f"config {name} is <CNAME>",
    )
    return f"{stamp} {other[int(rng.integers(0, len(other)))]}"


def _bind(ts: int, kind: str, name: str, rng: np.random.Generator) -> str:
    stamp = f"17-Oct-2026 {ts // 3600 % 24:02d}:{ts // 60 % 60:02d}:{ts % 60:02d}.{int(rng.integers(0, 1000)):03d}"
    client = f"192.168.{int(rng.integers(0, 4))}.{int(rng.integers(2, 250))}#{int(rng.integers(1024, 65536))}"
    if kind == "query":
        qtype = ("A", "AAAA", "TXT", "MX")[int(rng.integers(0, 4))]
        return f"{stamp} queries: info: client @0x7f3a2c01 {client} ({name}): query: {name} IN {qtype} +E(0) (10.0.0.53)"
    other = (
        f"query-errors: info: client @0x7f3a2c01 {client} ({name}): query failed (SERVFAIL) for {name}/IN/A",
        f"general: info: zone {name}/IN: loaded serial 2026101701",
        f"lame-servers: info: connection refused resolving '{name}/A/IN': 192.0.2.1#53",
    )
    return f"{stamp} {other[int(rng.integers(0, len(other)))]}"


_FORMATTERS = {"dnsmasq": _dnsmasq, "bind": _bind}


def _zipf(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def _normal_pool_size(n_lines: int, available: int) -> int:
    """The smallest pool of normal names whose expected distinct-name
    ratio reaches DISTINCT_NAME_RATIO in a log of `n_lines` lines.

    Expected distinct names: each tunneling line that is not a
    retransmit brings a new name; a pool name with Zipf probability p is
    seen at least once in k accepted normal lines with probability
    1 - (1 - p)^k."""
    accept = 1.0 - UNPARSEABLE_SHARE - IMPLAUSIBLE_SHARE
    normal_lines = n_lines * (1.0 - TUNNEL_SHARE) * accept
    target = DISTINCT_NAME_RATIO * n_lines * accept - n_lines * TUNNEL_SHARE * (1.0 - TUNNEL_REPEAT) * accept
    lo, hi = 1, available
    while lo < hi:
        mid = (lo + hi) // 2
        if np.sum(1.0 - (1.0 - _zipf(mid)) ** normal_lines) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def resolver_log(fmt: str, n_lines: int, seed: int) -> Log:
    """A seeded `fmt` log of `n_lines` lines and the names it must yield."""
    rng = np.random.default_rng(seed)
    source = corpus(seed, per_class=max(256, n_lines // 4))
    normal = [s.name for s in source if s.label == datagen.LABEL_NORMAL]
    tunnels = iter([s.name for s in source if s.label == datagen.LABEL_TUNNELING])
    normal = normal[: _normal_pool_size(n_lines, len(normal))]
    popular = rng.choice(len(normal), size=n_lines, p=_zipf(len(normal)))
    fmt_line = _FORMATTERS[fmt]

    lines: list[str] = []
    accepted: list[str] = []
    n_tunneling = 0
    last_tunnel = None
    ts = 20 * 3600
    for i in range(n_lines):
        ts += int(rng.integers(0, 2))
        name = normal[popular[i]]
        is_tunnel = False
        if rng.random() < TUNNEL_SHARE:
            if last_tunnel is None or rng.random() >= TUNNEL_REPEAT:
                last_tunnel = next(tunnels)
            name, is_tunnel = last_tunnel, True
        elif rng.random() < MIXED_CASE_SHARE:
            name = "".join(c.upper() if rng.random() < 0.5 else c for c in name)
        draw = rng.random()
        if draw < UNPARSEABLE_SHARE:
            lines.append(fmt_line(ts, "other", name, rng))
        elif draw < UNPARSEABLE_SHARE + IMPLAUSIBLE_SHARE:
            lines.append(fmt_line(ts, "query", _implausible(rng, name), rng))
        else:
            lines.append(fmt_line(ts, "query", name, rng))
            accepted.append(name)
            n_tunneling += is_tunnel
    return Log(lines, accepted, n_tunneling)
