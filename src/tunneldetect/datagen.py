"""Synthetic corpus generation: tunneling-domain emulators for the common
DNS tunneling tools, normal domains from bundled feed files and a cz-like
synthesizer, balanced corpus assembly, and the corpus CSV format. Every
sample's name passes the hostname check classify applies to the names
it scores; held-out splits are folds of training.stratified_folds.

The tunneling generators are lexical emulators only: they reproduce the
query-name encodings the tools emit (base32, hex, base64url payload labels
under an attacker apex), not the tools or any network traffic. `tuns` and
`dns2tcp` never get past the handshake in practice, so they feed the
"notspecified" failed-attempt pool instead of their own classes.
"""

from __future__ import annotations

import base64
import csv
import importlib.resources
import io
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .hostnames import MAX_LABEL_LEN, is_plausible_hostname
from .logparse import parse_line

LABEL_NORMAL = "normal"
LABEL_TUNNELING = "tunneling"

TOOL_NONE = "none"
TOOL_IODINE = "iodine"
TOOL_DNSCAT2 = "dnscat2"
TOOL_DNSEXFILTRATOR = "dnsexfiltrator"
TOOL_NOTSPECIFIED = "notspecified"

ORIGIN_SYNTHETIC = "synthetic"
ORIGIN_ALEXA = "alexa-like"
ORIGIN_BAMBENEK = "bambenek-like"
ORIGIN_CZ = "cz-like"

# Two attacker-controlled apex domains; tunneling names are generated
# under both, mirroring a registered .com / .online pair.
DEFAULT_APEXES = ("exfiltest.com", "covertcheck.online")
DEFAULT_SEED = 0  # of a corpus whose spec names none

# Class distribution the synthetic corpus is scaled from: per-tool counts
# for tunneling and per-source counts for normal traffic.
TUNNELING_WEIGHTS = {
    TOOL_DNSCAT2: 23,
    TOOL_DNSEXFILTRATOR: 78,
    TOOL_IODINE: 346,
    TOOL_NOTSPECIFIED: 7553,
}
NORMAL_WEIGHTS = {
    ORIGIN_CZ: 511,
    ORIGIN_BAMBENEK: 3000,
    ORIGIN_ALEXA: 5000,
}

# Samples per class in the desk-scale corpus (`generate-data`'s default)
# and in the full-size one (`generate-data --full`).
DESK_PER_CLASS = 2000
FULL_PER_CLASS = 8000

# Most samples a corpus spec may ask of one tunneling tool or normal origin.
MAX_COUNT = 10 * FULL_PER_CLASS

_FEED_FILES = {
    ORIGIN_ALEXA: "alexa_like.txt",
    ORIGIN_BAMBENEK: "bambenek_like.txt",
}

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class DomainSample:
    """One labeled domain name, with the generating tool for tunneling
    samples and the source pool for normal ones."""

    name: str
    label: str
    tool: str = TOOL_NONE
    origin: str = ORIGIN_SYNTHETIC

    def __post_init__(self):
        if self.label not in (LABEL_NORMAL, LABEL_TUNNELING):
            raise ValueError(f"unknown label {self.label!r}")
        if self.label == LABEL_NORMAL and self.tool != TOOL_NONE:
            raise ValueError(f"normal sample cannot carry tool tag {self.tool!r}")
        if self.label == LABEL_TUNNELING and self.tool == TOOL_NONE:
            raise ValueError("tunneling sample requires a tool tag")
        if not is_plausible_hostname(self.name):
            raise ValueError(f"{self.name!r} is not a plausible hostname")


@dataclass(frozen=True)
class CorpusSpec:
    """Counts per tunneling tool and normal origin, plus the apex pair and
    the seed the whole corpus derives from."""

    tunneling_counts: Mapping[str, int]
    normal_counts: Mapping[str, int]
    apexes: tuple[str, ...] = DEFAULT_APEXES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for group in (self.tunneling_counts, self.normal_counts):
            if not isinstance(group, Mapping):
                raise ValueError(f"counts must map names to integers, got {group!r}")
            for key, n in group.items():
                if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                    raise ValueError(f"count for {key!r} must be an integer, got {n!r}")
                if n < 0:
                    raise ValueError(f"negative count for {key!r}: {n}")
        if not isinstance(self.apexes, (list, tuple)) or not all(isinstance(a, str) for a in self.apexes):
            raise ValueError(f"apexes must be a list of domain names, got {self.apexes!r}")
        if not self.apexes:
            raise ValueError("at least one apex domain is required")
        for apex in self.apexes:
            if not is_plausible_hostname(apex):
                raise ValueError(f"apex {apex!r} is not a plausible hostname")
        object.__setattr__(self, "apexes", tuple(self.apexes))


def scale_counts(weights: Mapping[str, int], total: int) -> dict[str, int]:
    """Scale integer weights to sum to `total` (largest-remainder rounding,
    ties broken by insertion order)."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    wsum = sum(weights.values())
    if wsum <= 0:
        raise ValueError("weights must have a positive sum")
    exact = {k: w * total / wsum for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    short = total - sum(counts.values())
    by_remainder = sorted(
        weights, key=lambda k: exact[k] - counts[k], reverse=True
    )
    for k in by_remainder[:short]:
        counts[k] += 1
    return counts


def desk_scale_spec(seed: int = DEFAULT_SEED, per_class: int = DESK_PER_CLASS) -> CorpusSpec:
    """Balanced desk-scale corpus: `per_class` samples per class, category
    counts proportional to the reference distribution."""
    return CorpusSpec(
        tunneling_counts=scale_counts(TUNNELING_WEIGHTS, per_class),
        normal_counts=scale_counts(NORMAL_WEIGHTS, per_class),
        seed=seed,
    )


def _derive_seed(seed: int, *stream) -> int:
    """Stable child seed for an independent generator stream. The seed
    enters whole, so seeds that differ in any bit give other streams."""
    return int(np.random.SeedSequence([int(seed), *stream]).generate_state(1)[0])


def _split_labels(payload: str) -> list[str]:
    return [payload[i : i + MAX_LABEL_LEN] for i in range(0, len(payload), MAX_LABEL_LEN)]


def _pick_chars(rng: np.random.Generator, k: int) -> str:
    return "".join(_ALNUM[i] for i in rng.integers(0, len(_ALNUM), size=k))


def _iodine_labels(rng: np.random.Generator, i: int) -> list[str]:
    """Upstream-data queries in the iodine style: one header character then
    a base32(lowercase) payload split across labels."""
    data = rng.bytes(int(rng.integers(20, 61)))
    payload = base64.b32encode(data).decode("ascii").lower().rstrip("=")
    return _split_labels(_pick_chars(rng, 1) + payload)


def _dnscat2_labels(rng: np.random.Generator, i: int) -> list[str]:
    """C&C-style queries: lowercase hex payload (even length, 30-120
    characters) in fixed 63-character labels."""
    return _split_labels(rng.bytes(int(rng.integers(15, 61))).hex())


def _dnsexfiltrator_labels(rng: np.random.Generator, i: int) -> list[str]:
    """Low-throughput file exfiltration: a chunk-index label followed by
    base64url payload labels (case preserved here; the tokenizer folds it)."""
    data = rng.bytes(int(rng.integers(10, 51)))
    return [str(i)] + _split_labels(base64.urlsafe_b64encode(data).decode("ascii").rstrip("="))


def _failed_attempt_labels(rng: np.random.Generator, i: int) -> list[str]:
    """Short handshake-like queries from tools that never established a
    tunnel (tuns, dns2tcp); tagged as unspecified-tool tunneling."""
    return [_pick_chars(rng, int(rng.integers(4, 17)))]


# Payload labels of the i-th query of each tool, drawn from a seeded RNG.
_PAYLOAD_LABELS = {
    TOOL_DNSCAT2: _dnscat2_labels,
    TOOL_DNSEXFILTRATOR: _dnsexfiltrator_labels,
    TOOL_IODINE: _iodine_labels,
    TOOL_NOTSPECIFIED: _failed_attempt_labels,
}


def tunneling_samples(tool: str, n: int, apex: str, seed: int) -> list[DomainSample]:
    """`n` queries in the encoding of `tool`: its payload labels, then the
    apex. Deterministic for a given seed."""
    if tool not in _PAYLOAD_LABELS:
        raise ValueError(f"unknown tunneling tool {tool!r}")
    labels = _PAYLOAD_LABELS[tool]
    rng = np.random.default_rng(seed)
    return [DomainSample(".".join(labels(rng, i) + [apex]), LABEL_TUNNELING, tool) for i in range(n)]


# ---------------------------------------------------------------------------
# Normal domains: the alexa-like and bambenek-like pools are the feed files
# shipped in `data/`; the cz-like pool is synthesized.

_CZ_ONSETS = [
    "st", "str", "skr", "zdr", "chr", "vr", "hr", "br", "tr", "pr", "kr",
    "dr", "sv", "dv", "tv", "hl", "ml", "vl", "sl", "zl", "sm", "zn", "ct",
]
_CZ_NUCLEI = ["a", "e", "i", "o", "u", "y", "r", "l", "e", "o"]
_CZ_CODAS = ["", "c", "k", "s", "z", "ch", "st", "sk", "n", "m", "v", "t"]


def _unique_names(make, n: int) -> list[str]:
    seen: set[str] = set()
    names = []
    while len(names) < n:
        name = make()
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def cz_like_names(n: int, seed: int) -> list[str]:
    """Consonant-heavy Czech-flavored domains under .cz (low vowel ratio
    makes these the hardest normal pool)."""
    rng = np.random.default_rng(seed)

    def make():
        syllables = int(rng.integers(2, 5))
        parts = []
        for _ in range(syllables):
            parts.append(_CZ_ONSETS[rng.integers(0, len(_CZ_ONSETS))])
            parts.append(_CZ_NUCLEI[rng.integers(0, len(_CZ_NUCLEI))])
        parts.append(_CZ_CODAS[rng.integers(0, len(_CZ_CODAS))])
        return "".join(parts) + ".cz"

    return _unique_names(make, n)


# ---------------------------------------------------------------------------
# Feed loading and corpus assembly.

def load_normal(path) -> tuple[list[str], int]:
    """Normal domains of a one-per-line feed file.

    Returns (names, skipped_line_count); lines starting with '#' are
    comments, any other line is read as a `plain` log line, and the lines
    parse_line skips are counted but never fatal.
    """
    names, skipped = [], 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name = parse_line("plain", line)
            if name is None:
                skipped += 1
            else:
                names.append(name)
    return names, skipped


def default_normal_pools() -> dict[str, list[str]]:
    """The alexa-like and bambenek-like pools from the bundled feed files;
    cz-like is absent, so build_corpus synthesizes it."""
    data = importlib.resources.files(__package__) / "data"
    return {origin: load_normal(data / fname)[0] for origin, fname in _FEED_FILES.items()}


def build_corpus(spec: CorpusSpec, normal_pools: Mapping[str, list[str]] | None = None) -> list[DomainSample]:
    """Assemble a labeled corpus per the spec counts and shuffle it.

    Tunneling samples come from tunneling_samples, split across apexes.
    Normal samples are drawn without replacement from the given pools;
    a cz-like origin missing from them is synthesized.
    Deterministic for a given spec. An origin with no pool or generator,
    a pool smaller than its count, an unknown tool or a count above
    MAX_COUNT raises ValueError before any sample is generated.
    """
    if normal_pools is None:
        normal_pools = default_normal_pools()

    # every tool, origin and count is checked before any sample is generated
    for origin, count in spec.normal_counts.items():
        if origin in normal_pools:
            if count > len(normal_pools[origin]):
                raise ValueError(
                    f"normal pool {origin!r} has {len(normal_pools[origin])} domains, {count} requested"
                )
        elif origin != ORIGIN_CZ:
            raise ValueError(f"no pool or generator for normal origin {origin!r}")
    for tool in spec.tunneling_counts:
        if tool not in _PAYLOAD_LABELS:
            raise ValueError(f"unknown tunneling tool {tool!r}")
    for key, count in [*spec.tunneling_counts.items(), *spec.normal_counts.items()]:
        if count > MAX_COUNT:
            raise ValueError(f"count for {key!r} is {count}, above the limit of {MAX_COUNT}")

    samples: list[DomainSample] = []
    stream = 0

    for tool, count in spec.tunneling_counts.items():
        for i, apex in enumerate(spec.apexes):
            # the first count % len(apexes) apexes take one sample more
            n = count // len(spec.apexes) + (i < count % len(spec.apexes))
            stream += 1
            samples.extend(tunneling_samples(tool, n, apex, _derive_seed(spec.seed, stream)))

    for origin, count in spec.normal_counts.items():
        stream += 1
        child = _derive_seed(spec.seed, stream)
        if origin in normal_pools:
            pool = normal_pools[origin]
            picks = np.random.default_rng(child).permutation(len(pool))[:count]
            names = [pool[i] for i in picks]
        else:
            names = cz_like_names(count, child)
        samples.extend(DomainSample(n, LABEL_NORMAL, TOOL_NONE, origin) for n in names)

    order = np.random.default_rng(_derive_seed(spec.seed, 0)).permutation(len(samples))
    return [samples[i] for i in order]


# ---------------------------------------------------------------------------
# Corpus CSV format: UTF-8, header `name,label,tool,origin`.

CSV_HEADER = ["name", "label", "tool", "origin"]


def write_corpus(samples: Iterable[DomainSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in samples:
            writer.writerow([s.name, s.label, s.tool, s.origin])


def read_corpus(path) -> list[DomainSample]:
    """Samples of a corpus CSV. Any malformed content (invalid UTF-8, a
    CSV syntax error, a bad header or row) raises ValueError naming the
    file, and the line for everything but the header. The file is read
    and decoded whole before any row is parsed, so an invalid byte is
    reported wherever it lies."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: invalid UTF-8: {exc.reason}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    samples = []
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"bad corpus header in {path}: {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{reader.line_num}: expected 4 fields, got {len(row)}")
            name, label, tool, origin = (f.strip() for f in row)
            try:
                samples.append(DomainSample(name, label.lower(), tool.lower(), origin.lower()))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return samples
