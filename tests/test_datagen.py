import hashlib
import importlib.resources

import numpy as np
import pytest

from tunneldetect import datagen
from tunneldetect.datagen import (
    CorpusSpec,
    DomainSample,
    LABEL_NORMAL,
    LABEL_TUNNELING,
    build_corpus,
    cz_like_names,
    default_normal_pools,
    desk_scale_spec,
    load_normal,
    read_corpus,
    scale_counts,
    tunneling_samples,
    write_corpus,
)
from tunneldetect.hostnames import is_plausible_hostname
from tunneldetect.logparse import parse_line

from oracles import derive_seed_32

APEX = "evil.example"


def payload_part(name, apex=APEX):
    assert name.endswith("." + apex)
    return name[: -(len(apex) + 1)]


class TestDomainSample:
    def test_normal_cannot_carry_tool(self):
        with pytest.raises(ValueError):
            DomainSample("a.com", LABEL_NORMAL, tool="iodine")

    def test_tunneling_requires_tool(self):
        with pytest.raises(ValueError):
            DomainSample("a.com", LABEL_TUNNELING, tool="none")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            DomainSample("a.com", "benign")

    def test_name_limits(self):
        with pytest.raises(ValueError):
            DomainSample("", LABEL_NORMAL)
        with pytest.raises(ValueError):
            DomainSample("x" * 64 + ".com", LABEL_NORMAL)
        with pytest.raises(ValueError):
            DomainSample(("a" * 50 + ".") * 6 + "com", LABEL_NORMAL)


class TestCorpusSpec:
    @pytest.mark.parametrize("seed", [1.5, "1", True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            CorpusSpec(tunneling_counts={}, normal_counts={}, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            desk_scale_spec(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert build_corpus(desk_scale_spec(seed=np.int64(3), per_class=5)) == build_corpus(desk_scale_spec(seed=3, per_class=5))

    @pytest.mark.parametrize("seed", [-1, -(2**32), np.int64(-5)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            CorpusSpec(tunneling_counts={}, normal_counts={}, seed=seed)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            desk_scale_spec(seed=seed)

    @pytest.mark.parametrize("low", [0, 1, 2**32 - 1])
    def test_seeds_keep_all_their_bits(self, low):
        assert build_corpus(desk_scale_spec(seed=low, per_class=5)) != build_corpus(desk_scale_spec(seed=low + 2**32, per_class=5))

    @pytest.mark.parametrize("seed", [0, 5, 7, 2**31, 2**32 - 1])
    def test_seeds_below_two_to_the_32_derive_as_when_cut_to_32_bits(self, seed):
        for stream in range(40):
            assert datagen._derive_seed(seed, stream) == derive_seed_32(seed, stream)


class TestScaleCounts:
    def test_desk_scale_tunneling_counts(self):
        counts = scale_counts(datagen.TUNNELING_WEIGHTS, 2000)
        assert counts == {"dnscat2": 6, "dnsexfiltrator": 20, "iodine": 86, "notspecified": 1888}
        assert sum(counts.values()) == 2000

    def test_desk_scale_normal_counts(self):
        counts = scale_counts(datagen.NORMAL_WEIGHTS, 2000)
        assert counts == {"cz-like": 120, "bambenek-like": 705, "alexa-like": 1175}

    def test_full_scale_normal_counts(self):
        counts = scale_counts(datagen.NORMAL_WEIGHTS, datagen.FULL_PER_CLASS)
        assert counts == {"cz-like": 480, "bambenek-like": 2820, "alexa-like": 4700}

    def test_sums_for_arbitrary_totals(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            total = int(rng.integers(0, 5000))
            counts = scale_counts(datagen.TUNNELING_WEIGHTS, total)
            assert sum(counts.values()) == total
            assert all(v >= 0 for v in counts.values())

    def test_full_spec_keeps_reference_tunneling_proportions(self):
        spec = desk_scale_spec(per_class=datagen.FULL_PER_CLASS)
        assert spec.tunneling_counts == {
            "dnscat2": 23, "dnsexfiltrator": 78, "iodine": 346, "notspecified": 7553,
        }
        totals = sum(spec.tunneling_counts.values()), sum(spec.normal_counts.values())
        assert totals == (datagen.FULL_PER_CLASS, datagen.FULL_PER_CLASS) == (8000, 8000)


class TestIodine:
    def test_empty(self):
        assert tunneling_samples("iodine", 0, APEX, 1) == []

    def test_apex_suffix(self):
        for s in tunneling_samples("iodine", 50, APEX, 2):
            assert s.name.endswith("." + APEX)
            assert s.label == LABEL_TUNNELING
            assert s.tool == "iodine"

    def test_payload_alphabet_base32_lowercase(self):
        allowed = set("abcdefghijklmnopqrstuvwxyz0123456789")
        for s in tunneling_samples("iodine", 200, APEX, 3):
            payload = payload_part(s.name).replace(".", "")
            assert set(payload) <= allowed, s.name

    def test_header_char_plus_encoding_length(self):
        # 20..60 bytes -> 32..96 base32 chars, plus one header char
        for s in tunneling_samples("iodine", 100, APEX, 4):
            payload = payload_part(s.name).replace(".", "")
            assert 33 <= len(payload) <= 97


class TestDnscat2:
    def test_hex_alphabet(self):
        allowed = set("0123456789abcdef")
        for s in tunneling_samples("dnscat2", 200, APEX, 5):
            payload = payload_part(s.name).replace(".", "")
            assert set(payload) <= allowed

    def test_even_payload_length(self):
        for s in tunneling_samples("dnscat2", 200, APEX, 6):
            payload = payload_part(s.name).replace(".", "")
            assert len(payload) % 2 == 0
            assert 30 <= len(payload) <= 120

    def test_distinct_seeds_disjoint_payloads(self):
        a = {s.name for s in tunneling_samples("dnscat2", 500, APEX, 7)}
        b = {s.name for s in tunneling_samples("dnscat2", 500, APEX, 8)}
        assert len(a) == len(b) == 500
        assert not a & b


class TestDnsexfiltrator:
    def test_empty(self):
        assert tunneling_samples("dnsexfiltrator", 0, APEX, 1) == []

    def test_apex_suffix(self):
        for s in tunneling_samples("dnsexfiltrator", 50, APEX, 9):
            assert s.name.endswith("." + APEX)

    def test_alphabet_base64url_plus_digits(self):
        allowed = set(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
        )
        for s in tunneling_samples("dnsexfiltrator", 200, APEX, 10):
            payload = payload_part(s.name).replace(".", "")
            assert set(payload) <= allowed

    def test_chunk_index_prefix_label(self):
        samples = tunneling_samples("dnsexfiltrator", 20, APEX, 11)
        for i, s in enumerate(samples):
            assert s.name.split(".")[0] == str(i)


class TestFailedAttempts:
    def test_short_handshake_names(self):
        typical = min(len(s.name) for s in tunneling_samples("iodine", 50, APEX, 12))
        for s in tunneling_samples("notspecified", 100, APEX, 13):
            payload = payload_part(s.name)
            assert 4 <= len(payload) <= 16
            assert len(s.name) < typical
            assert s.tool == "notspecified"

    def test_label_count_at_most_three(self):
        for s in tunneling_samples("notspecified", 100, "evil.example", 14):
            assert len(s.name.split(".")) <= 3


class TestGeneratorInvariants:
    def test_dns_length_limits(self):
        samples = (
            tunneling_samples("iodine", 200, APEX, 20)
            + tunneling_samples("dnscat2", 200, APEX, 21)
            + tunneling_samples("dnsexfiltrator", 200, APEX, 22)
            + tunneling_samples("notspecified", 200, APEX, 23)
        )
        for s in samples:
            assert len(s.name) <= 253
            assert all(0 < len(lbl) <= 63 for lbl in s.name.split("."))
            assert is_plausible_hostname(s.name)

    def test_duplicate_rate_below_permille(self):
        names = [s.name for s in tunneling_samples("iodine", 10_000, APEX, 24)]
        assert len(names) - len(set(names)) < 10

    def test_generators_deterministic(self):
        a = [s.name for s in tunneling_samples("iodine", 50, APEX, 25)]
        b = [s.name for s in tunneling_samples("iodine", 50, APEX, 25)]
        assert a == b

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError, match="warpdrive"):
            tunneling_samples("warpdrive", 1, APEX, 26)


class TestLoadNormal:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "feed.txt"
        p.write_text("")
        assert load_normal(p) == ([], 0)

    def test_basic_line(self, tmp_path):
        p = tmp_path / "feed.txt"
        p.write_text("example.com\n")
        assert load_normal(p) == (["example.com"], 0)

    def test_invalid_line_skipped_and_counted(self, tmp_path):
        p = tmp_path / "feed.txt"
        p.write_text(">>>\nexample.com\n# comment\n\nok.org.\n")
        assert load_normal(p) == (["example.com", "ok.org"], 1)

    def test_space_before_trailing_dot_skipped(self, tmp_path):
        p = tmp_path / "feed.txt"
        p.write_text("a.com .\n b.org. \n")
        assert load_normal(p) == (["b.org"], 1)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_normal(tmp_path / "nope.txt")

    def test_agrees_with_plain_log_parsing(self, tmp_path):
        lines = ["# feed", "", "example.com", "ok.org.", "  spaced.net.  ", "a b.com", "\u00e4.com",
                 "x" * 64 + ".com", "a..b", "..", "   ", "#not.a.name", "UPPER.Case.COM", "tail.dot.."]
        p = tmp_path / "feed.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        read = [line for line in lines if line.strip() and not line.strip().startswith("#")]
        parsed = [parse_line("plain", line) for line in read]
        assert load_normal(p) == ([n for n in parsed if n is not None], parsed.count(None))
        assert parsed == ["example.com", "ok.org", "spaced.net", None, None, None, None, None, "UPPER.Case.COM", None]


class TestBundledFeeds:
    def test_pools_large_enough_for_full_scale(self):
        pools = default_normal_pools()
        assert len(pools["alexa-like"]) >= 4700
        assert len(pools["bambenek-like"]) >= 2820

    def test_all_names_plausible(self):
        for names in default_normal_pools().values():
            assert all(is_plausible_hostname(n) for n in names)
            assert len(set(names)) == len(names)

    def test_feed_files_pinned(self):
        # The feed files are the only source of these pools (their seeds
        # are in their header comments), so any edit to them must show.
        data = importlib.resources.files("tunneldetect") / "data"
        digests = {f: hashlib.sha256((data / f).read_bytes()).hexdigest() for f in ("alexa_like.txt", "bambenek_like.txt")}
        assert digests == {
            "alexa_like.txt": "33c100d95a91d1efa185cdca8f42acec15056a3cfb8bca3d027341a94046a0aa",
            "bambenek_like.txt": "598229576518c2321bb0f43208d4f53d644e6a263b0c70275d3ca68985a905ce",
        }
        assert {k: len(v) for k, v in default_normal_pools().items()} == {"alexa-like": 6000, "bambenek-like": 4000}

    def test_cz_generator_fallback(self):
        names = cz_like_names(100, seed=1)
        assert len(set(names)) == 100
        assert all(n.endswith(".cz") for n in names)


class TestBuildCorpus:
    def test_desk_scale_counts(self):
        spec = desk_scale_spec(seed=1, per_class=200)
        corpus = build_corpus(spec)
        assert len(corpus) == 400
        by_tool = {}
        by_origin = {}
        for s in corpus:
            if s.label == LABEL_TUNNELING:
                by_tool[s.tool] = by_tool.get(s.tool, 0) + 1
            else:
                by_origin[s.origin] = by_origin.get(s.origin, 0) + 1
        assert by_tool == {k: v for k, v in spec.tunneling_counts.items() if v}
        assert by_origin == {k: v for k, v in spec.normal_counts.items() if v}

    def test_deterministic(self):
        spec = desk_scale_spec(seed=2, per_class=100)
        assert build_corpus(spec) == build_corpus(spec)

    def test_different_seed_changes_order(self):
        a = build_corpus(desk_scale_spec(seed=3, per_class=100))
        b = build_corpus(desk_scale_spec(seed=4, per_class=100))
        assert [s.name for s in a] != [s.name for s in b]

    def test_pool_exhaustion_names_the_pool(self):
        spec = CorpusSpec(
            tunneling_counts={"iodine": 2},
            normal_counts={"alexa-like": 50},
            seed=0,
        )
        with pytest.raises(ValueError, match="alexa-like"):
            build_corpus(spec, {"alexa-like": ["a.com", "b.com"]})

    @pytest.mark.parametrize("normal_counts, error", [
        ({"alexa-like": 3}, "normal pool 'alexa-like' has 2 domains, 3 requested"),
        ({"nowhere-like": 1}, "no pool or generator for normal origin 'nowhere-like'"),
    ], ids=["exhausted-pool", "unknown-origin"])
    def test_normal_counts_checked_before_any_tunneling_sample(self, normal_counts, error, monkeypatch):
        def fail(*args):
            raise AssertionError("tunneling samples generated before the normal counts were checked")

        monkeypatch.setattr(datagen, "tunneling_samples", fail)
        spec = CorpusSpec(tunneling_counts={"iodine": 10**12}, normal_counts=normal_counts, seed=0)
        with pytest.raises(ValueError) as exc:
            build_corpus(spec, {"alexa-like": ["a.com", "b.com"]})
        assert str(exc.value) == error

    @pytest.mark.parametrize("tunneling_counts, normal_counts, error", [
        ({"iodine": 10, "bogus": 1}, {}, "unknown tunneling tool 'bogus'"),
        ({"iodine": 10**12}, {}, "count for 'iodine' is 1000000000000, above the limit of 80000"),
        ({"iodine": 10}, {"cz-like": datagen.MAX_COUNT + 1}, "count for 'cz-like' is 80001, above the limit of 80000"),
    ], ids=["unknown-tool", "huge-tunneling-count", "huge-cz-count"])
    def test_tools_and_counts_checked_before_any_sample(self, tunneling_counts, normal_counts, error, monkeypatch):
        def fail(*args):
            raise AssertionError("samples generated before the spec was checked")

        monkeypatch.setattr(datagen, "tunneling_samples", fail)
        monkeypatch.setattr(datagen, "cz_like_names", fail)
        spec = CorpusSpec(tunneling_counts=tunneling_counts, normal_counts=normal_counts, seed=0)
        with pytest.raises(ValueError) as exc:
            build_corpus(spec, {})
        assert str(exc.value) == error

    def test_count_of_max_count_is_built(self):
        spec = CorpusSpec(tunneling_counts={}, normal_counts={"alexa-like": datagen.MAX_COUNT}, seed=0)
        names = [f"n{i}.example.com" for i in range(datagen.MAX_COUNT)]
        assert len(build_corpus(spec, {"alexa-like": names})) == datagen.MAX_COUNT

    def test_tunneling_split_across_apexes(self):
        spec = CorpusSpec(
            tunneling_counts={"iodine": 10},
            normal_counts={},
            apexes=("one.example", "two.example"),
            seed=5,
        )
        corpus = build_corpus(spec, {})
        ones = sum(1 for s in corpus if s.name.endswith("one.example"))
        twos = sum(1 for s in corpus if s.name.endswith("two.example"))
        assert ones == twos == 5

    def test_unknown_tool_rejected(self):
        spec = CorpusSpec(tunneling_counts={"warpdrive": 1}, normal_counts={}, seed=0)
        with pytest.raises(ValueError, match="warpdrive"):
            build_corpus(spec, {})


class TestCorpusCsv:
    def test_roundtrip(self, tmp_path):
        corpus = build_corpus(desk_scale_spec(seed=10, per_class=50))
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        assert read_corpus(path) == corpus

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("domain,class\nfoo.com,normal\n")
        with pytest.raises(ValueError, match="header"):
            read_corpus(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("name,label,tool,origin\nfoo.com,normal,none,alexa-like\nbar.com,bogus,none,x\n")
        with pytest.raises(ValueError, match=":3"):
            read_corpus(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(b"name,label,tool,origin\nfoo.com,normal,none,alexa-like\nb\xffr.com,normal,none,alexa-like\n")
        with pytest.raises(ValueError, match=r"corpus\.csv:3: invalid UTF-8"):
            read_corpus(path)

    def test_invalid_byte_is_reported_before_an_earlier_bad_row(self, tmp_path):
        # the bad row on line 2 lies far more than one read buffer before the byte
        path = tmp_path / "corpus.csv"
        rows = b"foo.com,normal,none,alexa-like\n" * 10_000
        path.write_bytes(b"name,label,tool,origin\nfoo.com,bogus,none,x\n" + rows + b"\xff\n")
        with pytest.raises(ValueError, match=r"corpus\.csv:10003: invalid UTF-8"):
            read_corpus(path)

    def test_implausible_name_reports_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("name,label,tool,origin\na b.com,normal,none,synthetic\n")
        with pytest.raises(ValueError, match=r"corpus\.csv:2: 'a b\.com' is not a plausible hostname"):
            read_corpus(path)

    def test_tool_case_normalized(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("name,label,tool,origin\nabc.evil.com,tunneling,DNSExfiltrator,synthetic\n")
        samples = read_corpus(path)
        assert samples[0].tool == "dnsexfiltrator"
