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
    split_train_test,
    tunneling_samples,
    write_corpus,
)
from tunneldetect.hostnames import is_plausible_hostname

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


class TestSplitTrainTest:
    def _balanced_corpus(self, n=100):
        return build_corpus(desk_scale_spec(seed=6, per_class=n // 2))

    def test_eighty_twenty_per_class(self):
        corpus = self._balanced_corpus(100)
        train, test = split_train_test(corpus, 0.8, seed=7)
        assert len(train) == 80 and len(test) == 20
        for part, want in ((train, 40), (test, 10)):
            assert sum(1 for s in part if s.label == LABEL_NORMAL) == want
            assert sum(1 for s in part if s.label == LABEL_TUNNELING) == want

    def test_disjoint_union(self):
        corpus = self._balanced_corpus(100)
        train, test = split_train_test(corpus, 0.8, seed=8)
        train_names = {s.name for s in train}
        test_names = {s.name for s in test}
        assert not train_names & test_names
        assert sorted(s.name for s in train + test) == sorted(s.name for s in corpus)

    def test_deterministic(self):
        corpus = self._balanced_corpus(60)
        assert split_train_test(corpus, 0.8, seed=9) == split_train_test(corpus, 0.8, seed=9)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_train_test(self._balanced_corpus(20), 1.0, seed=0)


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

    def test_tool_case_normalized(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("name,label,tool,origin\nabc.evil.com,tunneling,DNSExfiltrator,synthetic\n")
        samples = read_corpus(path)
        assert samples[0].tool == "dnsexfiltrator"
