import io

import numpy as np
import pytest

from tunneldetect.cli import main
from tunneldetect.hostnames import apex_matcher, normalize_name
from tunneldetect.logparse import FORMATS, parse_line
from tunneldetect.model_store import save


class TestPlain:
    def test_basic(self):
        assert parse_line("plain", "x.evil.com\n") == "x.evil.com"

    def test_trailing_dot_trimmed(self):
        assert parse_line("plain", "a.example.org.") == "a.example.org"

    def test_space_before_trailing_dot_skipped(self):
        # the name is checked as the line gives it, so the space inside
        # "a.com ." is never stripped away and accepted
        assert parse_line("plain", "a.com .") is None
        assert parse_line("plain", "a.com .\n") is None
        assert parse_line("plain", "  a.com.  \n") == "a.com"

    def test_garbage_skipped(self):
        assert parse_line("plain", ">>> not a hostname <<<") is None
        assert parse_line("plain", "") is None


class TestDnsmasq:
    LINE = "Jan  1 00:00:00 dnsmasq[1]: query[A] foo.bar from 10.0.0.2"

    def test_stated_grammar(self):
        assert parse_line("dnsmasq", self.LINE) == "foo.bar"

    def test_epoch_prefix_captured(self):
        assert parse_line("dnsmasq", "1700000000 dnsmasq[7]: query[TXT] x.y.z from 10.0.0.9") == "x.y.z"

    def test_reply_lines_skipped(self):
        assert parse_line("dnsmasq", "Jan 1 00:00:00 dnsmasq[1]: reply foo.bar is 1.2.3.4") is None


class TestBind:
    LINE = (
        "12-Feb-2026 03:04:05.678 client @0xdeadbeef 10.0.0.2#4242 "
        "(data.evil.com): query: data.evil.com IN A +E(0)K (10.0.0.1)"
    )

    def test_querylog_line(self):
        assert parse_line("bind", self.LINE) == "data.evil.com"

    def test_comment_line_skipped(self):
        assert parse_line("bind", "; this is a comment") is None


class TestNonAscii:
    """Names whose lowercase is (partly) ASCII are still not ASCII:
    KELVIN SIGN lowercases to 'k', and 'İ' to 'i' plus a combining dot."""

    LINES = {
        "plain": "{}",
        "dnsmasq": "Jan 1 00:00:00 dnsmasq[1]: query[A] {} from 10.0.0.2",
        "bind": "12-Feb-2026 03:04:05.678 client @0x1 10.0.0.2#4242 ({0}): query: {0} IN A +E(0)K (10.0.0.1)",
    }

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", ["\u212aa.example.com", "\u0130.example.com", "x.\u212a"])
    def test_skipped_in_every_format(self, fmt, name):
        assert parse_line(fmt, self.LINES[fmt].format("ka.example.com")) == "ka.example.com"
        assert parse_line(fmt, self.LINES[fmt].format(name)) is None


class TestParseLines:
    def test_skip_plus_record_equals_line_count(self):
        lines = [
            "ok.example.com",
            "###",
            "",
            "also-ok.org",
            "bad host name with spaces",
        ]
        assert [parse_line("plain", line) for line in lines] == ["ok.example.com", None, None, "also-ok.org", None]

    def test_never_raises_on_arbitrary_text(self):
        rng = np.random.default_rng(0)
        pool = list("abc.DEF[]() \t\0§ü\\/=~%?*^!\"'\x07幸運1700000000:#")
        for fmt in ("plain", "dnsmasq", "bind"):
            for _ in range(500):
                line = "".join(rng.choice(pool, size=int(rng.integers(0, 60))))
                parse_line(fmt, line)  # must not raise

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            parse_line("syslog", "x.com")


class TestFilterApex:
    """The `classify --apex` filter: a name is kept if it matches any apex."""

    @staticmethod
    def _kept(names, apexes):
        under_apex = apex_matcher([normalize_name(apex) for apex in apexes])
        return [n for n in names if under_apex(n)]

    def test_label_boundary_match(self):
        kept = self._kept(["a.evil.com", "notevil.com", "evil.com", "b.sub.evil.com"], ["evil.com"])
        assert kept == ["a.evil.com", "evil.com", "b.sub.evil.com"]

    def test_empty_apex_list_passthrough(self, tmp_path, tiny_hp, tiny_model, monkeypatch, capsys):
        model = tmp_path / "model.bin"
        save(tiny_model, tiny_hp, model)
        monkeypatch.setattr("sys.stdin", io.StringIO("a.com\nb.org\n"))
        assert main(["classify", "--model", str(model)]) == 0
        assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == ["a.com", "b.org"]

    def test_multiple_apexes(self):
        kept = self._kept(["x.one.example", "y.two.example", "z.three.example"], ["one.example", "two.example"])
        assert kept == ["x.one.example", "y.two.example"]

    def test_case_insensitive(self):
        assert self._kept(["A.EVIL.COM"], ["evil.com"]) == ["A.EVIL.COM"]
        assert self._kept(["a.evil.com."], ["EVIL.COM."]) == ["a.evil.com."]
