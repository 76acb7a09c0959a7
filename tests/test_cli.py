import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tunneldetect import cli, datagen, evaluation
from tunneldetect.cli import main
from tunneldetect.model_store import load, save
from tunneldetect.tokenizer import encoding_key
from tunneldetect.training import TrainConfig, kfold_cross_validate

from conftest import loaded_float32, make_separable_corpus
from oracles import derive_seed_32
from test_evaluation import SCORE_BATCH_BOUND_F32
from test_model_store import store_weight, with_version

TOY_HP_FLAG = "nf=8 ks=3 sl=1 d=8 l=10 hn=8"
# a valid hyperparameter set whose weights numpy cannot allocate
HUGE_HP_FLAG = "nf=1000000000 ks=4 sl=1 d=100 l=45 hn=256"


def assert_float32_scores(out, model_file, qnames, threshold=0.5):
    """classify's stdout against `score` over the float32 weights that
    classify loads: names and verdicts exactly, and each printed
    probability within half a unit of its sixth decimal plus the float32
    batch bound."""
    params, hp, _vocab = load(model_file, np.float32)
    probs = evaluation.score(params, hp, qnames)
    called = evaluation.is_tunneling(probs, threshold)
    rows = [line.split("\t") for line in out.splitlines(keepends=True)]
    assert [(name, verdict) for name, _, verdict in rows] == [
        (name, f"{datagen.LABEL_TUNNELING if c else datagen.LABEL_NORMAL}\n") for name, c in zip(qnames, called)
    ]
    assert all(len(p) == len("0.123456") for _, p, _ in rows)
    assert np.abs(np.array([float(p) for _, p, _ in rows]) - probs).max() <= 0.5e-6 + SCORE_BATCH_BOUND_F32


def write_toy_corpus(path, total=60, seed=0):
    datagen.write_corpus(make_separable_corpus(total // 2, seed), path)


@pytest.fixture
def toy_corpus_file(tmp_path):
    path = tmp_path / "corpus.csv"
    write_toy_corpus(path)
    return path


@pytest.fixture
def toy_model_file(tmp_path, toy_corpus_file):
    model = tmp_path / "model.bin"
    rc = main([
        "train", "--corpus", str(toy_corpus_file), "--out", str(model),
        "--hp", TOY_HP_FLAG, "--epochs", "10", "--batch", "32", "--seed", "3",
    ])
    assert rc == 0
    return model


class TestGenerateData:
    def test_writes_corpus_and_manifest(self, tmp_path):
        out = tmp_path / "corpus.csv"
        rc = main(["generate-data", "--out", str(out), "--seed", "5", "--per-class", "40"])
        assert rc == 0
        corpus = datagen.read_corpus(out)
        assert len(corpus) == 80
        manifest = json.loads((tmp_path / "corpus.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "generate-data"
        assert manifest["args"]["seed"] == 5
        assert str(out) in manifest["outputs"]

    @pytest.mark.parametrize("threads", ["3", None])
    def test_manifest_records_environment(self, tmp_path, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--seed", "5", "--per-class", "40"]) == 0
        env = json.loads((tmp_path / "corpus.csv.manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["blas"] == "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"])
        assert env["OPENBLAS_NUM_THREADS"] == threads

    def test_identical_seeds_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["generate-data", "--out", str(out), "--seed", "9", "--per-class", "30"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "tunneling": {"iodine": 10, "dnscat2": 5},
            "normal": {"alexa-like": 15},
            "seed": 2,
        }))
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--spec", str(spec)]) == 0
        corpus = datagen.read_corpus(out)
        assert len(corpus) == 30

    @pytest.mark.parametrize("body", [
        {"tunneling": 5, "normal": {}},
        [{"tunneling": {"iodine": 5}, "normal": {}}],
        {"tunneling": {"iodine": "5"}, "normal": {}},
        {"tunneling": {"iodine": 2.5}, "normal": {}},
        {"tunneling": {"iodine": True}, "normal": {}},
        {"tunneling": {"iodine": 5}, "normal": {}, "apexes": "ab.com"},
        {"tunneling": {"iodine": 5}, "normal": {}, "seed": 2.7},
        {"tunneling": {"iodine": 5}, "normal": {}, "seed": "7"},
        {"tunneling": {"iodine": 5}, "normal": {}, "seed": True},
        {"tunneling": {"iodine": 5}},
        {"tunneling": {"iodine": 5}, "normal": {}, "apexes": ["bad apex!"]},
        {"tunneling": {"iodine": 5}, "normal": {}, "apexes": ["ok.example", "x y"]},
        {"tunneling": {"iodine": 5}, "normal": {}, "apexes": [""]},
        {"tunneling": {"iodine": 5}, "normal": {}, "apexes": ["evil.com."]},
        {"tunneling": {"iodine": 5}, "normal": {}, "apexes": ["ex\u212aample.com"]},
    ], ids=["counts-not-object", "top-level-list", "string-count", "float-count",
            "bool-count", "apexes-string", "float-seed", "string-seed", "bool-seed", "missing-normal",
            "apex-bad-chars", "apex-blank", "apex-empty", "apex-trailing-dot", "apex-kelvin-sign"])
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, body):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(body))
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--spec", str(spec)]) == 4
        assert str(spec) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tunneling, error", [
        ({"iodine": 200000, "bogus": 1}, "unknown tunneling tool 'bogus'"),
        ({"iodine": 10**12}, "count for 'iodine' is 1000000000000, above the limit of 80000"),
    ], ids=["unknown-tool", "huge-count"])
    def test_spec_is_checked_before_any_sample(self, tmp_path, capsys, monkeypatch, tunneling, error):
        def fail(*args):
            raise AssertionError("tunneling samples generated before the spec was checked")

        monkeypatch.setattr(datagen, "tunneling_samples", fail)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"tunneling": tunneling, "normal": {}}))
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--spec", str(spec)]) == 4
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_implausible_apex_flag_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        rc = main(["generate-data", "--out", str(out), "--per-class", "10", "--apex", "ok.example", "--apex", "x y"])
        assert rc == 4
        assert "'x y'" in capsys.readouterr().err
        assert not out.exists()

    def test_apex_case_is_accepted(self, tmp_path):
        # the tokenizer folds case, so an upper-case apex is a plausible name
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--per-class", "10", "--apex", "UPPER.Example"]) == 0
        tunneling = [s for s in datagen.read_corpus(out) if s.label == datagen.LABEL_TUNNELING]
        assert tunneling and all(s.name.endswith(".UPPER.Example") for s in tunneling)

    def test_custom_normal_feed(self, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("\n".join(f"site{i}.example" for i in range(50)) + "\n")
        out = tmp_path / "corpus.csv"
        rc = main([
            "generate-data", "--out", str(out), "--seed", "1", "--per-class", "20",
            "--normal-feed", f"alexa-like={feed}",
        ])
        assert rc == 0
        corpus = datagen.read_corpus(out)
        alexa = [s for s in corpus if s.origin == "alexa-like"]
        assert alexa and all(s.name.startswith("site") for s in alexa)

    @pytest.mark.parametrize("flags", [
        ["--spec", "SPEC", "--per-class", "50"],
        ["--full", "--per-class", "10"],
        ["--per-class", "2000", "--full"],
        ["--spec", "SPEC", "--full"],
    ], ids=["spec-per-class", "full-per-class", "per-class-full", "spec-full"])
    def test_size_flags_are_exclusive(self, tmp_path, flags):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"tunneling": {"iodine": 4}, "normal": {"alexa-like": 4}}))
        out = tmp_path / "corpus.csv"
        with pytest.raises(SystemExit) as exc:
            main(["generate-data", "--out", str(out)] + [str(spec) if f == "SPEC" else f for f in flags])
        assert exc.value.code == 2
        assert not out.exists()

    def test_full_sets_per_class(self):
        args = cli.build_parser().parse_args(["generate-data", "--out", "c.csv", "--full"])
        assert args.per_class == datagen.FULL_PER_CLASS
        assert not hasattr(args, "full")

    def test_apex_flag_replaces_spec_apexes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "tunneling": {"iodine": 5, "notspecified": 20},
            "normal": {"alexa-like": 25},
            "apexes": ["one.example", "two.example"],
            "seed": 2,
        }))
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--spec", str(spec), "--apex", "other.example"]) == 0
        tunneling = [s for s in datagen.read_corpus(out) if s.label == datagen.LABEL_TUNNELING]
        assert len(tunneling) == 25 and all(s.name.endswith(".other.example") for s in tunneling)
        args = json.loads((tmp_path / "corpus.csv.manifest.json").read_text())["args"]
        assert args["apexes"] == ["other.example"] and args["seed"] == 2 and args["per_class"] is None

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--per-class", "10", "--seed", "-1"]) == 4
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()
        assert not (tmp_path / "corpus.csv.manifest.json").exists()

    def test_full_seed_5_is_the_corpus_of_the_32_bit_seed_rule(self, tmp_path, monkeypatch):
        # seeds below 2**32 build the corpora they built when the seed
        # was cut to its low 32 bits
        out = tmp_path / "corpus.csv"
        assert main(["generate-data", "--out", str(out), "--full", "--seed", "5"]) == 0
        monkeypatch.setattr(datagen, "_derive_seed", derive_seed_32)
        want = tmp_path / "want.csv"
        datagen.write_corpus(datagen.build_corpus(datagen.desk_scale_spec(seed=5, per_class=datagen.FULL_PER_CLASS)), want)
        assert out.read_bytes() == want.read_bytes()

    def test_bad_feed_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate-data", "--out", str(tmp_path / "c.csv"), "--normal-feed", "nope"])
        assert exc.value.code == 2


class TestTrain:
    def test_produces_loadable_model_and_manifest(self, tmp_path, toy_model_file):
        params, hp, vocab = load(toy_model_file)
        assert hp.nf == 8
        manifest = json.loads((tmp_path / "model.bin.manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert set(manifest["environment"]) == {"numpy", "blas", "OPENBLAS_NUM_THREADS"}
        assert manifest["metrics"]["parameter_count"] == sum(a.size for _, a in params.arrays())
        assert len(manifest["metrics"]["epoch_losses"]) == 10

    def test_missing_corpus_is_io_error(self, tmp_path):
        rc = main(["train", "--corpus", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 3

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,label,tool,origin\nfoo.com,bogus,none,x\n")
        rc = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.bin")])
        assert rc == 4

    def test_implausible_corpus_name_is_data_error(self, tmp_path, toy_corpus_file, capsys):
        rows = toy_corpus_file.read_text().count("\n")
        with open(toy_corpus_file, "a", encoding="utf-8") as fh:
            fh.write("a b.com,normal,none,synthetic\n")
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_file), "--out", str(out), "--hp", TOY_HP_FLAG])
        assert rc == 4
        assert f"{toy_corpus_file}:{rows + 1}: 'a b.com' is not a plausible hostname" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5", "0"])
    def test_bad_learning_rate_is_data_error(self, tmp_path, toy_corpus_file, lr):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_file), "--out", str(out),
                   "--hp", TOY_HP_FLAG, "--lr", lr])
        assert rc == 4
        assert not out.exists()
        assert not (tmp_path / "m.bin.manifest.json").exists()

    def test_diverged_weights_are_not_saved(self, tmp_path, toy_corpus_file, capsys):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_file), "--out", str(out),
                   "--hp", TOY_HP_FLAG, "--epochs", "2", "--lr", "1e300"])
        assert rc == 4
        assert "training diverged: loss is nan at epoch 2, step 1" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "m.bin.manifest.json").exists()

    def test_unallocatable_hyperparameters_are_data_error(self, tmp_path, toy_corpus_file, capsys):
        # numpy refuses the 2.91 TiB conv_w at once, so nothing is allocated
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_file), "--out", str(out), "--hp", HUGE_HP_FLAG])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not enough memory: "), err
        assert not out.exists()
        assert not (tmp_path / "m.bin.manifest.json").exists()

    def test_divergence_prints_only_its_error(self, tmp_path, toy_corpus_file, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--corpus", str(toy_corpus_file), "--out", str(tmp_path / "m.bin"),
                       "--hp", TOY_HP_FLAG, "--epochs", "3", "--lr", "1e300"])
        assert rc == 4
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("epoch   1/3  mean loss ")
        assert err[1] == "error: training diverged: loss is nan at epoch 2, step 1 (learning rate 1e+300)"


class TestEvaluate:
    def test_perfect_model_reports_f1_one(self, tmp_path, toy_corpus_file, toy_model_file, capsys):
        report_path = tmp_path / "report.json"
        scatter_path = tmp_path / "scatter.csv"
        rc = main([
            "evaluate", "--model", str(toy_model_file), "--corpus", str(toy_corpus_file),
            "--threshold", "0.5", "--report", str(report_path), "--scatter", str(scatter_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["classes"]["normal"]["f1"] == 1.0
        assert report["classes"]["tunneling"]["f1"] == 1.0
        out = capsys.readouterr().out
        assert "tunneling" in out
        assert scatter_path.read_text().count("\n") == 1 + 60

    @pytest.mark.parametrize("per_class", [None, evaluation.SCORE_CHUNK + 19], ids=["toy", "beyond-one-chunk"])
    def test_scatter_is_float32_scoring(self, tmp_path, toy_corpus_file, toy_model_file, per_class):
        corpus_file = toy_corpus_file
        if per_class is not None:
            corpus_file = tmp_path / "desk.csv"
            datagen.write_corpus(datagen.build_corpus(datagen.desk_scale_spec(seed=4, per_class=per_class)), corpus_file)
        corpus = datagen.read_corpus(corpus_file)
        scatter = tmp_path / "scatter.csv"
        assert main(["evaluate", "--model", str(toy_model_file), "--corpus", str(corpus_file),
                     "--scatter", str(scatter)]) == 0
        params, hp, _vocab = load(toy_model_file)
        want = tmp_path / "want.csv"
        evaluation.export_scatter(
            corpus, evaluation.score(loaded_float32(params, hp, tmp_path / "copy.bin"), hp, [s.name for s in corpus]), want)
        assert scatter.read_bytes() == want.read_bytes()

    def test_corrupt_model_is_data_error(self, tmp_path, toy_corpus_file, toy_model_file):
        data = bytearray(toy_model_file.read_bytes())
        data[-1] ^= 0xFF
        toy_model_file.write_bytes(bytes(data))
        rc = main(["evaluate", "--model", str(toy_model_file), "--corpus", str(toy_corpus_file)])
        assert rc == 4

    @pytest.mark.parametrize("body", [
        "foo.com,normal,none,x\n" + "a" * 200_000 + ",normal,none,x\n",
        b"foo.com,normal,none,x\n\xff\xfe.com,normal,none,x\n",
    ], ids=["oversize-field", "invalid-utf8"])
    def test_malformed_corpus_csv_is_data_error(self, tmp_path, toy_model_file, body, capsys):
        bad = tmp_path / "bad.csv"
        head = "name,label,tool,origin\n"
        if isinstance(body, bytes):
            bad.write_bytes(head.encode() + body)
        else:
            bad.write_text(head + body)
        rc = main(["evaluate", "--model", str(toy_model_file), "--corpus", str(bad)])
        assert rc == 4
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_threshold_out_of_range_is_usage_error(self, toy_corpus_file, toy_model_file):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", str(toy_model_file),
                  "--corpus", str(toy_corpus_file), "--threshold", "1.5"])
        assert exc.value.code == 2


@pytest.mark.parametrize("threshold", [0.5, 0.9])
def test_evaluate_and_classify_give_equal_verdicts(tmp_path, toy_model_file, capsys, monkeypatch, threshold):
    # Both score with the weights loaded as float32. classify reads the
    # names in reverse, so each name shares its forward batch with other
    # rows than in evaluate: verdicts agree but within 1e-6 of the
    # threshold, and probabilities within the printed rounding plus the
    # float32 batch bound.
    corpus_file, scatter = tmp_path / "desk.csv", tmp_path / "scatter.csv"
    spec = datagen.desk_scale_spec(seed=6, per_class=evaluation.SCORE_CHUNK + 19)
    datagen.write_corpus(datagen.build_corpus(spec), corpus_file)
    assert main(["evaluate", "--model", str(toy_model_file), "--corpus", str(corpus_file),
                 "--threshold", str(threshold), "--scatter", str(scatter)]) == 0
    rows = [row.split(",") for row in scatter.read_text().splitlines()[1:]]
    names = [name for name, _, _, _ in rows]
    evaluated = np.array([float(p) for _, _, _, p in rows])
    assert len({encoding_key(n, load(toy_model_file)[1].l) for n in names}) > evaluation.SCORE_CHUNK
    capsys.readouterr()

    monkeypatch.setattr("sys.stdin", io.StringIO("".join(name + "\n" for name in reversed(names))))
    assert main(["classify", "--model", str(toy_model_file), "--threshold", str(threshold)]) == 0
    lines = [line.split("\t") for line in reversed(capsys.readouterr().out.splitlines())]
    assert [name for name, _, _ in lines] == names
    classified = np.array([float(p) for _, p, _ in lines])
    assert np.abs(classified - evaluated).max() <= 0.5e-6 + SCORE_BATCH_BOUND_F32
    verdicts = np.array([verdict == datagen.LABEL_TUNNELING for _, _, verdict in lines])
    clear = np.abs(evaluated - threshold) > 1e-6
    np.testing.assert_array_equal(verdicts[clear], evaluation.is_tunneling(evaluated, threshold)[clear])


class TestClassify:
    def test_plain_stdin(self, toy_model_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("example.com\nzzzzzzzz.example\n"))
        rc = main(["classify", "--model", str(toy_model_file), "--threshold", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        name, prob, verdict = lines[0].split("\t")
        assert name == "example.com"
        assert 0.0 < float(prob) < 1.0
        assert verdict in ("normal", "tunneling")

    def test_dnsmasq_file_input_with_apex_filter(self, tmp_path, toy_model_file, capsys):
        log = tmp_path / "queries.log"
        log.write_text(
            "Jan 1 00:00:00 dnsmasq[1]: query[A] aaaa.good.example from 10.0.0.2\n"
            "Jan 1 00:00:00 dnsmasq[1]: query[A] zzzz.evil.example from 10.0.0.2\n"
            "garbage line\n"
        )
        rc = main([
            "classify", "--model", str(toy_model_file), "--input", str(log),
            "--format", "dnsmasq", "--apex", "evil.example",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("zzzz.evil.example\t")
        assert "skipped 1" in captured.err
        assert "names outside --apex: 1" in captured.err

    def test_weight_beyond_float32_range_is_data_error(self, toy_model_file, capsys, monkeypatch):
        # a well-formed float64 file whose weight float32 cannot hold
        params, hp, _vocab = load(toy_model_file)
        params.dense1_w[3, 1] = 1e39
        save(params, hp, toy_model_file)
        monkeypatch.setattr("sys.stdin", io.StringIO("example.com\n"))
        assert main(["classify", "--model", str(toy_model_file)]) == 4
        captured = capsys.readouterr()
        assert "dense1_w holds a weight beyond the range of float32" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_weight_is_data_error(self, toy_model_file, capsys, monkeypatch, value):
        # a well-formed file (its checksum holds) that save would refuse
        store_weight(toy_model_file, load(toy_model_file)[1], "dense2_b", value)
        monkeypatch.setattr("sys.stdin", io.StringIO("example.com\n"))
        assert main(["classify", "--model", str(toy_model_file)]) == 4
        captured = capsys.readouterr()
        assert "dense2_b holds a non-finite weight" in captured.err
        assert captured.out == ""

    def test_repeat_runs_print_identical_bytes(self, tmp_path, toy_model_file, capsys):
        path = tmp_path / "queries.log"
        write_repetitive_log(path, load(toy_model_file)[1].l)
        outputs = []
        for _ in range(2):
            assert main(["classify", "--model", str(toy_model_file), "--input", str(path), "--format", "dnsmasq"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize("apex", ["", "exfil test.com", "a..example"])
    def test_implausible_apex_is_data_error(self, tmp_path, toy_model_file, capsys, apex):
        # rejected before the input is opened: a missing input would exit 3
        rc = main(["classify", "--model", str(toy_model_file), "--input", str(tmp_path / "absent.log"),
                   "--apex", "ok.example", "--apex", apex])
        assert rc == 4
        captured = capsys.readouterr()
        assert repr(apex) in captured.err
        assert captured.out == ""

    def test_apex_is_normalized_before_the_check(self, toy_model_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a.exfiltest.com\nb.example.org\n"))
        assert main(["classify", "--model", str(toy_model_file), "--apex", " EXFILTEST.com. "]) == 0
        captured = capsys.readouterr()
        assert [line.split("\t")[0] for line in captured.out.splitlines()] == ["a.exfiltest.com"]
        assert "names outside --apex: 1" in captured.err

    def test_stdin_beyond_one_chunk_with_skipped_and_outside_lines(self, toy_model_file, capsys, monkeypatch):
        lines, scored = [], []
        for i in range(2 * evaluation.SCORE_CHUNK + 37):
            if i % 7 == 3:
                lines.append("bad name!\n")
            elif i % 5 == 1:
                lines.append(f"x{i}.elsewhere.example\n")
            else:
                scored.append(f"{'az'[i % 2] * (i % 9 + 1)}.evil.example")
                lines.append(scored[-1] + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        rc = main(["classify", "--model", str(toy_model_file), "--apex", "evil.example", "--threshold", "0.5"])
        assert rc == 0
        captured = capsys.readouterr()
        _params, hp, _vocab = load(toy_model_file)
        assert len(scored) > evaluation.SCORE_CHUNK
        assert_float32_scores(captured.out, toy_model_file, scored)
        skipped = sum(line == "bad name!\n" for line in lines)
        outside = len(lines) - skipped - len(scored)
        assert captured.err.splitlines() == [
            f"skipped {skipped} unparseable lines",
            f"names scored: {len(scored)}, distinct names forwarded: {len({encoding_key(n, hp.l) for n in scored})}, "
            f"names outside --apex: {outside}",
        ]


def write_repetitive_log(path, hp_l):
    """A dnsmasq log of more than SCORE_CHUNK accepted lines: repeated
    names, 0x20 mixed-case variants, two names equal in their first hp_l
    characters, and unparseable lines. Returns the accepted qnames."""
    rng = np.random.default_rng(21)
    pool = [f"host{i}.example.com" for i in range(40)]
    pool += ["z" * hp_l + ".one.example", "z" * hp_l + ".two.example"]
    qnames = []
    lines = []
    for i in range(3 * evaluation.SCORE_CHUNK):
        if i % 50 == 7:
            lines.append("garbage line\n")
            continue
        name = pool[min(int(rng.zipf(1.3)) - 1, len(pool) - 1)] if i % 9 else pool[i // 9 % len(pool)]
        if i % 5 == 0:
            name = "".join(c.upper() if rng.random() < 0.5 else c for c in name)
        qnames.append(name)
        lines.append(f"Jan 1 00:00:00 dnsmasq[1]: query[A] {name} from 10.0.0.2\n")
    path.write_text("".join(lines))
    return qnames


@pytest.mark.parametrize("subcommand", ["evaluate", "classify"])
def test_version_1_model_is_data_error(toy_corpus_file, toy_model_file, capsys, monkeypatch, subcommand):
    with_version(toy_model_file, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO("example.com\n"))
    extra = ["--corpus", str(toy_corpus_file)] if subcommand == "evaluate" else []
    assert main([subcommand, "--model", str(toy_model_file), *extra]) == 4
    captured = capsys.readouterr()
    assert "model format version 1, this reader supports only version 2; retrain" in captured.err
    assert captured.out == ""


class TestClassifyCache:
    @pytest.fixture
    def log(self, tmp_path, toy_model_file):
        _params, hp, _vocab = load(toy_model_file)
        path = tmp_path / "queries.log"
        qnames = write_repetitive_log(path, hp.l)
        keys = {encoding_key(n, hp.l) for n in qnames}
        assert len(qnames) > evaluation.SCORE_CHUNK
        assert len(keys) < len({n.lower() for n in qnames}) < len(set(qnames))
        return path, qnames, keys

    def classify(self, model_file, path, monkeypatch, fmt="dnsmasq"):
        """The rows of each forward_batch call of classify on `path`."""
        rows = []
        forward = evaluation.forward_batch

        def counting(params, hp, x):
            rows.append(len(x))
            return forward(params, hp, x)

        monkeypatch.setattr(evaluation, "forward_batch", counting)
        rc = main(["classify", "--model", str(model_file), "--input", str(path),
                   "--format", fmt, "--threshold", "0.5"])
        assert rc == 0
        return list(rows)  # later scoring in the test appends to `rows`

    def test_equals_uncached_and_forwards_each_key_once(self, toy_model_file, log, monkeypatch, capsys):
        path, qnames, keys = log
        forwarded = sum(self.classify(toy_model_file, path, monkeypatch))
        captured = capsys.readouterr()
        assert_float32_scores(captured.out, toy_model_file, qnames)
        assert forwarded == len(keys)
        assert f"names scored: {len(qnames)}, distinct names forwarded: {len(keys)}" in captured.err
        assert "--apex" not in captured.err

    @pytest.mark.parametrize("chunk", [evaluation.SCORE_CHUNK, 8])
    def test_forwards_full_chunks_of_fresh_keys(self, toy_model_file, log, monkeypatch, capsys, chunk):
        path, qnames, keys = log
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", chunk)
        rows = self.classify(toy_model_file, path, monkeypatch)
        assert_float32_scores(capsys.readouterr().out, toy_model_file, qnames)
        assert len(rows) == math.ceil(len(keys) / chunk)
        assert rows[:-1] == [chunk] * (len(rows) - 1)
        assert sum(rows) == len(keys)

    def test_eviction_keeps_output(self, toy_model_file, log, monkeypatch, capsys):
        path, qnames, keys = log
        monkeypatch.setattr(cli, "NAME_CACHE_SIZE", 3)
        forwarded = sum(self.classify(toy_model_file, path, monkeypatch))
        assert_float32_scores(capsys.readouterr().out, toy_model_file, qnames)
        assert forwarded > len(keys)

    def test_batches_keep_to_the_cache_size(self, toy_model_file, log, monkeypatch):
        _path, qnames, _keys = log
        params, hp, _vocab = load(toy_model_file)
        monkeypatch.setattr(cli, "NAME_CACHE_SIZE", 5)
        cache, names, probs = {}, [], []
        for batch, batch_probs, fresh in cli._classify_batches(params, hp, qnames, cache):
            assert 0 < len(batch) <= 5
            assert len(cache) - fresh <= 5  # cut back after the previous batch
            names += batch
            probs += batch_probs
        assert len(cache) <= 5
        assert names == qnames
        assert np.max(np.abs(np.array(probs) - evaluation.score(params, hp, qnames))) <= 1e-12

    def test_hits_after_the_first_batch_flush_at_end_of_input(self, tmp_path, toy_model_file, monkeypatch, capsys):
        params, hp, _vocab = load(toy_model_file)
        first = [f"n{i}.example" for i in range(evaluation.SCORE_CHUNK)]
        qnames = first + [first[i % 7] for i in range(3 * evaluation.SCORE_CHUNK)]
        assert len({encoding_key(n, hp.l) for n in first}) == len(first)
        path = tmp_path / "names.txt"
        path.write_text("".join(name + "\n" for name in qnames))
        rows = self.classify(toy_model_file, path, monkeypatch, fmt="plain")
        assert_float32_scores(capsys.readouterr().out, toy_model_file, qnames)
        assert rows == [evaluation.SCORE_CHUNK]
        batches = [(len(batch), fresh) for batch, _, fresh in cli._classify_batches(params, hp, qnames, {})]
        assert batches == [(len(first), len(first)), (len(qnames) - len(first), 0)]

    def test_hit_makes_key_most_recently_used(self, tiny_hp, tiny_model, monkeypatch):
        monkeypatch.setattr(cli, "NAME_CACHE_SIZE", 2)
        cache = {}
        fresh = [[f for _, _, f in cli._classify_batches(tiny_model, tiny_hp, [name], cache)]
                 for name in ("a.com", "b.com", "A.com", "c.com", "a.com")]
        assert fresh == [[1], [1], [0], [1], [0]]
        assert list(cache) == ["c.com", "a.com"]


class TestGridSearch:
    def test_single_point_grid_matches_direct_cv(self, tmp_path, toy_corpus_file):
        grid = tmp_path / "grid.txt"
        grid.write_text(TOY_HP_FLAG.replace(" ", ", ") + "\n")
        report_path = tmp_path / "grid.json"
        rc = main([
            "grid-search", "--corpus", str(toy_corpus_file), "--grid", str(grid),
            "--folds", "3", "--epochs", "4", "--batch", "32", "--seed", "7",
            "--report", str(report_path),
        ])
        assert rc == 0
        rows = json.loads(report_path.read_text())
        assert len(rows) == 1

        corpus = datagen.read_corpus(toy_corpus_file)
        from tunneldetect.training import parse_grid_line
        hp = parse_grid_line(TOY_HP_FLAG)
        mean_f1, sd_f1 = kfold_cross_validate(
            corpus, hp, TrainConfig(epochs=4, batch_size=32, seed=7), k=3
        )
        assert rows[0]["mean_f1"] == mean_f1
        assert rows[0]["sd_f1"] == sd_f1

    def test_manifest_records_learning_rate(self, tmp_path, toy_corpus_file):
        grid = tmp_path / "grid.txt"
        grid.write_text(TOY_HP_FLAG + "\n")
        report_path = tmp_path / "r.json"
        rc = main([
            "grid-search", "--corpus", str(toy_corpus_file), "--grid", str(grid),
            "--folds", "2", "--epochs", "1", "--lr", "0.01", "--report", str(report_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["args"]["lr"] == 0.01

    def test_unallocatable_grid_line_is_data_error(self, tmp_path, toy_corpus_file, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text(TOY_HP_FLAG + "\n" + HUGE_HP_FLAG + "\n")
        report_path = tmp_path / "grid.json"
        rc = main(["grid-search", "--corpus", str(toy_corpus_file), "--grid", str(grid),
                   "--folds", "2", "--epochs", "1", "--report", str(report_path)])
        assert rc == 4
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not enough memory: "), err
        assert captured.out == ""
        assert not report_path.exists()
        assert not (tmp_path / "grid.json.manifest.json").exists()

    @pytest.mark.parametrize("lr", ["nan", "-0.5"])
    def test_bad_learning_rate_is_data_error(self, tmp_path, toy_corpus_file, lr):
        report_path = tmp_path / "grid.json"
        rc = main(["grid-search", "--corpus", str(toy_corpus_file), "--lr", lr,
                   "--report", str(report_path)])
        assert rc == 4
        assert not report_path.exists()
        assert not (tmp_path / "grid.json.manifest.json").exists()


SRC = Path(__file__).resolve().parent.parent / "src"


class TestBlasThreads:
    """Training in a fresh process at 1 and 2 BLAS threads: each setting
    reproduces its model file byte for byte, and the manifest says which
    setting made it."""

    # large enough that OpenBLAS splits some GEMMs across two threads (on
    # a 2-CPU machine the 1- and 2-thread models differ), so each setting
    # is checked with threaded arithmetic
    HP_FLAG = "nf=64 ks=4 sl=1 d=32 l=45 hn=32"

    def train(self, tmp_path, corpus, threads, run):
        out = tmp_path / f"model-{threads}-{run}.bin"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-c", "import sys; from tunneldetect.cli import main; sys.exit(main())",
             "train", "--corpus", str(corpus), "--out", str(out), "--hp", self.HP_FLAG,
             "--epochs", "1", "--batch", "128", "--seed", "4"],
            env=env, check=True, capture_output=True,
        )
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        return out.read_bytes(), manifest["environment"]["OPENBLAS_NUM_THREADS"]

    def test_each_setting_reproduces_its_model(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        datagen.write_corpus(datagen.build_corpus(datagen.desk_scale_spec(seed=3, per_class=128)), corpus)
        for threads in ("1", "2"):
            (first, env1), (second, env2) = (self.train(tmp_path, corpus, threads, run) for run in (1, 2))
            assert first == second, f"OPENBLAS_NUM_THREADS={threads}"
            assert env1 == env2 == threads


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tunneldetect" in capsys.readouterr().out
