"""Command-line interface: generate → label → train → recommend round trip."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import (EXPERIMENTS, PRESETS, accuracy_weight, build_parser,
                       main, positive_int)
from repro.db.io import FORMAT_VERSION, load_dataset


def write_zero_table_dataset(path) -> None:
    """A well-formed dataset file whose metadata lists no table."""
    metadata = {"format_version": FORMAT_VERSION, "name": "empty",
                "tables": {}, "rows": {}, "foreign_keys": []}
    np.savez(path, metadata=np.frombuffer(json.dumps(metadata).encode(),
                                          dtype=np.uint8),
             columns=np.zeros(0, dtype=np.int64))


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_all_experiments_have_drivers(self):
        import importlib
        for name, (module_name, _) in EXPERIMENTS.items():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            assert hasattr(module, "run"), name

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.seed is None
        assert args.out == "dataset.npz"

    def test_recommend_requires_advisor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "ds.npz"])

    @pytest.mark.parametrize("text", ["0", "1", "0.5", "1e-3"])
    def test_weight_type_accepts_the_unit_interval(self, text):
        assert accuracy_weight(text) == float(text)

    @pytest.mark.parametrize("text", ["1.5", "-0.1", "nan", "inf", "high"])
    def test_weight_type_rejects_everything_else(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            accuracy_weight(text)

    def test_serve_help_lists_no_removed_tier_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        for flag in ("--quantize", "--ivf", "--nprobe", "--cache-dir",
                     "--serving-dtype", "--shards", "--deadline-ms",
                     "--workers", "--batch-window-ms"):
            assert flag not in out
        for flag in ("--dtype", "--max-batch"):
            assert flag in out

    @pytest.mark.parametrize("text, value", [("1", 1), ("3", 3), ("16", 16)])
    def test_positive_int_accepts_its_range(self, text, value):
        assert positive_int(text) == value

    @pytest.mark.parametrize("text", ["0", "-2", "1.5", "two", ""])
    def test_positive_int_rejects_everything_else(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError,
                           match="expected a positive integer"):
            positive_int(text)

    @pytest.mark.parametrize("argv, flag", [
        (["recommend", "ds.npz", "--advisor", "a.npz", "--k", "0"], "--k"),
        (["serve", "ds.npz", "--advisor", "a.npz", "--k", "-1"], "--k"),
        (["serve", "ds.npz", "--advisor", "a.npz", "--k", "two"], "--k"),
        (["train", "--corpus", "0"], "--corpus"),
        (["serve", "--daemon", "--advisor", "a.npz", "--max-batch", "0"],
         "--max-batch"),
    ], ids=["recommend-k-zero", "serve-k-negative", "serve-k-text",
            "train-corpus-zero", "max-batch-zero"])
    def test_bad_flag_value_is_a_readable_exit_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert flag in errors[0]

    @pytest.mark.parametrize("flag, value", [
        ("--shards", "2"), ("--workers", "2"), ("--batch-window-ms", "5")])
    def test_serve_refuses_a_deleted_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "ds.npz", "--advisor", "a.npz", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"repro: error: unrecognized arguments: {flag} {value}"]


class TestGenerate:
    def test_random_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "ds.npz")
        assert main(["generate", "--seed", "5", "--out", out]) == 0
        dataset = load_dataset(out)
        assert len(dataset.tables) >= 1
        assert "wrote" in capsys.readouterr().out

    def test_preset_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "imdb.npz")
        assert main(["generate", "--preset", "imdb-light", "--out", out]) == 0
        dataset = load_dataset(out)
        assert len(dataset.tables) == 6  # Table I: IMDB-light has 6 tables

    def test_generate_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        main(["generate", "--seed", "9", "--out", a])
        main(["generate", "--seed", "9", "--out", b])
        da, db = load_dataset(a), load_dataset(b)
        assert da.table_names == db.table_names
        for name in da.table_names:
            for col in da[name].column_names:
                np.testing.assert_array_equal(da[name][col], db[name][col])

    def test_all_presets_generate(self, tmp_path):
        for preset in PRESETS:
            out = str(tmp_path / f"{preset}.npz")
            assert main(["generate", "--preset", preset, "--out", out]) == 0


class TestLabelAndRecommend:
    @pytest.fixture(scope="class")
    def dataset_file(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "ds.npz")
        main(["generate", "--seed", "3", "--out", path])
        return path

    @pytest.fixture(scope="class")
    def advisor_file(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli_train")
        advisor = str(tmp / "advisor.npz")
        cache = str(tmp / "cache")
        code = main(["train", "--corpus", "8", "--fast", "--out", advisor,
                     "--cache", cache])
        assert code == 0
        return advisor

    def test_label_prints_model_table(self, dataset_file, capsys):
        assert main(["label", dataset_file, "--fast"]) == 0
        out = capsys.readouterr().out
        assert "best model:" in out
        for model in ("BayesCard", "DeepDB", "MSCN", "LW-NN"):
            assert model in out

    def test_label_percentile_metric(self, dataset_file, capsys):
        assert main(["label", dataset_file, "--fast", "--metric", "p95",
                     "--weight", "0.5"]) == 0
        assert "p95" in capsys.readouterr().out

    def test_train_then_recommend(self, advisor_file, dataset_file, capsys):
        code = main(["recommend", dataset_file, "--advisor", advisor_file,
                     "--weight", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended model:" in out
        assert "ranking:" in out

    def test_recommend_with_custom_k(self, advisor_file, dataset_file, capsys):
        assert main(["recommend", dataset_file, "--advisor", advisor_file,
                     "--k", "1"]) == 0
        assert "recommended model:" in capsys.readouterr().out

    def test_recommend_featurizes_once(self, advisor_file, dataset_file,
                                       capsys, monkeypatch):
        import repro.core.advisor as advisor_module
        from repro.core.persistence import load_advisor

        advisor = load_advisor(advisor_file)
        dataset = load_dataset(dataset_file)
        rec = advisor.recommend(dataset, accuracy_weight=0.9)
        expected_out = [f"dataset {dataset.name!r}  (w_a = 0.9)",
                        f"recommended model: {rec.model}", "ranking:"]
        expected_out += [
            f"  {name:<12} {score:.3f}" + (" <--" if name == rec.model else "")
            for name, score in rec.ranking()]
        drifted = advisor.is_drifted(dataset)

        calls = []
        real = advisor_module.build_feature_graph
        monkeypatch.setattr(
            advisor_module, "build_feature_graph",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        assert main(["recommend", dataset_file, "--advisor", advisor_file,
                     "--weight", "0.9"]) == 0
        assert len(calls) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == expected_out
        assert ("out-of-distribution" in captured.err) == drifted

    def test_serve_batch(self, advisor_file, dataset_file, tmp_path, capsys):
        other = str(tmp_path / "other.npz")
        main(["generate", "--seed", "11", "--out", other])
        code = main(["serve", dataset_file, other, "--advisor", advisor_file,
                     "--weight", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2 recommendations" in out
        assert "embedding cache (in-memory)" in out
        assert "neighbor search: exact" in out

    def test_serve_at_float32_tier(self, advisor_file, dataset_file, capsys):
        code = main(["serve", dataset_file, "--advisor", advisor_file,
                     "--dtype", "float32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 1 recommendations" in out
        assert "(float32 tier)" in out

    def test_serve_dtype_cast_preserves_recommendation(self, advisor_file,
                                                       dataset_file, capsys):
        assert main(["recommend", dataset_file, "--advisor",
                     advisor_file]) == 0
        recommended = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("recommended model:")][0]
        model = recommended.split(":")[1].strip()
        assert main(["serve", dataset_file, "--advisor", advisor_file,
                     "--dtype", "float32"]) == 0
        assert f"-> {model}" in capsys.readouterr().out

    def test_serve_float32_tier_with_int8_candidates(self, advisor_file,
                                                     dataset_file, tmp_path,
                                                     capsys):
        from repro.core.persistence import load_advisor, save_advisor
        from repro.core.serving import ANNConfig

        assert main(["recommend", dataset_file, "--advisor",
                     advisor_file]) == 0
        recommended = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("recommended model:")][0]
        model = recommended.split(":")[1].strip()
        # The shared CLI advisor sits below the default int8 threshold;
        # lower it so the tier attaches on load.
        advisor = load_advisor(advisor_file)
        advisor.config.ann = ANNConfig(threshold=4)
        low_threshold = str(tmp_path / "advisor-low-threshold.npz")
        save_advisor(advisor, low_threshold)
        code = main(["serve", dataset_file, "--advisor", low_threshold,
                     "--dtype", "float32"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"-> {model}" in out
        assert "neighbor search: int8 candidates" in out
        assert "(float32 tier)" in out

    @pytest.mark.parametrize("command", ["label", "recommend", "serve"])
    def test_out_of_range_weight_is_a_readable_exit_2(
            self, command, advisor_file, dataset_file, capsys):
        argv = [command, dataset_file, "--weight", "1.5"]
        argv += ["--fast"] if command == "label" else ["--advisor",
                                                       advisor_file]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--weight" in errors[0] and "outside [0, 1]" in errors[0]

    @pytest.mark.parametrize("kind", ["missing", "torn"])
    @pytest.mark.parametrize("command", ["label", "recommend", "serve"])
    def test_bad_dataset_file_is_a_readable_exit_2(
            self, command, kind, advisor_file, dataset_file, tmp_path,
            capsys):
        bad = tmp_path / "ds.npz"
        if kind == "torn":
            bad.write_bytes(Path(dataset_file).read_bytes()[:200])
        argv = [command, str(bad)]
        argv += ["--fast"] if command == "label" else ["--advisor",
                                                       advisor_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot load dataset from {str(bad)!r}")
        assert len(captured.err.splitlines()) == 1

    def test_recommend_of_a_zero_table_file_is_a_readable_exit_2(
            self, advisor_file, tmp_path, capsys):
        empty = tmp_path / "empty.npz"
        write_zero_table_dataset(empty)
        assert main(["recommend", str(empty), "--advisor", advisor_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot load dataset from {str(empty)!r}")
        assert "at least one table" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["missing", "torn"])
    def test_recommend_with_a_bad_advisor_file_is_a_readable_exit_2(
            self, kind, advisor_file, dataset_file, tmp_path, capsys):
        bad = tmp_path / "advisor.npz"
        if kind == "torn":
            bad.write_bytes(Path(advisor_file).read_bytes()[:200])
        assert main(["recommend", dataset_file, "--advisor", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot load advisor from {str(bad)!r}")
        assert len(captured.err.splitlines()) == 1

    def test_serve_refuses_upcasting_a_float32_advisor(self, advisor_file,
                                                       dataset_file,
                                                       tmp_path):
        from repro.core.persistence import load_advisor, save_advisor

        advisor = load_advisor(advisor_file)
        advisor.set_dtype("float32")
        float32_file = str(tmp_path / "advisor32.npz")
        save_advisor(advisor, float32_file)
        with pytest.raises(ValueError, match="unrecoverable"):
            main(["serve", dataset_file, "--advisor", float32_file,
                  "--dtype", "float64"])


class TestModels:
    def test_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "BayesCard" in out and "FLAT" in out


class TestServeFaultTolerance:
    """`repro serve` robustness: readable failures and daemon mode."""

    @pytest.fixture(scope="class")
    def dataset_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve_ds")
        paths = []
        for seed in (3, 4):
            path = str(tmp / f"ds{seed}.npz")
            main(["generate", "--seed", str(seed), "--out", path])
            paths.append(path)
        return paths

    @pytest.fixture(scope="class")
    def advisor_file(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve_train")
        advisor = str(tmp / "advisor.npz")
        code = main(["train", "--corpus", "8", "--fast", "--out", advisor,
                     "--cache", str(tmp / "cache")])
        assert code == 0
        return advisor

    def test_missing_advisor_is_a_readable_exit_2(self, dataset_files,
                                                  capsys):
        code = main(["serve", dataset_files[0],
                     "--advisor", "/nonexistent/advisor.npz"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load advisor")
        assert "Traceback" not in captured.err

    def test_corrupt_advisor_is_a_readable_exit_2(self, dataset_files,
                                                  tmp_path, capsys):
        bad = tmp_path / "advisor.npz"
        bad.write_bytes(b"this is not an npz payload")
        code = main(["serve", dataset_files[0], "--advisor", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_serve_of_a_good_and_a_missing_dataset_serves_nothing_exit_2(
            self, advisor_file, dataset_files, capsys):
        code = main(["serve", dataset_files[0], "/no/such/dataset.npz",
                     "--advisor", advisor_file])
        assert code == 2
        captured = capsys.readouterr()
        assert "served" not in captured.out
        assert captured.err.splitlines() == [
            "error: cannot load dataset from '/no/such/dataset.npz': "
            "FileNotFoundError: [Errno 2] No such file or directory: "
            "'/no/such/dataset.npz'"]

    def test_no_datasets_without_daemon_is_exit_2(self, advisor_file, capsys):
        code = main(["serve", "--advisor", advisor_file])
        assert code == 2
        assert "no datasets" in capsys.readouterr().err

    def test_daemon_serves_stdin_paths_and_reports_bad_ones(
            self, advisor_file, dataset_files, capsys, monkeypatch):
        import io

        lines = f"{dataset_files[0]}\n\n/no/such/dataset.npz\n{dataset_files[1]}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code = main(["serve", "--daemon", "--advisor", advisor_file])
        assert code == 0
        captured = capsys.readouterr()
        assert "served 2 recommendations" in captured.out
        assert "/no/such/dataset.npz -> ERROR:" in captured.err

    def test_daemon_reports_a_zero_table_file_and_serves_the_rest(
            self, advisor_file, dataset_files, tmp_path, capsys, monkeypatch):
        import io

        empty = tmp_path / "empty.npz"
        write_zero_table_dataset(empty)
        good = dataset_files[0]
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(f"{good}\n{empty}\n{good}\n"))
        assert main(["serve", "--daemon", "--advisor", advisor_file]) == 0
        captured = capsys.readouterr()
        answers = [line for line in captured.out.splitlines()
                   if "->" in line]
        assert len(answers) == 2
        assert "served 2 recommendations" in captured.out
        errors = [line for line in captured.err.splitlines() if line]
        assert len(errors) == 1
        assert errors[0].startswith(
            f"  {empty} -> ERROR: cannot load dataset")
        assert "at least one table" in errors[0]

    def test_daemon_survives_corrupt_dataset_and_batches_bitforbit(
            self, advisor_file, dataset_files, tmp_path, capsys, monkeypatch):
        """The daemon stream: good paths, a missing path and a corrupt
        dataset file.  The process must survive all three, serve the good
        ones, and the coalesced batched answers must be bit-for-bit equal
        to a serial (--max-batch 1) run of the same stream."""
        import io

        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"not an npz payload at all")
        lines = (f"{dataset_files[0]}\n/no/such/dataset.npz\n{corrupt}\n"
                 f"{dataset_files[1]}\n{dataset_files[0]}\n")

        def run(*extra):
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            code = main(["serve", "--daemon", "--advisor", advisor_file,
                         *extra])
            assert code == 0
            return capsys.readouterr()

        serial = run("--max-batch", "1")
        coalesced = run()
        picks = lambda out: [line for line in out.splitlines()
                             if "->" in line and "ERROR" not in line]
        assert picks(coalesced.out) == picks(serial.out)
        assert len(picks(coalesced.out)) == 3
        for captured in (serial, coalesced):
            assert "served 3 recommendations" in captured.out
            assert "/no/such/dataset.npz -> ERROR:" in captured.err
            assert f"{corrupt} -> ERROR:" in captured.err
            assert "Traceback" not in captured.err

    @staticmethod
    def picks(out: str) -> list[tuple[str, str]]:
        """(dataset name, model) of every served line, in output order."""
        return [tuple(part.strip() for part in line.split("->"))
                for line in out.splitlines()
                if "->" in line and "ERROR" not in line]

    @pytest.mark.parametrize("weight, k", [("1.0", None), ("0.3", "3")])
    def test_serve_answers_are_the_library_recommend_batch(
            self, advisor_file, dataset_files, capsys, weight, k):
        """`repro serve` has one search path: the advisor's in-process
        recommend_batch over the loaded datasets."""
        from repro.core.persistence import load_advisor

        argv = ["serve", *dataset_files, "--advisor", advisor_file,
                "--weight", weight]
        if k is not None:
            argv += ["--k", k]
        assert main(argv) == 0
        out = capsys.readouterr().out
        datasets = [load_dataset(path) for path in dataset_files]
        want = load_advisor(advisor_file).recommend_batch(
            datasets, accuracy_weight=float(weight),
            k=None if k is None else int(k))
        assert self.picks(out) == [(d.name, rec.model)
                                   for d, rec in zip(datasets, want)]
        assert f"served 2 recommendations (w_a = {float(weight)})" in out
        assert "neighbor search: exact over 8 RCS members" in out

    def test_daemon_on_a_pipe_serves_the_serve_answers(
            self, advisor_file, dataset_files, capsys, monkeypatch):
        """The daemon reading a real pipe, whose lines the coalescer polls
        for, serves what ``serve`` over the same files serves."""
        import os

        paths = [*dataset_files, dataset_files[0]]
        assert main(["serve", *paths, "--advisor", advisor_file]) == 0
        want = self.picks(capsys.readouterr().out)
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("".join(f"{path}\n" for path in paths))
        with os.fdopen(read_fd, "r") as reader:
            monkeypatch.setattr("sys.stdin", reader)
            assert main(["serve", "--daemon", "--advisor",
                         advisor_file]) == 0
        assert self.picks(capsys.readouterr().out) == want
        assert len(want) == 3

    def test_daemon_on_an_empty_stream_serves_nothing(
            self, advisor_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--daemon", "--advisor", advisor_file]) == 0
        captured = capsys.readouterr()
        assert "served 0 recommendations" in captured.out
        assert captured.err == ""

    @staticmethod
    def flip_compression_method(src: str, dst) -> None:
        """Copy a dataset file with its first zip entry's compression
        method flipped, which zipfile refuses with NotImplementedError."""
        payload = bytearray(Path(src).read_bytes())
        payload[payload.find(b"PK\x01\x02") + 10] ^= 0xFF
        Path(dst).write_bytes(bytes(payload))

    def test_unreadable_zip_entry_is_a_readable_exit_2(
            self, advisor_file, dataset_files, tmp_path, capsys):
        flipped = tmp_path / "flipped.npz"
        self.flip_compression_method(dataset_files[0], flipped)
        code = main(["serve", str(flipped), "--advisor", advisor_file])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"error: cannot load dataset from '{flipped}': "
            "NotImplementedError: That compression method is not supported"]

    def test_daemon_reports_an_unreadable_zip_entry_and_keeps_serving(
            self, advisor_file, dataset_files, tmp_path, capsys, monkeypatch):
        import io

        flipped = tmp_path / "flipped.npz"
        self.flip_compression_method(dataset_files[0], flipped)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{flipped}\n{dataset_files[1]}\n"))
        assert main(["serve", "--daemon", "--advisor", advisor_file]) == 0
        captured = capsys.readouterr()
        assert len(self.picks(captured.out)) == 1
        assert "served 1 recommendations" in captured.out
        errors = [line for line in captured.err.splitlines() if line]
        assert len(errors) == 1
        assert errors[0].startswith(f"  {flipped} -> ERROR: cannot load")
