import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import mimiclearn
from mimiclearn import cli
from mimiclearn.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_PIPELINE,
    EXIT_USAGE,
    UsageError,
    _write_all,
    build_parser,
    main,
)
from mimiclearn.data import CsvSchema, load_csv, save_csv
from mimiclearn.model_io import import_model
from mimiclearn.classifiers import ClassifierSpec, predict_batch
from mimiclearn.mimic import PipelineConfig, annotate, train_student, train_teacher
from mimiclearn.synthetic import (
    breast_cancer_like,
    cardio_like,
    heart_disease_like,
)

from oracles import threshold_toy


_HUGE = "x" * 100_000  # a name or value far longer than any error line should be


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    save_csv(threshold_toy(seed=7), path)
    return path


def _run_args(csv_path, out_dir, *extra):
    return [
        "run",
        "--data", str(csv_path),
        "--label-column", "label",
        "--positive-class", "high",
        "--out-dir", str(out_dir),
        *extra,
    ]


def _read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestSplitCommand:
    def test_writes_three_parts_and_manifest(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "split_out"
        code = main(
            [
                "split",
                "--data", str(toy_csv),
                "--label-column", "label",
                "--positive-class", "high",
                "--seed", "4",
                "--out-dir", str(out),
            ]
        )
        assert code == EXIT_OK
        for name in ("private.csv", "public.csv", "test.csv", "split_manifest.json"):
            assert (out / name).exists()

        header = (out / "public.csv").read_text().splitlines()[0]
        assert "label" not in header.split(",")
        assert "label" in (out / "private.csv").read_text().splitlines()[0].split(",")

        manifest = json.loads((out / "split_manifest.json").read_text())
        private = load_csv(
            out / "private.csv",
            CsvSchema(label_column="label", positive_class="high"),
        )
        assert manifest["counts"]["private"] == private.n_rows == 60
        assert manifest["counts"]["public"] == 36
        assert manifest["counts"]["test"] == 24
        assert "public.csv is written without labels" in capsys.readouterr().out

    def test_split_files_feed_the_stages(self, tmp_path):
        """public.csv has no class names; annotation gives it the teacher's."""
        save_csv(heart_disease_like(), tmp_path / "heart.csv")
        out = tmp_path / "out"
        args = ["split", "--data", str(tmp_path / "heart.csv"), "--seed", "1",
                "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        private = load_csv(out / "private.csv", CsvSchema(label_column="label"))
        public = load_csv(out / "public.csv", CsvSchema(label_column=None))
        assert public.class_names == ()
        config = PipelineConfig(specs=(ClassifierSpec("nb", {}, seed=1),), seed=1, cv_k=3)
        teacher, _ = train_teacher(private, config)
        student, _ = train_student(annotate(teacher, public), config)
        assert student.class_names == teacher.class_names

    def test_rerun_is_byte_identical(self, toy_csv, tmp_path):
        args = lambda out: [
            "split", "--data", str(toy_csv), "--label-column", "label",
            "--seed", "4", "--out-dir", str(out),
        ]
        assert main(args(tmp_path / "a")) == EXIT_OK
        assert main(args(tmp_path / "b")) == EXIT_OK
        assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")

    def test_utf8_bom_header(self, tmp_path):
        bom = tmp_path / "bom.csv"
        rows = "".join(f"{'yes' if i % 2 else 'no'},{i}\n" for i in range(12))
        bom.write_bytes(b"\xef\xbb\xbf" + f"label,a\n{rows}".encode())
        code = main(["split", "--data", str(bom), "--label-column", "label",
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_OK


class TestNumericLabelColumn:
    """A header name wins; otherwise a string of digits is an index."""

    @pytest.mark.parametrize("header, flags, label, kept", [
        ("a,3,b\n", [], "3", "a,b,label"),
        ("", ["--no-header"], "1", "x0,x2,label"),
    ], ids=["header-named-3", "no-header-index-1"])
    def test_label_column(self, header, flags, label, kept, tmp_path):
        data = tmp_path / "data.csv"
        rows = "".join(f"{i},{'yes' if i % 2 else 'no'},{-i}\n" for i in range(12))
        data.write_text(header + rows)
        out = tmp_path / "o"
        code = main(["split", "--data", str(data), "--label-column", label,
                     "--out-dir", str(out), *flags])
        assert code == EXIT_OK
        private = (out / "private.csv").read_text().splitlines()
        assert private[0] == kept
        assert {line.rsplit(",", 1)[1] for line in private[1:]} == {"no", "yes"}


class TestDefaultLabelColumn:
    """Without --label-column, split and run take the last column."""

    @pytest.mark.parametrize("command", ["split", "run"])
    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_matches_the_explicit_last_column(self, command, header, toy_csv, tmp_path):
        lines = toy_csv.read_text().splitlines(keepends=True)
        if header:
            data, flags, explicit = toy_csv, [], "label"
        else:
            data, flags = tmp_path / "noheader.csv", ["--no-header"]
            data.write_text("".join(lines[1:]))
            explicit = str(lines[0].count(","))  # index of the last column
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
        extra = ["--config", str(config)] if command == "run" else []

        def outputs(out, *label):
            args = [command, "--data", str(data), "--positive-class", "high",
                    "--out-dir", str(out), *flags, *extra, *label]
            assert main(args) == EXIT_OK
            return _read_all(out)

        assert outputs(tmp_path / "a") == outputs(
            tmp_path / "b", "--label-column", explicit
        )


class TestRunCommand:
    def test_artifacts_and_manifest_hashes(self, toy_csv, tmp_path):
        out = tmp_path / "run_out"
        assert main(_run_args(toy_csv, out, "--seed", "3")) == EXIT_OK

        manifest = json.loads((out / "manifest.json").read_text())
        import hashlib

        for name, digest in manifest["artifacts"].items():
            body = (out / name).read_bytes()
            assert hashlib.sha256(body).hexdigest() == digest

        table = (out / "classifier_table.csv").read_text().splitlines()
        assert table[0].startswith("family,")
        families = [line.split(",")[0] for line in table[1:]]
        assert sorted(families) == ["knn", "nb", "rf", "svm"]
        assert [line.split(",")[-1] for line in table[1:]].count("yes") == 1

        fidelity = (out / "fidelity_table.csv").read_text().splitlines()
        assert fidelity[0].startswith("role,")
        assert [line.split(",")[0] for line in fidelity[1:]] == ["teacher", "student"]

        for roc_name in ("roc_teacher.csv", "roc_student.csv"):
            lines = (out / roc_name).read_text().splitlines()
            assert lines[0] == "threshold,fpr,tpr"
            last = lines[-1].split(",")
            assert float(last[1]) == 1.0 and float(last[2]) == 1.0

        if manifest["student_model_file"] is None:
            assert "nearest-neighbor" in manifest["note"]
            assert not (out / "student_model.json").exists()
        else:
            assert (out / manifest["student_model_file"]).exists()

        run_payload = json.loads((out / "run.json").read_text())
        assert run_payload["config"]["seed"] == 3
        assert "features" not in (out / "run.json").read_text()

    def test_reruns_and_jobs_are_byte_identical(self, toy_csv, tmp_path):
        for name, extra in (("a", ()), ("b", ()), ("c", ("--jobs", "3"))):
            code = main(_run_args(toy_csv, tmp_path / name, "--seed", "3", *extra))
            assert code == EXIT_OK
        a, b, c = (_read_all(tmp_path / n) for n in ("a", "b", "c"))
        assert a == b == c

    def test_summary_reports_the_winners_selection_metric(
        self, toy_csv, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "knn"}]}))
        out = tmp_path / "out"
        code = main(_run_args(
            toy_csv, out, "--config", str(config), "--selection-metric", "macro_f1"
        ))
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["student_model_file"] is None
        assert "nearest-neighbor" in manifest["note"]
        assert not (out / "student_model.json").exists()
        race = json.loads((out / "run.json").read_text())["teacher_race"]
        winner = race["entries"][race["winner_index"]]
        assert winner["mean_macro_f1"] != winner["mean_accuracy"]
        summary = capsys.readouterr().out.splitlines()[0]
        assert f"(cv macro_f1={winner['mean_macro_f1']:.4f})" in summary

    def test_config_file_controls_specs(self, toy_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
        out = tmp_path / "out"
        code = main(_run_args(toy_csv, out, "--config", str(config)))
        assert code == EXIT_OK
        run_payload = json.loads((out / "run.json").read_text())
        assert run_payload["config"]["cv_k"] == 4
        assert [s["kind"] for s in run_payload["config"]["specs"]] == ["nb"]
        assert (out / "student_model.json").exists()

    def test_cli_flags_win_over_config_file(self, toy_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
        out = tmp_path / "out"
        code = main(
            _run_args(toy_csv, out, "--config", str(config), "--cv-k", "6")
        )
        assert code == EXIT_OK
        assert json.loads((out / "run.json").read_text())["config"]["cv_k"] == 6

    def test_rerun_removes_the_model_file_it_no_longer_writes(self, tmp_path):
        # heart at seed 1: an nb run writes student_model.json, and a knn run
        # into the same directory must not leave it beside a manifest that
        # names no model file
        data, out = tmp_path / "heart.csv", tmp_path / "out"
        save_csv(heart_disease_like(), data)
        for kind, has_model in (("nb", True), ("knn", False)):
            config = tmp_path / f"{kind}.json"
            config.write_text(json.dumps({"specs": [{"kind": kind}]}))
            args = ["run", "--data", str(data), "--seed", "1", "--out-dir", str(out),
                    "--config", str(config)]
            assert main(args) == EXIT_OK
            assert (out / "student_model.json").exists() == has_model
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["student_model_file"] is None
        assert sorted(_read_all(out)) == sorted([*manifest["artifacts"], "manifest.json"])

    def test_failed_run_writes_nothing(self, tmp_path):
        bad = tmp_path / "oneclass.csv"
        bad.write_text("a,b,label\n" + "".join(f"{i},1,pos\n" for i in range(30)))
        out = tmp_path / "never"
        code = main(
            ["run", "--data", str(bad), "--label-column", "label",
             "--out-dir", str(out)]
        )
        assert code == EXIT_PIPELINE
        assert not out.exists()

    def test_out_dir_env_fallback(self, toy_csv, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("MIMICLEARN_OUT_DIR", str(target))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
        code = main(
            [
                "run", "--data", str(toy_csv), "--label-column", "label",
                "--positive-class", "high", "--config", str(config),
            ]
        )
        assert code == EXIT_OK
        assert (target / "run.json").exists()


def test_run_splits_adjacent_huge_values(tmp_path):
    # 80% of each class sits at its own value; (a + b) / 2 of the two
    # overflows, which once sent every pool row to one class (exit 3)
    label = np.arange(200) % 2
    x = np.where(label ^ (np.arange(200) % 10 < 2), -1e308, -1.5e308)
    data = tmp_path / "huge.csv"
    rows = "".join(f"{v!r},{c}\n" for v, c in zip(x.tolist(), label))
    data.write_text("x,label\n" + rows)
    config = tmp_path / "config.json"
    spec = {"kind": "rf", "hyperparameters": {"n_trees": 5}}
    config.write_text(json.dumps({"specs": [spec]}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--data", str(data), "--label-column", "label",
                     "--positive-class", "1", "--config", str(config),
                     "--out-dir", str(out)])
    assert code == EXIT_OK
    fidelity = json.loads((out / "run.json").read_text())["fidelity"]
    assert fidelity["agreement"] > 0.5


def test_run_standardizes_columns_near_the_float_limit(tmp_path):
    # the sums of columns y and z overflow, and so does x - mean for z's
    # smaller value; svm and knn fit and predict on standardized features
    n = np.arange(60)
    label = (n % 2) ^ (n % 5 == 0)
    x = (n * 7) % 11 + 0.5 * label
    y = np.where(n % 2, 1e308, -1e308)
    z = np.where(n % 4 == 3, -1.7e308, 1.7e308)
    data = tmp_path / "huge.csv"
    rows = "".join(f"{a!r},{b!r},{c!r},{d}\n"
                   for a, b, c, d in zip(x.tolist(), y.tolist(), z.tolist(), label))
    data.write_text("x,y,z,label\n" + rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"specs": [{"kind": "svm"}, {"kind": "knn"}], "cv_k": 3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--data", str(data), "--label-column", "label",
                     "--positive-class", "1", "--config", str(config),
                     "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_OK


def _snapshot(root):
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


class TestUnwritableOutput:
    """Output that cannot be written exits 1 and changes nothing on disk."""

    @pytest.mark.parametrize("command, case", [
        ("split", "out-dir-is-a-file"),
        ("run", "out-dir-is-a-file"),
        ("split", "out-dir-under-a-file"),
        ("run", "out-dir-under-a-file"),
        ("split", "test.csv"),
        ("run", "roc_student.csv"),
    ])
    def test_refused_and_nothing_written(self, command, case, toy_csv, tmp_path, capsys):
        area = tmp_path / "area"
        area.mkdir()
        (area / "file").write_bytes(b"kept")
        if case == "out-dir-is-a-file":
            out = area / "file"
        elif case == "out-dir-under-a-file":
            out = area / "file" / "out"
        else:  # an existing output directory where one target is a directory
            out = area / "out"
            out.mkdir()
            (out / case).mkdir()
            (out / ("run.json" if command == "run" else "private.csv")).write_bytes(b"old")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
        extra = ["--config", str(config)] if command == "run" else []
        before = _snapshot(area)
        code = main([command, "--data", str(toy_csv), "--label-column", "label",
                     "--out-dir", str(out), *extra])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("mimiclearn: error:") and err.count("\n") == 1
        assert str(out) in err
        assert _snapshot(area) == before


class TestCommitRollback:
    """A rename that fails part-way through a commit puts every old file back."""

    ARTIFACTS = {"a.csv": "new a\n", "b.csv": "new b\n", "manifest.json": "new m\n"}

    def _old_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("a.csv", "manifest.json", "model.json", "other.txt"):
            (out / name).write_text(f"old {name}\n")
        return out

    def _commit(self, out, monkeypatch, fail_at=None, error=PermissionError):
        calls, replace = [], os.replace

        def failing_replace(src, dst):
            calls.append((src, dst))
            if len(calls) == fail_at:
                raise error(f"replace #{fail_at} refused")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        try:
            _write_all(out, self.ARTIFACTS, owned=["model.json"])
        finally:
            monkeypatch.setattr(os, "replace", replace)
        return len(calls)

    def test_commit_moves_old_files_aside_then_renames(self, tmp_path, monkeypatch):
        out = self._old_dir(tmp_path)
        # model.json aside; a.csv aside and in; b.csv (none to move) in; manifest last
        assert self._commit(out, monkeypatch) == 7
        assert _read_all(out) == {
            "a.csv": b"new a\n", "b.csv": b"new b\n",
            "manifest.json": b"new m\n", "other.txt": b"old other.txt\n"}

    @pytest.mark.parametrize("fail_at", range(1, 8))
    def test_failed_rename_leaves_every_old_byte(self, fail_at, tmp_path, monkeypatch):
        out = self._old_dir(tmp_path)
        before = _snapshot(out)
        with pytest.raises(UsageError, match=f"replace #{fail_at} refused"):
            self._commit(out, monkeypatch, fail_at)
        assert _snapshot(out) == before

    @pytest.mark.parametrize("fail_at", range(1, 8))
    def test_interrupted_rename_leaves_every_old_byte(self, fail_at, tmp_path, monkeypatch):
        # Ctrl-C between two renames: the interrupt goes on after the rollback
        out = self._old_dir(tmp_path)
        before = _snapshot(out)
        with pytest.raises(KeyboardInterrupt, match=f"replace #{fail_at} refused"):
            self._commit(out, monkeypatch, fail_at, KeyboardInterrupt)
        assert _snapshot(out) == before


class TestEvaluateCommand:
    @pytest.fixture()
    def exported(self, toy_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
        out = tmp_path / "out"
        assert main(_run_args(toy_csv, out, "--config", str(config))) == EXIT_OK
        return out / "student_model.json"

    def test_report_matches_in_process_scoring(self, exported, toy_csv, capsys):
        code = main(
            [
                "evaluate",
                "--model", str(exported),
                "--data", str(toy_csv),
                "--label-column", "label",
                "--positive-class", "high",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)

        ds = load_csv(toy_csv, CsvSchema(label_column="label", positive_class="high"))
        model = import_model(exported)
        expected = float(np.mean(predict_batch(model, ds.features) == ds.labels))
        assert payload["positive"]["accuracy"] == pytest.approx(expected)
        assert payload["n"] == ds.n_rows
        assert payload["model_kind"] == "nb"
        assert 0.0 <= payload["auc"] <= 1.0

    def test_huge_class_mismatch_is_echoed_cut_short(self, exported, tmp_path, capsys):
        data = tmp_path / "ids.csv"
        data.write_text("a,b,label\n" + "".join(f"{i},{i},{i:0>40}\n" for i in range(5_000)))
        code = main(["evaluate", "--model", str(exported), "--data", str(data),
                     "--label-column", "label"])
        assert code == EXIT_DATA
        _assert_one_short_line(capsys.readouterr().err, "mimiclearn: data error: label values")

    def test_class_mismatch_is_a_data_error(self, exported, toy_csv, capsys):
        code = main(
            [
                "evaluate",
                "--model", str(exported),
                "--data", str(toy_csv),
                "--label-column", "label",
                # wrong positive class flips the class-name order
            ]
        )
        assert code == EXIT_DATA
        assert "--positive-class" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b"a,b,label\n", b"a,b,label\n\n\r\n\n"])
    def test_no_data_rows_prints_only_the_error_line(self, exported, tmp_path, text):
        # a separate process, so a warning would reach stderr as a user sees it
        data = tmp_path / "empty.csv"
        data.write_bytes(text)
        env = {**os.environ, "PYTHONPATH": str(Path(mimiclearn.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        child = subprocess.run(
            [sys.executable, "-m", "mimiclearn.cli", "evaluate", "--model", str(exported),
             "--data", str(data), "--label-column", "label"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == EXIT_DATA
        assert child.stderr == (
            f"mimiclearn: data error: {data}: header only, no data rows\n")


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        code = main(
            ["split", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_DATA

    def test_bad_fractions(self, toy_csv, tmp_path):
        # both commands refuse them while parsing flags: usage, nothing written
        for command in ("split", "run"):
            for fractions in ("0.5,0.5", "0.9,0.9,0.9", "0,0.5,0.5", "nan,0.5,0.5"):
                out = tmp_path / f"{command}-{fractions}"
                code = main([
                    command, "--data", str(toy_csv), "--label-column", "label",
                    "--fractions", fractions, "--out-dir", str(out),
                ])
                assert code == EXIT_USAGE, (command, fractions)
                assert not out.exists()

    def test_unknown_flag(self, toy_csv):
        assert main(["run", "--data", str(toy_csv), "--turbo"]) == EXIT_USAGE

    def test_memory_error_is_a_pipeline_error_line(self, toy_csv, tmp_path, monkeypatch,
                                                  capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out)) == EXIT_PIPELINE
        assert capsys.readouterr().err == "mimiclearn: pipeline error: out of memory\n"
        assert not out.exists()

    def test_unknown_config_key(self, toy_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"species": []}))
        code = main(_run_args(toy_csv, tmp_path / "o", "--config", str(config)))
        assert code == EXIT_USAGE

    def test_config_nested_too_deep(self, toy_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, "--config", str(config))) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--jobs", "0"),  # refused by the command
        ("--fractions", "1,2"),  # refused while parsing flags
    ], ids=lambda flags: "-".join(flags))
    def test_usage_error_prints_one_line(self, flags, toy_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, *flags)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("mimiclearn: error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"cv_k": "5"},
        {"cv_k": 2.5},
        {"fractions": ["a", 1, 2]},
        {"fractions": [None, 1, 2]},
        {"fractions": [2**1024, 0, 0]},
        {"specs": [{"kind": "rf", "hyperparameters": {"n_trees": "3"}}]},
        {"specs": [{"kind": "rf", "hyperparameters": {"n_trees": 2.5}}]},
        {"specs": [{"kind": "nb", "hyperparameters": None}]},
        {"specs": [{"kind": "nb", "hyperparameters": [1]}]},
        {"specs": [{"kind": "nb", "seed": "x"}]},
        {"specs": [{"kind": "svm", "hyperparameters": {"epochs": True}}]},
        {"cv_k": 2, "specs": [{"kind": "rf", "hyperparameters": {"n_trees": 10**30}}]},
        {"cv_k": 2,
         "specs": [{"kind": "svm", "hyperparameters": {"reg_lambda": 1e-310, "epochs": 2}}]},
    ], ids=lambda config: json.dumps(config)[:60])
    def test_wrongly_typed_config_value(self, config, toy_csv, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, "--config", str(path))) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("mimiclearn: error:") and err.count("\n") == 1
        assert not out.exists()

    def test_nb_variance_floor_overflow_refused(self, toy_csv, tmp_path, capsys):
        # 2 * pi * var_smoothing * (largest feature variance) is not finite, so
        # every log posterior would be -inf; the floor needs the data, so the
        # fit refuses it, as a pipeline error
        path = tmp_path / "config.json"
        spec = {"kind": "nb", "hyperparameters": {"var_smoothing": 1e308}}
        path.write_text(json.dumps({"specs": [spec], "cv_k": 2}))
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, "--config", str(path))) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err.startswith("mimiclearn: pipeline error: nb: var_smoothing 1e+308")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("no_header", [False, True])
    def test_negative_label_column_refused(self, toy_csv, tmp_path, no_header):
        args = ["split", "--data", str(toy_csv), "--label-column", "-1",
                "--out-dir", str(tmp_path / "o")]
        assert main(args + ["--no-header"] * no_header) == EXIT_USAGE

    @pytest.mark.parametrize("case", [
        "directory", "directory-with-label-column", "non-utf8", "huge-cell",
    ])
    def test_unreadable_data_is_a_data_error(self, case, tmp_path, capsys):
        data = tmp_path / "data.csv"
        label = []
        if case.startswith("directory"):
            data.mkdir()
            label = ["--label-column", "x"] * case.endswith("label-column")
        elif case == "non-utf8":
            data.write_bytes(b"a,label\n\xff,0\n")
        else:
            data.write_bytes(b"a,label\n" + b"1" * 200_000 + b",0\n")
        out = tmp_path / "o"
        code = main(["run", "--data", str(data), *label, "--out-dir", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("mimiclearn: data error:")
        if case.startswith("directory"):
            assert f"not a regular file: {data}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["split", "run", "evaluate"])
    def test_csv_without_feature_columns_is_a_data_error(
        self, command, toy_csv, tmp_path, capsys
    ):
        data = tmp_path / "labels.csv"
        data.write_text("label\n" + "low\nhigh\n" * 100)
        args = [command, "--data", str(data), "--label-column", "label",
                "--positive-class", "high"]
        if command == "evaluate":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 4}))
            model = tmp_path / "m"
            assert main(_run_args(toy_csv, model, "--config", str(config))) == EXIT_OK
            args += ["--model", str(model / "student_model.json")]
        else:
            args += ["--out-dir", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        assert capsys.readouterr().err == (
            "mimiclearn: data error: dataset has no feature columns\n")
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config(self, toy_csv, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b"\xff{}")
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, "--config", str(config))) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("mimiclearn: error:")
        assert not out.exists()

    def test_non_utf8_model(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_bytes(b"\xff{}")
        code = main(["evaluate", "--model", str(model), "--data", str(toy_csv),
                     "--label-column", "label"])
        assert code == EXIT_PIPELINE
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("n_trees", 1000), ("max_depth", 0)])
    def test_model_contradicting_its_hyperparameters(self, key, value, toy_csv,
                                                     tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{
            "kind": "rf", "hyperparameters": {"n_trees": 3, "max_depth": 2}}], "cv_k": 4}))
        out = tmp_path / "out"
        assert main(_run_args(toy_csv, out, "--config", str(config))) == EXIT_OK
        model = out / "student_model.json"
        record = json.loads(model.read_text())
        record["hyperparameters"][key] = value
        model.write_text(json.dumps(record))
        code = main(["evaluate", "--model", str(model), "--data", str(toy_csv),
                     "--label-column", "label", "--positive-class", "high"])
        assert code == EXIT_PIPELINE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"specs": [{"kind": _HUGE}]},
        {"specs": [{"kind": [[[[["nb"] * 10] * 10] * 10] * 10] * 10}]},
        {"specs": [{"kind": "nb", "hyperparameters": {_HUGE: 1}}]},
        {"specs": [{"kind": "nb", "hyperparameters": {f"h{i}": 1 for i in range(10_000)}}]},
        {"specs": [{"kind": "nb", _HUGE: 1}]},
        {_HUGE: 1},
        {f"k{i}": 1 for i in range(10_000)},
    ], ids=["kind", "nested-kind", "hyperparameter", "hyperparameters", "spec-key",
            "config-key", "config-keys"])
    def test_huge_config_values_are_echoed_cut_short(self, config, toy_csv, tmp_path,
                                                     capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(_run_args(toy_csv, tmp_path / "o", "--config", str(path))) == EXIT_USAGE
        _assert_one_short_line(capsys.readouterr().err, "mimiclearn: error: ")

    @pytest.mark.parametrize("key", ["kind", "origin"])
    def test_huge_model_fields_are_echoed_cut_short(self, key, toy_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": [{"kind": "nb"}], "cv_k": 2}))
        out = tmp_path / "out"
        assert main(_run_args(toy_csv, out, "--config", str(config))) == EXIT_OK
        model = out / "student_model.json"
        record = json.loads(model.read_text())
        record[key] = _HUGE
        model.write_text(json.dumps(record))
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model), "--data", str(toy_csv),
                     "--label-column", "label", "--positive-class", "high"])
        assert code == EXIT_PIPELINE
        _assert_one_short_line(capsys.readouterr().err, "mimiclearn: pipeline error: ")

    @pytest.mark.parametrize("case", ["header", "label-flag", "labels", "positive-flag"])
    def test_huge_csv_names_are_echoed_cut_short(self, case, tmp_path, capsys):
        # no column is named by --label-column, or no label by --positive-class
        data, label, positive = tmp_path / "data.csv", "label", "high"
        names = [_HUGE] + [f"n{i}" for i in range(5_000)]
        if case == "header":
            data.write_text(",".join(names) + "\n" + ",".join(["1"] * len(names)) + "\n")
        else:
            data.write_text("a,label\n" + "".join(f"{i},{name}\n"
                                                  for i, name in enumerate(names)))
            label = _HUGE if case == "label-flag" else label
            positive = _HUGE + "y" if case == "positive-flag" else positive
        code = main(["run", "--data", str(data), "--label-column", label,
                     "--positive-class", positive, "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        _assert_one_short_line(err.replace(str(data), "PATH"), "mimiclearn: data error: PATH")
        assert ("(have [" if case in ("header", "label-flag") else "(labels seen: [") in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "split" in capsys.readouterr().out


def _assert_one_short_line(err, prefix):
    assert err.startswith(prefix) and err.count("\n") == 1
    assert len(err.encode()) < 400, f"{len(err.encode())} bytes: {err[:200]}"


_SPLIT_OUTPUTS = {"private.csv", "public.csv", "test.csv", "split_manifest.json"}
_FUZZ_ROWS = [["a", "b", "label"]] + [
    [str(i % 7 - 3), str(i * 0.5), "yes" if i % 2 else "no"] for i in range(24)
]
_CELL_MUTATIONS = ["?", "-999", "", " ", "1e308", "-1e308", "5e-324", "-0.0", " 7 ", "ragged"]
_BYTE_MUTATIONS = {"quote": b'"', "nul": b"\0", "bom": "\ufeff".encode(), "xff": b"\xff"}
_SPLIT_FLAGS = [  # two thirds of them valid for the seed CSV
    ("--no-header",), ("--label-column", "label"), ("--label-column", "2"),
    ("--label-column", "3"), ("--label-column", "-1"), ("--label-column", "nope"),
    ("--missing-token", ""), ("--missing-token", "-999"), ("--missing-token", "?"),
    ("--missing-token", "NA"), ("--fractions", "0.5,0.25,0.25"),
    ("--fractions", "0.2,0.4,0.4"), ("--fractions", "0.6,0.2,0.2"),
    ("--fractions", "nan,0.5,0.5"), ("--fractions", "0.5,0.5"), ("--seed", "0"),
    ("--seed", "3"), ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "1.5"),
    ("--seed", "12345678901234567890"),
]


def _fuzzed_csv(mutations, line_end):
    """The seed CSV with each (kind, position) mutation applied, as bytes."""
    rows = [list(row) for row in _FUZZ_ROWS]
    for kind, at in mutations:  # cell mutations first: they address rows and cells
        row = rows[1 + at % (len(rows) - 1)]
        if kind == "ragged" and at % 2:
            row.append("0")
        elif kind == "ragged":
            row.pop()
        elif kind in _CELL_MUTATIONS:  # a feature cell
            row[at % 2] = kind
    text = line_end.join(",".join(row) for row in rows).encode() + line_end.encode()
    for kind, at in mutations:
        if kind in _BYTE_MUTATIONS:
            at %= len(text) + 1
            text = text[:at] + _BYTE_MUTATIONS[kind] + text[at:]
    return text


@pytest.fixture()
def split_exit_codes():
    """Every exit code of one fuzz run; at least 20% must be successes, so
    that the fuzz also reaches the writing path (the seed CSV is valid)."""
    codes = []
    yield codes
    assert codes.count(EXIT_OK) >= 0.2 * len(codes), codes


@given(mutations=st.lists(st.tuples(st.sampled_from(_CELL_MUTATIONS + list(_BYTE_MUTATIONS)),
                                    st.integers(0, 10_000)), max_size=3),
       line_end=st.sampled_from(["\n", "\r", "\r\n"]),
       flags=st.lists(st.sampled_from(_SPLIT_FLAGS), max_size=2))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_exit_code_under_fuzzed_csv_and_flags(split_exit_codes, mutations, line_end,
                                                     flags):
    """Any CSV bytes and data flags exit 0, 1 or 2; only success writes files."""
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        data.write_bytes(_fuzzed_csv(mutations, line_end))
        argv = ["split", "--data", str(data), "--out-dir", str(out)]
        code = main(argv + [arg for flag in flags for arg in flag])
        event(f"exit {code}")
        split_exit_codes.append(code)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
        written = {p.name for p in out.iterdir()} if out.exists() else set()
        assert written == (_SPLIT_OUTPUTS if code == EXIT_OK else set())


# JSON values of every type; ints stay small, so no count can ask for long work
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["NaN", "nan", "Infinity", "-inf", "1e309", "", "2", "knn"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mostly(valid, other=_JUNK):
    """``valid`` seven times in eight, else ``other``."""
    return st.sampled_from([valid] * 7 + [other]).flatmap(lambda chosen: chosen)


def _with_unknown_key(objects):
    return objects.map(lambda obj: {**obj, "colour": 1})


_SPEC_ENTRY = st.fixed_dictionaries(
    {"kind": _mostly(st.sampled_from(["nb", "knn"]))},
    optional={
        "hyperparameters": _mostly(st.fixed_dictionaries({}, optional={
            "n_neighbors": _mostly(st.integers(-1, 9)),
            "var_smoothing": _mostly(st.floats(1e-12, 1.0), st.floats()),
        })),
        "seed": _mostly(st.integers(-2, 2**70)),
    },
)
_RUN_CONFIG = st.fixed_dictionaries(
    {"specs": _mostly(st.lists(_mostly(_SPEC_ENTRY, _with_unknown_key(_SPEC_ENTRY)),
                               min_size=1, max_size=3)),
     "cv_k": _mostly(st.just(2))},
    optional={
        "fractions": _mostly(st.just([0.5, 0.3, 0.2]),
                             st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=4)),
        "selection_metric": _mostly(st.sampled_from(["accuracy", "macro_f1"]),
                                    st.sampled_from(["f1", "NaN", ""])),
    },
)
_RUN_CONFIGS = _mostly(_RUN_CONFIG, _with_unknown_key(_RUN_CONFIG) | _JUNK)


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    save_csv(threshold_toy(n_rows=40, seed=3), path)
    return path


@pytest.fixture()
def run_exit_codes():
    """Every exit code of one fuzz run; some must be successes, so that the
    fuzz also reaches the race and the writing path."""
    codes = []
    yield codes
    assert codes.count(EXIT_OK) >= 0.1 * len(codes), codes


@given(config=_RUN_CONFIGS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_exit_code_under_fuzzed_config(tiny_csv, run_exit_codes, config):
    """Any config JSON exits 0, 1, 2 or 3; only success writes files."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(_run_args(tiny_csv, out, "--config", str(path)))
        event(f"exit {code}")
        run_exit_codes.append(code)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_PIPELINE)
        assert out.exists() == (code == EXIT_OK)


def test_split_and_run_share_their_flags(capsys):
    shared = ("seed", "fractions", "out_dir", "label_column", "no_header",
              "positive_class", "missing_token")
    split, run = (vars(build_parser().parse_args([command, "--data", "d.csv"]))
                  for command in ("split", "run"))
    assert {k: split[k] for k in shared} == {k: run[k] for k in shared}
    for command in ("split", "run"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--data", "--seed", "--fractions", "--out-dir", "--label-column",
                     "--no-header", "--positive-class", "--missing-token"):
            assert flag in out, (command, flag)


GOLDEN_CONFIG = {
    "specs": [
        {"kind": "svm", "hyperparameters": {"epochs": 5}},
        {"kind": "knn"},
        {"kind": "rf", "hyperparameters": {"n_trees": 10}},
        {"kind": "nb"},
    ],
    "cv_k": 4,
}
GOLDEN_GENERATORS = {
    "breast": breast_cancer_like,
    "heart": heart_disease_like,
    "cardio": cardio_like,
}


def _golden_outputs(tmp_path, monkeypatch, name, seed, command):
    """sha256 of every file `command` writes for a generator CSV and seed."""
    monkeypatch.chdir(tmp_path)  # run.json and manifest.json name --data
    save_csv(GOLDEN_GENERATORS[name](), f"{name}.csv")
    Path("config.json").write_text(json.dumps(GOLDEN_CONFIG))
    extra = ["--config", "config.json"] if command == "run" else []
    args = [command, "--data", f"{name}.csv", "--seed", str(seed),
            "--out-dir", "out", *extra]
    assert main(args) == EXIT_OK
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path("out").iterdir())
    }

# sha256 of every output file; a change that alters any output byte must be
# deliberate and record the new digests
GOLDEN_OUTPUT_DIGESTS = {
    ('breast', 1, 'split'): {
        "private.csv": "92554715513651f7316ff1842a35b336165f7216ca8af763834cdf3413616ba8",
        "public.csv": "28a8f90ce47273641b0060d5b41bb7776da98c5c3d5c9b469596c43406b1a565",
        "split_manifest.json": "c27d902689d013e04d3b084a7145cf18144ec281963295bf163790dcd85011a5",
        "test.csv": "a9fca055e95040a059b790c22bc1a4fac5d8682418e32ca92c63c8328adb34b6",
    },
    ('breast', 1, 'run'): {
        "classifier_table.csv": "baf6fae5517edcc6fdef745d0f4278fd5ebccd323499a94a5ae409264d26a0b2",
        "fidelity_table.csv": "d200542226da9e1fa2fcb146a8c3fe8fe1f97bef656f85d09384278fff055d60",
        "manifest.json": "77967f7f62917c1344490a77b69fdd3817703e8b0f4bb05a6c2f76fc665b6bd1",
        "roc_student.csv": "2c8bf370c78e9a4a6e42af84f3299ea812bf65e44e15092eccb748ab77d70b2c",
        "roc_teacher.csv": "db55a046efecee5bb3995eb6a74bb43e3479642d803dff1cc79047eec8dd593d",
        "run.json": "013264e0047ac97e70dd157a02fb139a2d83d4589d98b92af6f8d1d3d55c42da",
        "student_model.json": "de81b323814be5b19f22505378a8ff7c218027aa20d79325924e7df9ca95a255",
    },
    ('breast', 2, 'split'): {
        "private.csv": "22e33557a3b7ac90285f30c2f0095a82584973a19911001ca84ce665c745ed30",
        "public.csv": "9467b0f4c8a58de2afd1d3264cdadd7cead773c7eef174ae46abd58f62464bba",
        "split_manifest.json": "0a685cb99e2a1373713433be962dfb4571cfbe29098c17c45b519cc028cbdf42",
        "test.csv": "c65269261ee1d1f5ebe7a848cfa80dbe976d89f9adbcb2a2ee808e646eb5313d",
    },
    ('breast', 2, 'run'): {
        "classifier_table.csv": "4df8439058401a9fb3176342d59f4696df4271273864a9f61d19365f715bb4d7",
        "fidelity_table.csv": "27bfd490bf9215c33badaa007b3ffb09375766b0714425b993b3d6d278ac4ae6",
        "manifest.json": "0b08c16229a49b58736ee888cae36a5191c3f12c5208ac73dc5b0be52018849a",
        "roc_student.csv": "8e9c3c0786627c9167be5b14573ebdd17b424e9d46ad45fb8d769aaaa045d9f3",
        "roc_teacher.csv": "a7a0d95acda7abfb03aee7a4091a4b3497402fe2e3fcd059fd7a1caf4c3a5904",
        "run.json": "b16b0911c063bd388baa18ba4cdf2393041de55c2aeb51b7c2758332bfc2e2ef",
    },
    ('heart', 1, 'split'): {
        "private.csv": "efcedcf61943c84d219c17d394425cd8307f906e0699f32398cabfcfadf437cc",
        "public.csv": "66e708047786209284b13a13144b97b142c2ec44cdceef85aa252b44a643f7c1",
        "split_manifest.json": "14726a10731d439c8c99cbb5b7f2785d74cfada9b76654cddfd88037cdc7ec7b",
        "test.csv": "38d18ec87c9b6bee997fdeb245d9d15d4ff77368b403c72e5c3d5d512c05bf65",
    },
    ('heart', 1, 'run'): {
        "classifier_table.csv": "dd95a21f92f68f8a4335502d3dc0b3b7d38bedeb94dedef4d05ef4f8de816784",
        "fidelity_table.csv": "6dccf51087aa073983b6fe1924d436151bf9a68608ec752cfce385839cb2705b",
        "manifest.json": "839d2d9ebf7ed5832b425e077e575a18cbaba58906de06301574c45320ef22fd",
        "roc_student.csv": "de172021853a683224b2d656e4e8871d458b1c51c43d54733ccec267b4ecf736",
        "roc_teacher.csv": "14dbb49a473d99c688a3163cb2ff942c3c79795139906589028e2267b0bf7b24",
        "run.json": "2046a949333120f2b675c00c47274307f09b256b99a07dc647b487612905d363",
        "student_model.json": "5a9b1c11627762adcc75524cd741ba7f6f517d1ce4bd703125a6ff78243e45f5",
    },
    ('heart', 2, 'split'): {
        "private.csv": "a39ac2ffba8a644e4606db788db936e5660ff7114472c0cb5b92a6a72567461d",
        "public.csv": "e3cc6b4c7ed18492ba2c440de30ee37bf655d038d0308e447340232d7a988791",
        "split_manifest.json": "b9bc87d6f67dc1528143b4a7628552b3f6ec3f2d7d62674a51f9813759c4e737",
        "test.csv": "3fb109f162b164090ed94bcf549a310230e99e5a975c18e84fdf162a9e2c37c6",
    },
    ('heart', 2, 'run'): {
        "classifier_table.csv": "3e99feacd7a39da5a51da510cb6083461ff96965208d80bfa00adbd6eb09e3f7",
        "fidelity_table.csv": "18d5ce9b0ed1346f395c8ff3f0b0b1c15940a12c7b9c23bb4f94299a74a29a1c",
        "manifest.json": "d70f356cdd164031c00c2dda02346569a49bc46bd8d3e6e0f9096b2e9f3f4f07",
        "roc_student.csv": "3079a1ff58d6056e7c59b15370a625f8488c81c5469ddf658c003d90ae69900a",
        "roc_teacher.csv": "d6ca193ef54822f4375831d8e24a7a12eb6938db116d95341f841ffdaaeacf35",
        "run.json": "d52fcaf6dd5619c593fbd87d6387e9f66b80e50add8e99f2383bf055a2b4be3f",
        "student_model.json": "62f2a3cfff6f949e1a5a803a773aeb3a90a7094bb40e47f94e895e86f400403d",
    },
    ('cardio', 1, 'split'): {
        "private.csv": "88e723ca19dfeb9bbb6a8cfa5ffe4e58b2af84282f8e43c5b8ceef502ba1e12d",
        "public.csv": "efa238139303e1dadfbc7eb2bceb43a554ee5907aa1c204d2998cf712c3bfa18",
        "split_manifest.json": "e5dcbd0195755d66be10b6cefb0bb83be4fbba0f2c108667e4ecf70531d4ab1e",
        "test.csv": "0a47c95edd5affa62e23cec38e9bee705153a0cd6f34a2172c93fcbb2e32f39c",
    },
    ('cardio', 1, 'run'): {
        "classifier_table.csv": "bd898c7e5a8633906ae9bd8d349b06c828e6d29fc506e05200624e883f7a39a9",
        "fidelity_table.csv": "ef77cd98a86d8c39b3f7611541800be68f320baf10f8cc2ebde704efdc27bf21",
        "manifest.json": "e9f6b30d570a57179e5ad7637054e1ee083717071b17be08a182b88ae3c126bd",
        "roc_student.csv": "292b1d6f5556a402bebd4ee5f8accf02ae9f98202099775695dea6fe9f1d73c0",
        "roc_teacher.csv": "8b6a0def8e9e19fc2d53da71769a3e1b45b50b4553bca5cc3cb0c23bd762b0b3",
        "run.json": "10c19a4870fe844e551487789b5e5e2a55e3a59fcc391af9bda5be1ddbd77556",
    },
    ('cardio', 2, 'split'): {
        "private.csv": "c5949565790cac79111e96b3528d5748f2fc79ae7aeacb7c32a6e730bb65119b",
        "public.csv": "76d3961ceb43bde4b806c5350be74db17d47ef4c5937b73e7ef79499933250e4",
        "split_manifest.json": "16ea3905fcbe9feea1f727b3b620a202aef245b82190bc0934f5ae0a31f080da",
        "test.csv": "7d04d7a9f88d7cef84cc65e7fb36f54a8463d1564d1bfe44f94159b024dfb631",
    },
    ('cardio', 2, 'run'): {
        "classifier_table.csv": "f1072c6d34d09d1ca1ee2ccefe118c0ac62cf73458b71951fa8a9095a7140216",
        "fidelity_table.csv": "e82c999ff4a79debe57b90572ec3c4358119e8f1132ec645547797e843fdd36d",
        "manifest.json": "970ede12dc0d650a4c309f0edab5fbc5086c1d9a619ca4ddcf378b9e63e90d53",
        "roc_student.csv": "31db04b4f5b393b50e0cd724fcd027f8953e5d028b13feecb367fa153c9555bc",
        "roc_teacher.csv": "dae452e20d44d3e4c923a1de50aa26d4db17c5c2e22e1bc07e7b88182084cdd3",
        "run.json": "2231ac704c9bc9886fa5b64f9c2da108b1a14a40b388fc13e297ea96875c4e72",
    },
}


@pytest.mark.parametrize(
    "key", list(GOLDEN_OUTPUT_DIGESTS), ids=lambda key: "-".join(map(str, key))
)
def test_output_files_match_golden_digests(key, tmp_path, monkeypatch):
    assert _golden_outputs(tmp_path, monkeypatch, *key) == GOLDEN_OUTPUT_DIGESTS[key]


def test_run_json_config_echo_reproduces_the_run(tmp_path, monkeypatch):
    """The config echo of run.json, without its seed, given back as --config
    at the same --seed rewrites run.json byte for byte."""
    _golden_outputs(tmp_path, monkeypatch, "heart", 2, "run")
    first = Path("out/run.json").read_bytes()
    echo = json.loads(first)["config"]
    del echo["seed"]
    Path("echo.json").write_text(json.dumps(echo))
    args = ["run", "--data", "heart.csv", "--seed", "2", "--config", "echo.json",
            "--out-dir", "again"]
    assert main(args) == EXIT_OK
    assert Path("again/run.json").read_bytes() == first
