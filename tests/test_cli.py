import json

import numpy as np
import pytest

from mimiclearn.cli import EXIT_DATA, EXIT_OK, EXIT_PIPELINE, EXIT_USAGE, main
from mimiclearn.data import CsvSchema, load_csv, save_csv
from mimiclearn.model_io import import_model
from mimiclearn.classifiers import predict_batch
from mimiclearn.synthetic import threshold_toy


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


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        code = main(
            ["split", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_DATA

    def test_bad_fractions(self, toy_csv, tmp_path):
        code = main(
            [
                "split", "--data", str(toy_csv), "--label-column", "label",
                "--fractions", "0.5,0.5", "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_USAGE

    def test_unknown_flag(self, toy_csv):
        assert main(["run", "--data", str(toy_csv), "--turbo"]) == EXIT_USAGE

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

    def test_jobs_must_be_positive(self, toy_csv, tmp_path):
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, "--jobs", "0")) == EXIT_USAGE
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
    ], ids=lambda config: json.dumps(config)[:60])
    def test_wrongly_typed_config_value(self, config, toy_csv, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(_run_args(toy_csv, out, "--config", str(path))) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("mimiclearn: error:")
        assert not out.exists()

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
        assert capsys.readouterr().err.startswith("mimiclearn: data error:")
        assert not out.exists()

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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "split" in capsys.readouterr().out
