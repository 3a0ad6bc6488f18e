"""Command-line entry points: ``split``, ``run``, and ``evaluate``.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(missing/malformed input), 3 pipeline problem (training, privacy refusal,
bad model file, out of memory). Commands compute everything, then stage their
files and rename each into place; no file of a failed command is left under
the output directory.

Outputs are deterministic: rerunning a command with the same inputs and seed
reproduces every artifact byte for byte. Training is single-threaded and
``--jobs`` never changes results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import reprlib
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

# predict_batch, score_batch, and model_io's file_json and model_to_file stay
# bound here: perfbench/spans.py wraps them
from .classifiers import decide_batch, predict_batch, score_batch
from .data import (
    CsvSchema,
    SplitSpec,
    csv_text,
    ingest_csv,
    split_manifest_json,
    stratified_split,
)
from .errors import DataError, PipelineError
from .metrics import macro_metrics, positive_metrics, roc
from .mimic import SELECTION_METRICS, PipelineConfig, run_json, run_pipeline
from .model_io import file_json, has_codec, import_model, model_text, model_to_file
from .rng import STAGE_SPLIT, derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPELINE = 3

OUT_DIR_ENV = "MIMICLEARN_OUT_DIR"


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_data_flags(p):
    p.add_argument("--data", required=True, metavar="CSV", help="input CSV file")
    p.add_argument(
        "--no-header", action="store_true",
        help="the CSV has no header row (columns are then named x0, x1, ...)",
    )
    p.add_argument(
        "--label-column", default=None, metavar="NAME_OR_INDEX",
        help="label column as a header name or 0-based index "
             "(default: the last column)",
    )
    p.add_argument(
        "--positive-class", default=None, metavar="VALUE",
        help="label value to treat as class 1 (binary data only); also use "
             "this when re-reading files produced by `split` if it was set "
             "originally",
    )
    p.add_argument(
        "--missing-token", default="?", metavar="TOKEN",
        help="cell value that marks a missing feature (default: '?'); "
             "missing cells are filled with the column median",
    )


def _schema_from_args(args) -> CsvSchema:
    label = args.label_column
    if label is None:
        label = -1  # the last column
    elif label.startswith("-") and label[1:].isdigit():
        raise UsageError("--label-column index must be >= 0")
    return CsvSchema(
        label_column=label,
        has_header=not args.no_header,
        missing_token=args.missing_token,
        positive_class=args.positive_class,
    )


def _out_dir(args) -> Path:
    return Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--fractions needs three comma-separated numbers")
    try:
        return SplitSpec(*map(float, parts)).fractions
    except (ValueError, DataError) as exc:
        raise UsageError(f"--fractions {text}: {exc}") from None


def _build_config(args) -> PipelineConfig:
    """The ``--config`` file's object with every flag that is set written over it."""
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
    for key in ("fractions", "cv_k", "selection_metric"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    try:
        return PipelineConfig.from_json_dict(raw, args.seed)
    except (PipelineError, DataError) as exc:
        raise UsageError(str(exc)) from exc


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _classifier_table(race) -> str:
    lines = [
        "family,cv_mean_accuracy,cv_min_accuracy,cv_max_accuracy,"
        "cv_mean_macro_f1,cv_min_macro_f1,cv_max_macro_f1,selected"
    ]
    for i, report in enumerate(race.reports):
        accs, f1s = report.fold_accuracies, report.fold_macro_f1
        lines.append(",".join([
            report.spec.kind,
            _fmt(report.mean_accuracy), _fmt(min(accs)), _fmt(max(accs)),
            _fmt(report.mean_macro_f1), _fmt(min(f1s)), _fmt(max(f1s)),
            "yes" if i == race.winner_index else "no",
        ]))
    return "\n".join(lines) + "\n"


def _fidelity_table(fid) -> str:
    lines = ["role,n,accuracy,precision,recall,f1,auc,agreement"]
    for role, rep, auc in (
        ("teacher", fid.teacher_metrics, fid.teacher_auc),
        ("student", fid.student_metrics, fid.student_auc),
    ):
        lines.append(",".join([
            role, str(fid.n_test),
            _fmt(rep.accuracy), _fmt(rep.precision), _fmt(rep.recall),
            _fmt(rep.f1), _fmt(auc), _fmt(fid.agreement),
        ]))
    return "\n".join(lines) + "\n"


def _write_all(out: Path, artifacts: dict, owned=()) -> None:
    """Write ``{name: text}`` under ``out``: stage all, then rename in order.

    The only place a command writes a file. Any name in ``owned`` that this
    call does not write, such as an earlier run's ``student_model.json``, is
    removed first, so the manifest (last) names every file of its run. Each
    old file is moved into the staging directory before its new one is
    renamed in; on any exception, an interrupt included, every old file moves
    back, in reverse order, and no new one stays. A target that is a directory
    is refused before anything is written; any OSError is a UsageError.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in [*artifacts, *owned]:
            if (out / name).is_dir():
                raise UsageError(f"cannot write {out / name}: it is a directory")
        with tempfile.TemporaryDirectory(dir=out) as stage:
            old = Path(stage, "old")
            old.mkdir()
            for name, text in artifacts.items():
                Path(stage, name).write_text(text, encoding="utf-8", newline="")
            done = []  # (name, whether its old file was moved aside), in order
            try:
                for name in [*(n for n in owned if n not in artifacts), *artifacts]:
                    try:
                        os.replace(out / name, old / name)
                        done.append((name, True))
                    except FileNotFoundError:
                        done.append((name, False))
                    if name in artifacts:
                        os.replace(Path(stage, name), out / name)
            except BaseException:
                for name, saved in reversed(done):
                    if saved:
                        os.replace(old / name, out / name)
                    else:
                        (out / name).unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise UsageError(f"cannot write the output files under {out}: {exc}") from None


def cmd_split(args) -> int:
    schema = _schema_from_args(args)
    ds, stats = ingest_csv(args.data, schema)
    spec = SplitSpec(*(args.fractions or ()), seed=derive_seed(args.seed, STAGE_SPLIT))
    result = stratified_split(ds, spec)

    out = _out_dir(args)
    _write_all(out, {
        "private.csv": csv_text(result.private),
        "public.csv": csv_text(result.public_pool),
        "test.csv": csv_text(result.test),
        "split_manifest.json": split_manifest_json(result, spec),
    })
    print(
        f"split {ds.n_rows} rows ({stats.n_imputed} cells imputed) into "
        f"private={result.private.n_rows} public={result.public_pool.n_rows} "
        f"test={result.test.n_rows} under {out}"
    )
    print("public.csv is written without labels")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    schema = _schema_from_args(args)
    ds, stats = ingest_csv(args.data, schema)
    config = _build_config(args)
    run = run_pipeline(ds, config)

    artifacts = {
        "run.json": run_json(run),
        "classifier_table.csv": _classifier_table(run.teacher_race),
        "fidelity_table.csv": _fidelity_table(run.fidelity),
        "roc_teacher.csv": run.fidelity.teacher_roc.to_csv_text(),
        "roc_student.csv": run.fidelity.student_roc.to_csv_text(),
    }
    student_file = student_note = None
    if has_codec(run.student.spec.kind):
        student_file = "student_model.json"
        artifacts[student_file] = model_text(run.student, encode=file_json)
    else:  # knn, whose params are rows
        student_note = (
            "student is a nearest-neighbor model; no shareable file is "
            "written because its parameters would be raw training rows"
        )

    manifest = {
        "command": "run",
        "data_path": str(args.data),
        "ingest": asdict(stats),
        "config": config.to_json_dict(),
        "artifacts": {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(artifacts.items())
        },
        "student_model_file": student_file,
        "note": student_note,
    }
    artifacts["manifest.json"] = (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    _write_all(_out_dir(args), artifacts, owned=["student_model.json"])

    fid = run.fidelity
    race = run.teacher_race
    print(
        f"teacher={run.teacher.spec.kind} "
        f"(cv {race.selection_metric}="
        f"{_fmt(race.winner.mean(race.selection_metric))}) "
        f"student={run.student.spec.kind}"
    )
    print(
        f"test accuracy teacher={_fmt(fid.teacher_metrics.accuracy)} "
        f"student={_fmt(fid.student_metrics.accuracy)} "
        f"auc teacher={_fmt(fid.teacher_auc)} student={_fmt(fid.student_auc)} "
        f"agreement={_fmt(fid.agreement)}"
    )
    if student_note:
        print(student_note)
    print(f"artifacts written under {_out_dir(args)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = import_model(args.model)
    schema = _schema_from_args(args)
    ds, _ = ingest_csv(args.data, schema)
    if tuple(ds.class_names) != model.class_names:
        raise DataError(
            f"label values {reprlib.repr(list(ds.class_names))} do not match the model's "
            f"classes {reprlib.repr(list(model.class_names))}; check --positive-class and "
            "--label-column"
        )
    pred, scores = decide_batch(model, ds.features)
    result = {
        "n": ds.n_rows,
        "model_kind": model.spec.kind,
        "positive": positive_metrics(ds.labels, pred).to_json_dict(),
        "macro": macro_metrics(ds.labels, pred, model.n_classes).to_json_dict(),
    }
    if model.n_classes == 2:
        result["auc"] = roc(scores, ds.labels).auc
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mimiclearn",
        description=(
            "Train a private teacher, annotate a public pool, train a "
            "shareable student, and measure how closely it mimics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser(
        "split", help="three-way stratified split of a labeled CSV",
        description="Writes private.csv, public.csv (labels stripped), "
                    "test.csv and split_manifest.json.",
    )
    p_split.set_defaults(func=cmd_split)

    p_run = sub.add_parser(
        "run", help="full pipeline: split, teacher, annotate, student, compare",
        description="Writes run.json, classifier_table.csv, fidelity_table.csv, "
                    "roc_teacher.csv, roc_student.csv, student_model.json "
                    "(unless the student is nearest-neighbor) and manifest.json.",
    )
    p_run.set_defaults(func=cmd_run)
    fractions = ",".join(map(str, SplitSpec().fractions))
    for p in (p_split, p_run):
        _add_data_flags(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--fractions", type=_parse_fractions, default=None, metavar="PRIV,PUB,TEST",
            help=f"private/public/test fractions, summing to 1 (default {fractions})",
        )
        p.add_argument(
            "--out-dir", default=None,
            help=f"output directory (default: ${OUT_DIR_ENV} or '.')",
        )

    p_run.add_argument(
        "--cv-k", type=int, default=None, metavar="K",
        help=f"cross-validation folds for selection (default {PipelineConfig.cv_k})",
    )
    p_run.add_argument(
        "--selection-metric", choices=SELECTION_METRICS, default=None,
        help="metric the model race optimizes "
             f"(default {PipelineConfig.selection_metric})",
    )
    p_run.add_argument(
        "--config", default=None, metavar="JSON",
        help="JSON file with specs/cv_k/selection_metric/fractions; "
             "explicit flags win over the file",
    )
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility (must be >= 1); training is "
             "single-threaded and --jobs never changes results",
    )

    p_eval = sub.add_parser(
        "evaluate", help="score a shared student model file on a labeled CSV",
        description="Prints a metrics report as JSON on stdout.",
    )
    p_eval.add_argument("--model", required=True, metavar="JSON",
                        help="student model file")
    _add_data_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    except UsageError as exc:
        print(f"mimiclearn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"mimiclearn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        print(f"mimiclearn: pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except MemoryError:
        print("mimiclearn: pipeline error: out of memory", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
