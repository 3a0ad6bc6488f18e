"""Tests of the benchmark's own gate and tracer, on a small run workload.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


@pytest.fixture(scope="module")
def ml():
    return bench.load_library(bench.ROOT / "src")


def prepare_small(ml, work: Path, seed: int) -> list[str]:
    """200 cardio_like rows; a race without knn, so a student file is written."""
    data = ml.synthetic.cardio_like().select(np.arange(200))
    csv_path = work / "small.csv"
    ml.save_csv(data, csv_path)
    config = work / "small.json"
    config.write_text(json.dumps({
        "cv_k": 3,
        "specs": [{"kind": "nb"},
                  {"kind": "svm", "hyperparameters": {"epochs": 2}},
                  {"kind": "rf", "hyperparameters": {"n_trees": 3}}],
    }))
    return ["run", "--data", str(csv_path), "--positive-class", "positive",
            "--seed", str(seed), "--jobs", "1", "--config", str(config)]


@pytest.fixture()
def small(ml, tmp_path):
    return prepare_small(ml, tmp_path, seed=3), tmp_path


def reference(ml, argv, work):
    op = bench.judge(ml, bench.execute(ml, argv, work / "reference"), None)
    assert not op.failed, op.problems
    assert op.digests["student_model.json"] is not None
    return bench.frozen_of(op)


def test_clean_run_has_no_failures(ml, small):
    argv, work = small
    ops = bench.run_ops(ml, argv, work, seconds=0, expected=reference(ml, argv, work))
    assert len(ops) == 1 and bench.failed_share(ops) == 0.0
    assert 0.0 <= ops[0].values["agreement"] <= 1.0


@pytest.mark.parametrize("position", ["first", "digit"])
def test_corrupted_student_model_byte_counts_as_failed(ml, small, position):
    argv, work = small
    expected = reference(ml, argv, work)
    op = bench.execute(ml, argv, work / "out")
    path = work / "out" / "student_model.json"
    data = bytearray(path.read_bytes())
    if position == "first":
        i = 0  # breaks the JSON: the file no longer re-imports
    else:
        i = next(k for k in range(len(data) - 1, 0, -1) if chr(data[k]).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    path.write_bytes(bytes(data))

    bench.judge(ml, op, expected)
    assert bench.failed_share([op]) > 0
    assert any("manifest.json" in p for p in op.problems)
    assert any("student_model.json sha256" in p for p in op.problems)
    if position == "first":
        assert any("re-import" in p for p in op.problems)


def test_wrong_frozen_digest_counts_as_failed(ml, small, tmp_path):
    argv, work = small
    expected = reference(ml, argv, work)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"small": {"3": {**expected, "run.json": "0" * 64}}}))
    frozen = bench.frozen_digests("small", 3, golden)
    assert bench.frozen_digests("small", 4, golden) is None

    ops = bench.run_ops(ml, argv, work, seconds=0, expected=frozen)
    assert bench.failed_share(ops) == 1.0
    assert "run.json sha256" in ops[0].problems[0]


def test_nonzero_exit_counts_as_failed(ml, small):
    argv, work = small
    op = bench.judge(ml, bench.execute(ml, argv + ["--cv-k", "1"], work / "bad"), None)
    assert op.exit_code == 1 and op.failed


def test_traced_run_restores_bindings_and_writes_same_bytes(ml, small):
    argv, work = small
    modules = (ml.cli, ml.mimic, ml.classifiers)
    before = [dict(vars(m)) for m in modules]

    plain, traced, tracer = bench.traced_pair(ml, argv, work, None)

    for module, names in zip(modules, before):
        after = vars(module)
        assert after.keys() == names.keys()
        assert all(after[k] is v for k, v in names.items())
    assert not plain.failed and not traced.failed, traced.problems
    assert traced.digests == plain.digests

    metrics = tracer.layer_metrics()
    assert metrics["forest.fit_calls"] > 0 and metrics["forest.nodes"] > 0
    assert metrics["svm.sgd_steps"] > 0
    assert metrics["data.ingest_rows"] == 200
    assert metrics["model_io.export_bytes"] == (work / "out-traced" / "student_model.json").stat().st_size
    assert all(v == 0 for k, v in metrics.items() if k.endswith(".errors"))
    # every span's self time belongs to exactly one layer metric
    wall = traced.seconds
    timed = sum(v for k, v in metrics.items() if k.endswith("_s") or k == "metrics.s")
    assert timed == pytest.approx(sum(self_times(tracer.spans)))
    assert timed <= wall


def test_errors_are_counted_per_layer(ml, small):
    argv, work = small
    with Tracer(ml) as tracer:
        op = bench.execute(ml, argv + ["--positive-class", "nope"], work / "bad", tracer)
    assert op.exit_code == 2
    assert tracer.layer_metrics()["data.errors"] == 1


def test_self_time_subtracts_children():
    spans = [Span("cli.main", 0.0, 10.0, None, False),
             Span("mimic.run_pipeline", 1.0, 9.0, 0, False),
             Span("rf.fit", 2.0, 7.0, 1, False)]
    assert self_times(spans) == [2.0, 3.0, 5.0]


def test_speed_probe_samples_scales_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with bench.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3

    slow = 2 * bench.PROBE_REFERENCE_S
    probe.samples = [(float(t), slow) for t in range(10)] + [(5.0, 1.0)]
    assert probe.factor(0.0, 9.0) == pytest.approx(0.5)  # the 1.0 s outlier is trimmed
    assert probe.factor(20.0, 30.0) == 1.0  # no samples: unscaled
