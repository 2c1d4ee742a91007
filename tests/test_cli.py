"""End-to-end command-line behavior, exit codes, and output formats."""

import json
from pathlib import Path

import numpy as np
import pytest

from prs.base_features import FEATURE_NAMES
from prs.cli import main
from prs.dataset import (
    LabeledDataset,
    SignalSegment,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from prs.growth import GrowthConfig
from prs.pipeline import PipelineConfig, extract_base_matrix, fit_prep
from prs.soil import SoilConfig, convolve_soil

import reference
from conftest import run_cli


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    manifest = write_dataset(generate_synthetic(4, 64, seed=3), root)
    return str(manifest)


def run_ok(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


# -- synth ---------------------------------------------------------------------


def test_synth_writes_manifest_and_signal_files(tmp_path, capsys):
    out = tmp_path / "data"
    stdout = run_ok(
        ["synth", "--n", "3", "--len", "32", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert stdout.strip().endswith("manifest.csv")
    assert (out / "manifest.csv").exists()
    assert len(list(out.glob("*.txt"))) == 6


def test_synth_is_deterministic_across_directories(tmp_path, capsys):
    args = ["synth", "--n", "2", "--len", "32", "--seed", "9"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "manifest.csv").read_bytes()
    b = (tmp_path / "b" / "manifest.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "P0.txt").read_bytes() == (
        tmp_path / "b" / "P0.txt"
    ).read_bytes()


def test_synth_requires_seed(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert "--seed" in captured.err


# -- extract / spectral ----------------------------------------------------------


def test_extract_csv_to_stdout(data_dir, capsys):
    stdout = run_ok(["extract", "--manifest", data_dir], capsys)
    lines = stdout.strip().split("\n")
    assert lines[0] == "id,label," + ",".join(FEATURE_NAMES)
    assert len(lines) == 9
    assert lines[1].startswith("P0,P,")


def test_extract_out_file_matches_stdout(data_dir, tmp_path, capsys):
    stdout = run_ok(["extract", "--manifest", data_dir], capsys)
    out_file = tmp_path / "features.csv"
    run_ok(["extract", "--manifest", data_dir, "--out", str(out_file)], capsys)
    assert out_file.read_text() == stdout


def test_spectral_csv_header(data_dir, capsys):
    stdout = run_ok(["spectral", "--manifest", data_dir], capsys)
    lines = stdout.strip().split("\n")
    assert lines[0] == "id,label,MaxPSD,MedPSD"
    assert len(lines) == 9


@pytest.mark.parametrize(
    "argv, rate, scale, columns",
    [
        (["extract"], 1000.0, 1e160, "STD, VAR, RMS, SKW, KURT, SSI, NLE"),
        (["spectral"], 1000.0, 1e160, "MaxPSD, MedPSD"),
        (["spectral", "--median-mode", "frequency"], 1000.0, 1e160, "MaxPSD, MedPSD"),
        # at 0.001 Hz every bin is finite, but the band's total is not, so
        # it has no half-power frequency
        (["spectral", "--median-mode", "frequency"], 0.001, 1e152, "MedPSD"),
    ],
    ids=["extract", "spectral", "spectral-frequency", "spectral-frequency-total"],
)
def test_extract_overflowing_segment_prints_only_the_error_line(
    tmp_path, argv, rate, scale, columns
):
    # a child process, so stderr holds whatever numpy would print
    data = generate_synthetic(2, 64, seed=3)
    segments = [
        SignalSegment(s.id, s.label, rate, s.samples * (scale if n == 1 else 1.0))
        for n, s in enumerate(data.segments)
    ]
    manifest = write_dataset(LabeledDataset(data.name, tuple(segments)), tmp_path)
    proc = run_cli([*argv, "--manifest", str(manifest)])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: segment {segments[1].id!r} overflows float64 in {columns}"
    ]


@pytest.mark.parametrize("median_mode", ["psd", "frequency"])
def test_spectral_infinite_sampling_rate_prints_only_the_error_line(
    data_dir, tmp_path, median_mode
):
    # the frequency mode divided by zero in np.fft.fftfreq, and the psd
    # mode wrote zeros; both must reject the manifest, in a child process
    # so that stderr holds any traceback
    source = Path(data_dir)
    lines = source.read_text().splitlines()
    lines[0] = "# sampling_rate=inf"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    for signal in source.parent.glob("*.txt"):
        (tmp_path / signal.name).write_text(signal.read_text())
    proc = run_cli(["spectral", "--manifest", str(manifest), "--median-mode", median_mode])
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {manifest}: row 1: segment ")
    assert line.endswith("sampling_rate must be finite and > 0, got inf")


def test_missing_manifest_is_runtime_error(capsys):
    rc = main(["extract", "--manifest", "/nonexistent/manifest.csv"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


# -- rank --------------------------------------------------------------------------


def test_rank_report_shape_and_determinism(data_dir, capsys):
    argv = ["rank", "--manifest", data_dir]
    first = run_ok(argv, capsys)
    second = run_ok(argv, capsys)
    assert first == second
    report = json.loads(first)
    assert set(report["gains"]) == set(FEATURE_NAMES)
    assert sorted(report["ranked"]) == sorted(FEATURE_NAMES)
    assert sorted(report["soil_column_order"]) == sorted(FEATURE_NAMES)
    assert "seed" not in report["config"]
    assert "out" not in report["config"]
    assert "config" not in report["config"]


# -- soil-dump ----------------------------------------------------------------------


def test_soil_dump_prints_both_grids(data_dir, capsys):
    stdout = run_ok(
        ["soil-dump", "--manifest", data_dir, "--sample", "P0"],
        capsys,
    )
    discrete_text, nutrient_text = stdout.split("\n\n")
    discrete = [line.split(",") for line in discrete_text.strip().split("\n")]
    nutrient = [line.split(",") for line in nutrient_text.strip().split("\n")]
    assert len(discrete) == 15 and len(nutrient) == 15
    assert all(len(row) == 12 for row in discrete)
    assert set(v for row in discrete for v in row) <= {"0", "1"}
    assert all(float(v) >= 0.0 for row in nutrient for v in row)


def test_soil_dump_out_directory(data_dir, tmp_path, capsys):
    out = tmp_path / "soil"
    run_ok(
        [
            "soil-dump",
            "--manifest",
            data_dir,
            "--sample",
            "N1",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert (out / "discrete_soil.csv").exists()
    assert (out / "nutrient_matrix.csv").exists()


# -- grow ----------------------------------------------------------------------------


def test_grow_report(data_dir, capsys):
    stdout = run_ok(
        [
            "grow",
            "--manifest",
            data_dir,
            "--sample",
            "P0",
            "--days",
            "5",
            "--division-limit",
            "2",
        ],
        capsys,
    )
    report = json.loads(stdout)
    assert report["id"] == "P0"
    assert report["nf"] >= 0.0
    assert 0.0 <= report["rf"] <= 154.0
    assert report["days_run"] == len(report["day_log"]) <= 5
    assert all(len(day) <= 2 for day in report["day_log"])
    assert report["n_occupied"] == 1 + sum(len(day) for day in report["day_log"])
    assert report["config"]["days"] == 5


def test_grow_without_sample_is_usage_error(data_dir, capsys):
    rc = main(["grow", "--manifest", data_dir])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--sample" in captured.err


def test_grow_unknown_sample_is_runtime_error(data_dir, capsys):
    rc = main(["grow", "--manifest", data_dir, "--sample", "Q9"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def test_grow_dump_frames(data_dir, tmp_path, capsys):
    frames = tmp_path / "frames"
    stdout = run_ok(
        [
            "grow",
            "--manifest",
            data_dir,
            "--sample",
            "P1",
            "--days",
            "3",
            "--dump-frames",
            str(frames),
        ],
        capsys,
    )
    report = json.loads(stdout)
    frame_files = sorted(frames.glob("day*.csv"))
    assert len(frame_files) == report["days_run"] + 1
    assert (frames / "summary.json").exists()
    last = np.array(
        [[int(v) for v in line.split(",")] for line in
         frame_files[-1].read_text().strip().split("\n")]
    )
    assert int(last.sum()) == report["n_occupied"]


def test_grow_custom_radicle_and_flags(data_dir, capsys):
    stdout = run_ok(
        [
            "grow",
            "--manifest",
            data_dir,
            "--sample",
            "P0",
            "--radicle",
            "2,3;4,5",
            "--no-occupy-zero",
        ],
        capsys,
    )
    report = json.loads(stdout)
    assert report["config"]["radicle"] == "2,3;4,5"
    assert report["config"]["occupy_zero"] is False
    assert report["n_occupied"] >= 2


# -- soil-dump and grow against the per-row reference chain ---------------------

# the grow options of each case and the settings they stand for
IDENTITY_CASES = {
    "defaults": ([], PipelineConfig()),
    "full-grid": (
        ["--depth", "3", "--days", "40", "--division-limit", "3"],
        PipelineConfig(
            soil=SoilConfig(depth=3), growth=GrowthConfig(days=40, division_limit=3)
        ),
    ),
    "no-occupy-zero": (
        ["--no-occupy-zero"],
        PipelineConfig(growth=GrowthConfig(occupy_zero=False)),
    ),
    "onehot": (
        ["--fill-mode", "onehot"],
        PipelineConfig(soil=SoilConfig(fill_mode="onehot")),
    ),
    "radicle": (
        ["--radicle", "1,6;1,6;9,1", "--depth", "9"],
        PipelineConfig(
            soil=SoilConfig(depth=9),
            growth=GrowthConfig(radicle=((1, 6), (1, 6), (9, 1))),
        ),
    ),
}


def grid_csv(grid, cell):
    return "".join(",".join(cell(v) for v in line) + "\n" for line in grid)


@pytest.fixture(scope="module")
def reference_rows(data_dir):
    """Raw base row of each sample and the artifacts fitted on all rows,
    as the single-sample commands fit them."""
    dataset = load_dataset(data_dir)
    base = extract_base_matrix(dataset)
    rows = {seg.id: row for seg, row in zip(dataset.segments, base)}
    return rows, fit_prep(base, dataset.labels)


@pytest.mark.parametrize("sample", ["P0", "N1"])
@pytest.mark.parametrize("case", list(IDENTITY_CASES))
def test_soil_dump_and_grow_equal_the_reference_chain(
    data_dir, reference_rows, tmp_path, case, sample, capsys
):
    args, config = IDENTITY_CASES[case]
    rows, artifacts = reference_rows
    soil = reference.soil_for_row(rows[sample], artifacts, config.soil)
    nutrients = convolve_soil(soil)
    state = reference.grow(nutrients, config.growth)
    nf, rf = reference.extract_prs(state).tolist()

    soil_args = ["--depth", str(config.soil.depth), "--fill-mode", config.soil.fill_mode]
    out = tmp_path / "soil"
    run_ok(
        ["soil-dump", "--manifest", data_dir, "--sample", sample, "--out", str(out)]
        + soil_args,
        capsys,
    )
    assert (out / "discrete_soil.csv").read_text() == grid_csv(
        soil, lambda v: str(int(v))
    )
    assert (out / "nutrient_matrix.csv").read_text() == grid_csv(
        nutrients, lambda v: repr(float(v))
    )

    frames = tmp_path / "frames"
    stdout = run_ok(
        ["grow", "--manifest", data_dir, "--sample", sample, "--dump-frames", str(frames)]
        + args,
        capsys,
    )
    want = {
        "id": sample,
        "nf": nf,
        "rf": rf,
        "days_run": len(state.day_log),
        "n_occupied": int(state.occupancy.sum()),
        "day_log": [[list(cell) for cell in day] for day in state.day_log],
        "config": json.loads(stdout)["config"],
    }
    assert stdout == json.dumps(want, indent=2) + "\n"
    assert (frames / "summary.json").read_text() == stdout
    occupancy = np.zeros_like(state.occupancy)
    days = [config.growth.radicle, *state.day_log]
    for day, cells in enumerate(days):
        for r, c in cells:
            occupancy[r - 1, c - 1] = 1
        text = (frames / f"day{day:02d}.csv").read_text()
        assert text == grid_csv(occupancy, lambda v: str(int(v)))
    assert len(list(frames.glob("day*.csv"))) == len(days)
    if case == "full-grid":
        # a 3 x 12 grid fills long before 40 days
        assert occupancy.all() and len(state.day_log) < 40


def test_grow_bad_radicle_is_usage_error(data_dir, capsys):
    rc = main(
        [
            "grow",
            "--manifest",
            data_dir,
            "--sample",
            "P0",
            "--radicle",
            "nonsense",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "radicle" in captured.err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("grow", "--days", "-1"),
        ("grow", "--depth", "0"),
        ("grow", "--radicle", "20,1"),
        ("grow", "--fill-mode", "bogus"),
        ("extract", "--zc-threshold", "-1"),
        ("evaluate", "--median-mode", "bogus"),
        # a threshold must be finite: NaN counted no zero crossings at all
        *(
            ("extract", option, value)
            for option in ("--zc-threshold", "--ssc-threshold", "--wamp-threshold")
            for value in ("nan", "inf")
        ),
    ],
)
def test_bad_pipeline_option_is_usage_error_before_loading(
    data_dir, command, option, value, monkeypatch, capsys
):
    def no_load(*args, **kwargs):
        raise AssertionError("read the data before checking the options")

    monkeypatch.setattr("prs.cli.load_dataset", no_load)
    argv = [command, "--manifest", data_dir, option, value]
    argv += {"grow": ["--sample", "P0"], "evaluate": ["--seed", "0"]}.get(command, [])
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    [line] = captured.err.splitlines()
    assert option[2:].replace("-", "_") in line


# -- classify -----------------------------------------------------------------------


def test_classify_report(data_dir, capsys):
    stdout = run_ok(
        [
            "classify",
            "--manifest",
            data_dir,
            "--seed",
            "1",
            "--classifier",
            "LDA",
        ],
        capsys,
    )
    report = json.loads(stdout)
    assert report["classifier"] == "LDA"
    assert report["variant"] == "PRS"
    assert 0.0 <= report["accuracy"] <= 1.0
    confusion = report["confusion"]
    assert sum(confusion.values()) == report["n_test"]
    assert report["config"]["global_prep"] is False


@pytest.fixture(scope="module")
def two_per_class_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-two-per-class")
    return str(write_dataset(generate_synthetic(2, 64, seed=3), root))


@pytest.mark.parametrize("variant", ["BASE", "COMPARISON"])
def test_classify_without_prs_columns_skips_feature_prep(
    two_per_class_dir, variant, capsys
):
    # 1 + 1 training rows are too few for fit_prep, which these variants skip
    stdout = run_ok(
        [
            "classify",
            "--manifest",
            two_per_class_dir,
            "--seed",
            "1",
            "--classifier",
            "LDA",
            "--variant",
            variant,
        ],
        capsys,
    )
    report = json.loads(stdout)
    assert report["variant"] == variant
    assert report["n_train"] == 2


def test_classify_rejects_too_small_folds_up_front(
    two_per_class_dir, monkeypatch, capsys
):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the fold-size check")

    monkeypatch.setattr("prs.evaluation.extract_base_matrix", no_work)
    argv = ["classify", "--manifest", two_per_class_dir, "--seed", "1"]
    argv += ["--classifier", "LDA"]
    rc = main(argv + ["--variant", "PRS"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "smallest class has 2 segments" in captured.err
    monkeypatch.undo()
    # fitting prep once on all four rows is allowed
    run_ok(argv + ["--variant", "PRS", "--global-prep"], capsys)


@pytest.mark.parametrize("variant", ["BASE", "PRS"])
def test_classify_without_spectral_columns_skips_spectral(
    data_dir, variant, monkeypatch, capsys
):
    def no_spectral(*args, **kwargs):
        raise AssertionError("computed MaxPSD/MedPSD for a variant without them")

    monkeypatch.setattr("prs.evaluation.extract_spectral_matrix", no_spectral)
    argv = ["classify", "--manifest", data_dir, "--seed", "1", "--classifier", "LDA"]
    report = json.loads(run_ok(argv + ["--variant", variant], capsys))
    assert report["variant"] == variant


def test_classify_builds_rows_like_evaluate(
    data_dir, two_per_class_dir, monkeypatch, capsys
):
    # classify scores its split with evaluation.evaluate_splits, as evaluate does
    def no_work(*args, **kwargs):
        raise AssertionError("feature work the variant does not need")

    monkeypatch.setattr("prs.evaluation.extract_spectral_matrix", no_work)
    argv = ["classify", "--seed", "1", "--classifier", "LDA"]
    for variant in ("BASE", "PRS"):
        run_ok(argv + ["--manifest", data_dir, "--variant", variant], capsys)
    monkeypatch.setattr("prs.evaluation.extract_base_matrix", no_work)
    rc = main(argv + ["--manifest", two_per_class_dir, "--variant", "PRS"])
    assert rc == 1
    assert "smallest class has 2 segments" in capsys.readouterr().err


@pytest.fixture(scope="module")
def overlap_dir(tmp_path_factory):
    # overlapping classes, so that the accuracy depends on the split
    rng = np.random.default_rng(1)
    tone = 0.3 * np.sin(2.0 * np.pi * 10.0 * np.arange(64) / 1000.0)
    segments = [
        SignalSegment(f"P{i}", "P", 1000.0, rng.standard_normal(64) + tone)
        for i in range(8)
    ] + [
        SignalSegment(f"N{i}", "N", 1000.0, 1.15 * rng.standard_normal(64))
        for i in range(8)
    ]
    root = tmp_path_factory.mktemp("cli-overlap")
    dataset = LabeledDataset(name="overlap", segments=tuple(segments))
    return str(write_dataset(dataset, root))


@pytest.mark.parametrize("prep", ["per-fold", "global"])
@pytest.mark.parametrize("variant", ["BASE", "BASE_NF", "BASE_RF", "PRS", "COMPARISON"])
@pytest.mark.parametrize("kind", ["LR", "LDA", "QDA", "SVM_POLY"])
def test_classify_equals_rep0_of_evaluate(overlap_dir, kind, variant, prep, capsys):
    common = ["--manifest", overlap_dir, "--seed", "5"]
    common += ["--global-prep"] if prep == "global" else []
    single = json.loads(
        run_ok(
            ["classify", *common, "--classifier", kind, "--variant", variant],
            capsys,
        )
    )
    grid = json.loads(
        run_ok(
            ["evaluate", *common, "--classifiers", kind, "--variants", variant,
             "--reps", "1"],
            capsys,
        )
    )
    assert single["accuracy"] == grid["cells"][0]["accuracies"][0]


def test_classify_draws_its_split_through_draw_splits(overlap_dir, monkeypatch, capsys):
    # one split at --rate, rep 0 of --seed, from evaluation.draw_splits
    from prs import cli, evaluation

    calls = []

    def recording(*args):
        calls.append(args[1:])
        return evaluation.draw_splits(*args)

    monkeypatch.setattr(cli, "draw_splits", recording)
    argv = ["classify", "--manifest", overlap_dir, "--seed", "5", "--classifier", "LDA"]
    report = json.loads(run_ok(argv + ["--rate", "0.3"], capsys))
    assert calls == [((0.3,), 1, 5)]
    assert (report["n_train"], report["n_test"]) == (2 * round(0.3 * 8), 2 * 6)
    confusion = report["confusion"]
    assert report["accuracy"] == (confusion["tp"] + confusion["tn"]) / report["n_test"]


def test_classify_rejects_unknown_classifier(data_dir, capsys):
    rc = main(
        [
            "classify",
            "--manifest",
            data_dir,
            "--seed",
            "1",
            "--classifier",
            "FOREST",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "classifier" in captured.err


# -- evaluate ------------------------------------------------------------------------


EVAL_ARGS = [
    "--classifiers",
    "LDA",
    "--variants",
    "BASE,PRS",
    "--reps",
    "2",
    "--seed",
    "7",
]


def test_evaluate_stdout_reruns_byte_identical(data_dir, capsys):
    argv = ["evaluate", "--manifest", data_dir] + EVAL_ARGS
    first = run_ok(argv, capsys)
    second = run_ok(argv, capsys)
    assert first == second
    # a BLAS thread count could change the LAPACK calls
    for threads in ("1", "2"):
        child = run_cli(argv, OPENBLAS_NUM_THREADS=threads)
        assert child.returncode == 0, child.stderr
        assert child.stdout == first
    report = json.loads(first)
    assert report["classifiers"] == ["LDA"]
    assert report["variants"] == ["BASE", "PRS"]
    assert "threads" not in report["config"]


def test_evaluate_out_directory(data_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    run_ok(
        ["evaluate", "--manifest", data_dir, "--out", str(out)] + EVAL_ARGS,
        capsys,
    )
    report = json.loads((out / "eval_report.json").read_text())
    csv_lines = (out / "eval_report.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "classifier,variant,rate,rep_mean,rep_std,n_reps"
    assert len(csv_lines) == 1 + len(report["cells"])
    assert csv_lines[1].startswith("LDA,BASE,")


def test_evaluate_rejects_single_segment_class_before_feature_work(
    tmp_path, capsys, monkeypatch
):
    manifest = write_dataset(generate_synthetic(3, 64, seed=3), tmp_path)
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(x for x in lines if not x.startswith(("N1,", "N2,"))))

    def no_feature_work(*args, **kwargs):
        raise AssertionError("feature extraction ran")

    monkeypatch.setattr("prs.evaluation.extract_base_matrix", no_feature_work)
    rc = main(["evaluate", "--manifest", str(manifest), "--seed", "0", "--reps", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "class 'N' has fewer than 2 segments" in captured.err


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("classify", "--rate", "nan", "training rate must be in (0, 1), got nan"),
        ("classify", "--rate", "1.0", "training rate must be in (0, 1), got 1.0"),
        ("evaluate", "--rates", "0.6,0.6", "rates must be unique within one run"),
        ("evaluate", "--rates", "0.5,inf", "training rate must be in (0, 1), got inf"),
        ("evaluate", "--reps", "0", "reps must be >= 1, got 0"),
    ],
)
def test_bad_rate_or_reps_is_usage_error_before_loading(
    data_dir, tmp_path, command, option, value, message, monkeypatch, capsys
):
    def no_load(*args, **kwargs):
        raise AssertionError("read the data before checking the options")

    monkeypatch.setattr("prs.cli.load_dataset", no_load)
    argv = [command, "--manifest", data_dir, "--seed", "0"]
    argv += ["--classifier", "LR"] if command == "classify" else []
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option[2:]} = {value}\n")
    for extra in ([option, value], ["--config", str(cfg)]):
        rc = main(argv + extra)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("option", ["classifiers", "variants", "rates"])
@pytest.mark.parametrize("text", [",", " , ,", ""])
def test_evaluate_empty_list_option_is_usage_error(
    data_dir, tmp_path, option, text, monkeypatch, capsys
):
    def no_load(*args, **kwargs):
        raise AssertionError("read the data before checking the options")

    monkeypatch.setattr("prs.cli.load_dataset", no_load)
    argv = ["evaluate", "--manifest", data_dir, "--seed", "0"]
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"{option} = {text}\n")
    for extra in (["--" + option, text], ["--config", str(cfg)]):
        rc = main(argv + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and option in err


def test_evaluate_rejects_unknown_variant(data_dir, capsys):
    rc = main(
        ["evaluate", "--manifest", data_dir, "--seed", "0", "--variants", "BASE,EXTRA"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "EXTRA" in captured.err


# -- correlate -----------------------------------------------------------------------


def test_correlate_out_directory(data_dir, tmp_path, capsys):
    out = tmp_path / "corr"
    run_ok(
        ["correlate", "--manifest", data_dir, "--out", str(out)],
        capsys,
    )
    report = json.loads((out / "correlation_report.json").read_text())
    assert len(report["names"]) == 16
    assert len(report["matrix"]) == 16
    for key in ("mean_abs_base_base", "mean_abs_prs_base", "mean_abs_spectral_base"):
        assert 0.0 <= report[key] <= 1.0
    csv_lines = (out / "correlation_report.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 17
    assert csv_lines[0].startswith("feature,STD,")
    assert csv_lines[1].startswith("STD,1.0,")


@pytest.mark.parametrize("command", ["rank", "soil-dump", "grow", "correlate"])
def test_commands_without_randomness_reject_seed(data_dir, command, capsys):
    argv = [command, "--manifest", data_dir]
    if command in ("soil-dump", "grow"):
        argv += ["--sample", "P0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# -- config files --------------------------------------------------------------------


def test_config_file_equivalent_to_flags(data_dir, tmp_path, capsys):
    cfg = tmp_path / "grow.cfg"
    cfg.write_text("# growth defaults\ndays = 5\n")
    by_config = run_ok(
        ["grow", "--manifest", data_dir, "--sample", "P0", "--config", str(cfg)],
        capsys,
    )
    by_flags = run_ok(
        ["grow", "--manifest", data_dir, "--sample", "P0", "--days", "5"],
        capsys,
    )
    assert by_config == by_flags


def test_flag_overrides_config(data_dir, tmp_path, capsys):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text("manifest = /nonexistent/manifest.csv\n")
    override = run_ok(
        ["rank", "--config", str(cfg), "--manifest", data_dir],
        capsys,
    )
    plain = run_ok(["rank", "--manifest", data_dir], capsys)
    assert override == plain


def test_unknown_config_key(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["rank", "--manifest", data_dir, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "bogus" in captured.err


def test_malformed_config_line(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed 4\n")
    rc = main(["rank", "--manifest", data_dir, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "key = value" in captured.err


def test_config_can_supply_required_option(data_dir, tmp_path, capsys):
    cfg = tmp_path / "classify.cfg"
    cfg.write_text("seed = 11\n")
    stdout = run_ok(
        ["classify", "--manifest", data_dir, "--classifier", "LDA",
         "--config", str(cfg)], capsys
    )
    assert json.loads(stdout)["config"]["seed"] == 11
