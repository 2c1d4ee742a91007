"""Splits, confusion accounting, ANOVA, correlations, and full runs."""

import json
import math

import numpy as np
import pytest

from prs import evaluation
from prs.classifiers import CLASSIFIER_KINDS, train
from prs.dataset import generate_synthetic
from prs.errors import PrsError
from prs.evaluation import (
    TABLE_NAMES,
    VARIANTS,
    AnovaResult,
    accuracy,
    anova_oneway,
    assemble_variant,
    build_feature_table,
    check_rates,
    confusion_counts,
    correlation_matrix,
    draw_splits,
    evaluate_splits,
    run_experiment,
    stratified_split,
)
from prs.growth import GrowthConfig
from prs.pipeline import PipelineConfig, fit_prep, prs_features
from prs.soil import SoilConfig

from conftest import dataset_rows, scaled_variants

# -- confusion counts and accuracy ----------------------------------------------


def test_confusion_accuracy_values():
    # one call over a stack of (tp, tn, fp, fn) tables, one accuracy each
    counts = np.array([[50, 50, 0, 0], [0, 0, 50, 50], [30, 40, 10, 20]])
    assert accuracy(counts).tolist() == [1.0, 0.0, 0.7]
    assert accuracy(counts.reshape(3, 1, 4)).shape == (3, 1)
    assert [accuracy(table) for table in counts] == [1.0, 0.0, 0.7]


def test_confusion_counts_from_labels():
    # the marks say which labels are the second class, "B"
    truth = np.array(["B", "B", "A", "A", "B"])
    pred = np.array(["B", "A", "A", "B", "B"])
    counts = confusion_counts(truth == "B", pred == "B")
    assert counts == (2, 1, 1, 1)
    assert accuracy(counts) == pytest.approx(0.6)


def test_confusion_counts_match_a_row_loop():
    rng = np.random.default_rng(9)
    for n in (0, 1, 7, 40):
        truth = rng.random(n) < 0.5
        pred = rng.random(n) < 0.5
        want = dict(tp=0, tn=0, fp=0, fn=0)
        for t, p in zip(truth.tolist(), pred.tolist()):
            key = ("t" if t == p else "f") + ("p" if p else "n")
            want[key] += 1
        for args in ((truth, pred), (truth.tolist(), pred.tolist())):
            counts = confusion_counts(*args)
            assert counts == (want["tp"], want["tn"], want["fp"], want["fn"])
            assert all(type(v) is int for v in counts)


def test_confusion_counts_length_mismatch():
    with pytest.raises(ValueError, match="count"):
        confusion_counts([True], [True, False])


# -- stratified split ---------------------------------------------------------


def test_four_sample_half_split():
    labels = ["A", "B", "A", "B"]
    train, test = stratified_split(
        labels, ("A", "B"), 0.5, np.random.default_rng(0)
    )
    assert len(train) == 2 and len(test) == 2
    assert sorted([labels[i] for i in train]) == ["A", "B"]
    assert sorted([labels[i] for i in test]) == ["A", "B"]


def test_split_partitions_everything():
    rng = np.random.default_rng(3)
    labels = ["A"] * 7 + ["B"] * 5
    for rate in (0.3, 0.6, 0.9):
        train, test = stratified_split(labels, ("A", "B"), rate, rng)
        merged = np.concatenate([train, test])
        assert sorted(merged.tolist()) == list(range(12))
        assert np.array_equal(train, np.sort(train))
        n_a = sum(1 for i in train if labels[i] == "A")
        assert n_a == min(max(round(rate * 7), 1), 6)


def test_split_always_leaves_test_rows_per_class():
    labels = ["A", "A", "B", "B"]
    train, test = stratified_split(
        labels, ("A", "B"), 0.99, np.random.default_rng(1)
    )
    assert sorted(labels[i] for i in test) == ["A", "B"]


def test_split_rate_validation():
    # the message of check_rates, the one rule for a rate
    rng = np.random.default_rng(0)
    for rate in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ValueError) as err:
            stratified_split(["A", "A", "B", "B"], ("A", "B"), rate, rng)
        assert str(err.value) == f"training rate must be in (0, 1), got {rate}"


def test_split_needs_two_per_class():
    with pytest.raises(ValueError, match="at least 2"):
        stratified_split(["A", "B", "B"], ("A", "B"), 0.5, np.random.default_rng(0))


def test_run_experiment_rejects_too_small_folds_up_front(monkeypatch):
    # 2 segments per class give 1 + 1 training rows, too few for fit_prep
    dataset = generate_synthetic(2, 128, seed=0)

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the fold-size check")

    monkeypatch.setattr("prs.evaluation.extract_base_matrix", no_work)
    with pytest.raises(PrsError, match="smallest class has 2 segments"):
        run_experiment(dataset, variants=("BASE", "PRS"), reps=1)


def test_split_deterministic_for_seeded_rng():
    labels = ["A"] * 10 + ["B"] * 10
    a = stratified_split(labels, ("A", "B"), 0.6, np.random.default_rng(42))
    b = stratified_split(labels, ("A", "B"), 0.6, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# -- ANOVA ---------------------------------------------------------------------


def test_anova_identical_groups():
    result = anova_oneway([[0.5, 0.6, 0.7], [0.5, 0.6, 0.7]])
    assert result.f == 0.0
    assert not result.infinite


def test_anova_zero_within_variance_with_separated_means():
    result = anova_oneway([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert result.infinite
    assert math.isinf(result.f)


def test_anova_small_worked_example():
    result = anova_oneway([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    assert result.f == pytest.approx(1.5)
    assert (result.df_between, result.df_within) == (1, 4)


def test_anova_validation():
    with pytest.raises(ValueError, match="2 groups"):
        anova_oneway([[1.0, 2.0]])
    with pytest.raises(ValueError, match="non-empty"):
        anova_oneway([[1.0], []])
    with pytest.raises(ValueError, match="observations"):
        anova_oneway([[1.0], [2.0]])


def test_anova_matches_textbook_formula_on_random_groups():
    rng = np.random.default_rng(10)
    groups = [rng.normal(size=8), rng.normal(size=5), rng.normal(size=7)]
    result = anova_oneway(groups)
    allv = np.concatenate(groups)
    grand = allv.mean()
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
    f = (ssb / 2) / (ssw / (len(allv) - 3))
    assert result.f == pytest.approx(f, rel=1e-12)
    assert isinstance(result, AnovaResult)


# -- correlations --------------------------------------------------------------


def test_correlation_self_and_negation():
    rng = np.random.default_rng(2)
    col = rng.normal(size=50)
    corr, constant = correlation_matrix(np.column_stack([col, col, -col]))
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.all(np.diag(corr) == 1.0)
    assert not constant.any()


def test_correlation_independent_noise_is_small():
    rng = np.random.default_rng(6)
    corr, _ = correlation_matrix(rng.normal(size=(1000, 2)))
    assert abs(corr[0, 1]) < 0.1


def test_correlation_constant_column_flagged():
    rng = np.random.default_rng(7)
    table = np.column_stack([rng.normal(size=10), np.full(10, 3.0)])
    corr, constant = correlation_matrix(table)
    assert constant.tolist() == [False, True]
    assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
    assert corr[1, 1] == 1.0


def test_correlation_needs_three_rows():
    with pytest.raises(ValueError, match="3 rows"):
        correlation_matrix(np.zeros((2, 4)))


def test_correlation_symmetric_and_bounded():
    rng = np.random.default_rng(8)
    corr, _ = correlation_matrix(rng.normal(size=(40, 6)))
    assert np.array_equal(corr, corr.T)
    assert np.all(np.abs(corr) <= 1.0)


# -- variant assembly ----------------------------------------------------------


def test_variant_widths():
    # the table of TABLE_NAMES: 12 base columns of 0, NF 1, RF 2, MaxPSD 3, MedPSD 4
    table = np.column_stack([np.zeros((5, 12)), np.tile([1.0, 2.0, 3.0, 4.0], (5, 1))])
    extras = {
        "BASE": [],
        "BASE_NF": [1.0],
        "BASE_RF": [2.0],
        "PRS": [1.0, 2.0],
        "COMPARISON": [3.0, 4.0],
    }
    for variant in VARIANTS:
        out = assemble_variant(variant, table)
        want = np.column_stack([table[:, :12], np.tile(extras[variant], (5, 1))])
        assert out.flags.c_contiguous and np.array_equal(out, want)
    names = assemble_variant("PRS", np.array([TABLE_NAMES]))[0]
    assert names.tolist() == list(TABLE_NAMES[:12]) + ["NF", "RF"]


def test_variant_unknown_name():
    with pytest.raises(ValueError, match="unknown variant 'EXTRA'"):
        assemble_variant("EXTRA", np.zeros((2, 16)))
    with pytest.raises(ValueError, match="unknown variant 'EXTRA'"):
        evaluate_splits(generate_synthetic(3, 32, 1), [], ["LDA"], ["EXTRA"])


# -- experiment runs -----------------------------------------------------------


def test_run_experiment_report_structure(small_synth):
    report = run_experiment(
        small_synth,
        classifiers=("LDA",),
        variants=("BASE", "PRS"),
        rates=(0.6,),
        reps=2,
        seed=5,
    )
    assert report["dataset"] == small_synth.name
    assert report["classes"] == ["N", "P"]
    assert report["reps"] == 2
    assert report["baseline_variant"] == "BASE"
    assert len(report["cells"]) == 2
    for cell in report["cells"]:
        assert len(cell["accuracies"]) == 2
        assert 0.0 <= cell["mean_accuracy"] <= 1.0
        assert cell["std_accuracy"] >= 0.0
    assert len(report["anova"]) == 1
    assert len(report["pairwise_diffs"]) == 1
    assert report["pairwise_diffs"][0]["variant"] == "PRS"
    assert report["classifiers"] == ["LDA"]
    assert json.dumps(report)  # json-ready throughout


@pytest.mark.parametrize(
    "variants",
    [("PRS", "BASE", "BASE_NF"), ("PRS", "BASE_NF", "COMPARISON")],
    ids=["base-second", "no-base"],
)
def test_report_summary_rows_equal_their_formulas_over_the_cells(overlap_dataset, variants):
    # every summary row is a function of the cells' per-rep accuracies
    rates = (0.5, 0.7)
    report = run_experiment(overlap_dataset, variants=variants, rates=rates, reps=3, seed=1)
    baseline = "BASE" if "BASE" in variants else variants[0]
    assert report["baseline_variant"] == baseline
    keys = [(k, v, r) for k in CLASSIFIER_KINDS for v in variants for r in rates]
    cells = report["cells"]
    assert [(c["classifier"], c["variant"], c["rate"]) for c in cells] == keys
    accuracies = {key: cell["accuracies"] for key, cell in zip(keys, cells)}
    for cell, accs in zip(cells, accuracies.values()):
        assert len(accs) == 3
        assert cell["mean_accuracy"] == float(np.mean(accs))
        assert cell["std_accuracy"] == float(np.std(accs, ddof=1))
    anova_keys = [(k, r) for k in CLASSIFIER_KINDS for r in rates]
    assert [(a["classifier"], a["rate"]) for a in report["anova"]] == anova_keys
    for row, (kind, rate) in zip(report["anova"], anova_keys):
        result = anova_oneway([accuracies[(kind, v, rate)] for v in variants])
        assert row == {
            "classifier": kind,
            "rate": rate,
            "f": "inf" if result.infinite else result.f,
            "df_between": result.df_between,
            "df_within": result.df_within,
            "infinite": result.infinite,
        }
    others = [v for v in variants if v != baseline]
    diff_keys = [(k, r, v) for k in CLASSIFIER_KINDS for r in rates for v in others]
    diffs = report["pairwise_diffs"]
    assert [(d["classifier"], d["rate"], d["variant"]) for d in diffs] == diff_keys
    for row, (kind, rate, variant) in zip(diffs, diff_keys):
        want = np.mean(accuracies[(kind, variant, rate)]) - np.mean(
            accuracies[(kind, baseline, rate)]
        )
        assert row["mean_diff_vs_baseline"] == float(want)


def test_run_experiment_single_rep_has_zero_std(tiny_dataset):
    report = run_experiment(
        tiny_dataset,
        classifiers=("LDA",),
        variants=("BASE",),
        rates=(0.5,),
        reps=1,
        seed=0,
    )
    cell = report["cells"][0]
    assert cell["std_accuracy"] == 0.0
    assert len(cell["accuracies"]) == 1
    assert report["anova"] == []


def test_run_experiment_seed_reproducible(small_synth):
    kwargs = dict(
        classifiers=("LR", "LDA"),
        variants=("BASE", "PRS"),
        rates=(0.6,),
        reps=3,
        seed=9,
    )
    a = run_experiment(small_synth, **kwargs)
    b = run_experiment(small_synth, **kwargs)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_experiment_threads_do_not_change_results(small_synth):
    kwargs = dict(
        classifiers=("LDA",),
        variants=("BASE", "PRS"),
        rates=(0.6,),
        reps=3,
        seed=2,
    )
    serial = run_experiment(small_synth, threads=1, **kwargs)
    threaded = run_experiment(small_synth, threads=4, **kwargs)
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)


def test_run_experiment_global_prep_flag_recorded(small_synth):
    report = run_experiment(
        small_synth,
        classifiers=("LDA",),
        variants=("PRS",),
        rates=(0.6,),
        reps=1,
        seed=0,
        global_prep=True,
    )
    assert report["global_prep"] is True
    assert report["baseline_variant"] == "PRS"


@pytest.mark.parametrize(
    "counts",
    [{"reps": True}, {"reps": 2.5}, {"reps": "2"}, {"threads": 1.5}, {"threads": True}],
)
def test_run_experiment_rejects_non_integer_counts_before_feature_work(
    counts, small_synth, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("feature work before the counts were checked")

    monkeypatch.setattr("prs.evaluation.extract_base_matrix", no_work)
    [(name, value)] = counts.items()
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        run_experiment(small_synth, **{"reps": 1, **counts})


@pytest.mark.parametrize(
    "make, kwargs, message",
    [
        (generate_synthetic, {"n_per_class": 2, "length": 15, "seed": 0},
         "length must be >= 16, got 15"),
        (generate_synthetic, {"n_per_class": 2, "length": 16, "seed": -1},
         "seed must be >= 0, got -1"),
        (SoilConfig, {"depth": 0}, "depth must be >= 1, got 0"),
        (GrowthConfig, {"days": -1}, "days must be >= 0, got -1"),
        (GrowthConfig, {"division_limit": 0}, "division_limit must be >= 1, got 0"),
        (run_experiment, {"reps": 0}, "reps must be >= 1, got 0"),
        (run_experiment, {"threads": -2}, "threads must be >= 1, got -2"),
    ],
)
def test_counts_below_their_minimum_name_the_bound(make, kwargs, message, small_synth):
    args = (small_synth,) if make is run_experiment else ()
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args, **kwargs)


@pytest.mark.parametrize(
    "call",
    [
        lambda data, seed: run_experiment(data, reps=1, seed=seed),
        lambda data, seed: draw_splits(data, (0.6,), 1, seed),
        lambda data, seed: generate_synthetic(3, 64, seed),
    ],
    ids=["run_experiment", "draw_splits", "generate_synthetic"],
)
def test_a_seed_that_is_no_count_is_named(call, small_synth):
    for seed, message in ((-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")):
        with pytest.raises(ValueError) as err:
            call(small_synth, seed)
        assert str(err.value) == message


def test_run_experiment_validation(small_synth):
    with pytest.raises(ValueError, match="reps"):
        run_experiment(small_synth, reps=0)
    with pytest.raises(ValueError, match="threads"):
        run_experiment(small_synth, reps=1, threads=0)
    with pytest.raises(ValueError, match="unique"):
        run_experiment(small_synth, classifiers=("LR", "LR"), reps=1)
    with pytest.raises(ValueError) as err:
        run_experiment(small_synth, classifiers=("LR", "TREE"), reps=1)
    assert str(err.value) == f"kind must be one of {CLASSIFIER_KINDS}, got 'TREE'"
    with pytest.raises(ValueError, match="variants must be unique"):
        run_experiment(small_synth, variants=("BASE", "BASE"), reps=1)
    with pytest.raises(ValueError, match="unknown variant"):
        run_experiment(small_synth, variants=("BASE", "EXTRA"), reps=1)
    with pytest.raises(ValueError, match="rates must be unique"):
        run_experiment(small_synth, rates=(0.6, 0.5, 0.6), reps=1)


@pytest.mark.parametrize(
    "name, message",
    [("classifiers", "classifier kinds"), ("variants", "variants"), ("rates", "rates")],
)
def test_run_experiment_rejects_an_empty_grid_axis_before_feature_work(
    name, message, small_synth, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("feature work before the grid was checked")

    monkeypatch.setattr("prs.evaluation.extract_base_matrix", no_work)
    with pytest.raises(ValueError, match=f"{message} must not be empty"):
        run_experiment(small_synth, reps=1, **{name: ()})


@pytest.mark.parametrize(
    "rates, message",
    [
        ((), "rates must not be empty"),
        ((0.6, 0.6), "rates must be unique within one run"),
        ((0.6, float("nan")), "training rate must be in (0, 1), got nan"),
        ((float("inf"),), "training rate must be in (0, 1), got inf"),
        ((float("-inf"),), "training rate must be in (0, 1), got -inf"),
        ((0.0,), "training rate must be in (0, 1), got 0.0"),
        ((1.0,), "training rate must be in (0, 1), got 1.0"),
    ],
)
def test_one_rate_rule_for_runs_and_splits(rates, message, small_synth):
    for check in (
        check_rates,
        lambda r: draw_splits(small_synth, r, 1, 0),
        lambda r: run_experiment(small_synth, rates=r, reps=1),
    ):
        with pytest.raises(ValueError) as err:
            check(rates)
        assert str(err.value) == message
    assert check_rates([0.5, "0.25"]) == (0.5, 0.25)


def test_lda_base_accuracy_on_separable_synthetic():
    dataset = generate_synthetic(40, 2000, seed=1)
    report = run_experiment(
        dataset,
        classifiers=("LDA",),
        variants=("BASE",),
        rates=(0.6,),
        reps=2,
        seed=0,
    )
    assert report["cells"][0]["mean_accuracy"] >= 0.95


# -- correlation table ----------------------------------------------------------


def test_build_feature_table_shape(small_synth):
    table, names = build_feature_table(small_synth, seed=0)
    assert names == TABLE_NAMES
    assert table.shape == (len(small_synth.segments), 16)
    assert names[12:] == ("NF", "RF", "MaxPSD", "MedPSD")
    assert np.all(np.isfinite(table))


def test_evaluate_split_pairs_each_key_with_its_own_model(overlap_split):
    # entry [0, k, v] holds kind k fitted on variant v of the split alone,
    # scored through its predicted labels
    s = overlap_split
    split = (s.train_idx, s.test_idx)
    counts, diagnostics = evaluate_splits(s.dataset, [split], CLASSIFIER_KINDS, VARIANTS)
    assert counts.shape == (1, len(CLASSIFIER_KINDS), len(VARIANTS), 4)
    assert counts.dtype == np.int64
    truth = s.y_test == s.dataset.class_names[1]
    for k, kind in enumerate(CLASSIFIER_KINDS):
        for v, (x_train, x_test) in enumerate(zip(s.x_train, s.x_test)):
            model = train(kind, x_train, s.y_train)
            pred = model.predict(x_test) == model.classes[1]
            assert tuple(counts[0, k, v].tolist()) == confusion_counts(truth, pred)
            assert diagnostics[0][k][v] == model.diagnostics


def test_evaluate_splits_makes_one_prs_call_per_run(overlap_reps, monkeypatch):
    # NF/RF of every split's training and test rows come from one call,
    # in run order, made through the module attribute so that a wrapper
    # sees every row
    s = overlap_reps
    calls = []
    original = evaluation.prs_features

    def recording(base_rows, runs, config):
        calls.append((base_rows, runs))
        return original(base_rows, runs, config)

    monkeypatch.setattr(evaluation, "prs_features", recording)
    evaluate_splits(s.dataset, s.splits, ["LDA"], VARIANTS)
    [(rows, runs)] = calls
    order = np.concatenate([np.concatenate(split) for split in s.splits])
    assert len(order) == 480  # crosses the 256-row block of prs_features
    assert np.array_equal(rows, s.inputs.base[order])
    assert len(runs) == len(s.splits)
    for (artifacts, n_rows), (train_idx, test_idx) in zip(runs, s.splits):
        assert n_rows == len(train_idx) + len(test_idx)
        fold = fit_prep(s.inputs.base[train_idx], s.inputs.labels[train_idx])
        for name in ("feature_bounds", "gains", "order"):
            assert np.array_equal(getattr(artifacts, name), getattr(fold, name))


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(),
        PipelineConfig(
            soil=SoilConfig(depth=9, fill_mode="onehot"),
            growth=GrowthConfig(radicle=((1, 6), (9, 1))),
        ),
    ],
    ids=["default", "onehot-depth9"],
)
def test_stacked_prs_call_equals_per_split_calls(overlap_reps, config, monkeypatch):
    # the splits at rates 0.5 and 0.7 train on 40 and 56 rows; the one
    # call's rows equal, bit for bit, separate calls on each part
    s = overlap_reps
    inputs = dataset_rows(s.dataset, config)
    stacked = []
    original = evaluation.prs_features

    def recording(base_rows, runs, run_config):
        stacked.append(original(base_rows, runs, run_config))
        return stacked[-1]

    monkeypatch.setattr(evaluation, "prs_features", recording)
    evaluate_splits(s.dataset, s.splits, ["LDA"], VARIANTS, config=config)
    per_split = []
    for train_idx, test_idx in s.splits:
        artifacts = fit_prep(inputs.base[train_idx], inputs.labels[train_idx])
        per_split.append(prs_features(inputs.base[train_idx], artifacts, config))
        per_split.append(prs_features(inputs.base[test_idx], artifacts, config))
    [rows] = stacked
    assert np.array_equal(rows, np.concatenate(per_split))
    counts, diagnostics = evaluate_splits(s.dataset, [], ["LDA"], VARIANTS)
    assert counts.shape == (0, 1, len(VARIANTS), 4) and diagnostics == []
    assert len(stacked) == 1
    assert prs_features(np.zeros((0, 12)), [], config).shape == (0, 2)


def test_evaluate_splits_hands_the_classifiers_the_scaled_variants(overlap_reps, monkeypatch):
    # each variant is a column selection of the split's scaled table: it
    # equals scaling the variant's own columns, and is C-contiguous. Under
    # global prep NF/RF are fitted once on all rows and taken at the split's
    s = overlap_reps
    seen = {}
    original_train, original_scores = evaluation.train_group, evaluation.decision_group

    def train_recording(kind, x_train, y_train):
        seen["train"] = x_train
        return original_train(kind, x_train, y_train)

    def scores_recording(models, x_test):
        seen["test"] = x_test
        return original_scores(models, x_test)

    monkeypatch.setattr(evaluation, "train_group", train_recording)
    monkeypatch.setattr(evaluation, "decision_group", scores_recording)
    base, labels = s.inputs.base, s.inputs.labels
    global_prs = prs_features(base, fit_prep(base, labels), s.inputs.config)
    for global_prep, prs_rows in ((False, None), (True, global_prs)):
        evaluate_splits(s.dataset, s.splits, ["LDA"], VARIANTS, global_prep)
        x_train, x_test = [], []
        for train_idx, test_idx in s.splits:
            train_part, test_part = scaled_variants(s.inputs, train_idx, test_idx, prs_rows)
            x_train += train_part
            x_test += test_part
        for got, want in zip(seen["train"] + seen["test"], x_train + x_test, strict=True):
            assert got.flags.c_contiguous
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_run_experiment_equals_one_split_at_a_time(overlap_reps):
    # one fit per classifier over every rep and rate equals fitting each
    # split on its own, in every count and diagnostic, and each cell's
    # accuracies are those of its counts
    s = overlap_reps
    kinds = CLASSIFIER_KINDS
    counts, diagnostics = evaluate_splits(s.dataset, s.splits, kinds, VARIANTS)
    report = run_experiment(s.dataset, rates=s.rates, reps=3, seed=1)
    accuracies = {
        (c["classifier"], c["variant"], c["rate"]): c["accuracies"] for c in report["cells"]
    }
    assert counts.shape == (len(s.splits), len(kinds), len(VARIANTS), 4)
    assert len(s.splits) == 6
    for n, split in enumerate(s.splits):
        alone, [alone_diagnostics] = evaluate_splits(s.dataset, [split], kinds, VARIANTS)
        assert np.array_equal(counts[n], alone[0])
        assert diagnostics[n] == alone_diagnostics
        rep, r = divmod(n, len(s.rates))
        for k, v in np.ndindex(len(kinds), len(VARIANTS)):
            key = (kinds[k], VARIANTS[v], s.rates[r])
            assert accuracies[key][rep] == accuracy(counts[n, k, v])


def test_run_experiment_draws_its_splits_through_draw_splits(overlap_dataset, monkeypatch):
    # the splits are rep-major, and a shorter run draws a prefix of a
    # longer one's; run_experiment takes them from one draw_splits call
    rates = (0.5, 0.7)
    splits = draw_splits(overlap_dataset, rates, 3, 1)
    assert len(splits) == 6
    for earlier, later in zip(draw_splits(overlap_dataset, rates, 2, 1), splits):
        assert all(np.array_equal(a, b) for a, b in zip(earlier, later))
    [first] = draw_splits(overlap_dataset, rates[:1], 1, 1)
    assert all(np.array_equal(a, b) for a, b in zip(first, splits[0]))
    calls = []

    def recording(*args):
        calls.append(args[1:])
        return draw_splits(*args)

    monkeypatch.setattr(evaluation, "draw_splits", recording)
    grid = dict(classifiers=("LDA",), variants=("BASE",), rates=rates)
    run_experiment(overlap_dataset, reps=3, seed=1, **grid)
    assert calls == [(rates, 3, 1)]


def test_two_seeds_draw_different_splits(overlap_dataset):
    # each rep's generator is seeded by the pair (seed, rep); under
    # seed ^ rep, seed 1 drew reps 1, 0, 3, 2 of seed 0
    def training_sets(seed):
        splits = draw_splits(overlap_dataset, (0.6,), 4, seed)
        return {tuple(train.tolist()) for train, _ in splits}

    assert training_sets(0) != training_sets(1)
