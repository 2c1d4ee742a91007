"""Splits, confusion accounting, ANOVA, correlations, and full runs."""

import json
import math

import numpy as np
import pytest

from prs import evaluation
from prs.classifiers import CLASSIFIER_KINDS, ClassifierSpec, train
from prs.dataset import generate_synthetic
from prs.errors import PrsError
from prs.evaluation import (
    TABLE_NAMES,
    VARIANTS,
    AnovaResult,
    ConfusionCounts,
    anova_oneway,
    assemble_variant,
    build_feature_table,
    confusion_counts,
    correlation_matrix,
    evaluate_splits,
    run_experiment,
    stratified_split,
)

# -- confusion counts ---------------------------------------------------------


def test_confusion_accuracy_values():
    assert ConfusionCounts(tp=50, fp=0, tn=50, fn=0).accuracy == 1.0
    assert ConfusionCounts(tp=0, fp=50, tn=0, fn=50).accuracy == 0.0
    assert ConfusionCounts(tp=30, fp=10, tn=40, fn=20).accuracy == 0.7


def test_confusion_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        ConfusionCounts(tp=0, fp=0, tn=0, fn=0).accuracy


def test_confusion_counts_from_labels():
    truth = ["B", "B", "A", "A", "B"]
    pred = ["B", "A", "A", "B", "B"]
    counts = confusion_counts(truth, pred, ("A", "B"))
    assert counts == ConfusionCounts(tp=2, tn=1, fp=1, fn=1)
    assert counts.accuracy == pytest.approx(0.6)


def test_confusion_counts_match_a_row_loop():
    rng = np.random.default_rng(9)
    for n in (0, 1, 7, 40):
        truth = rng.choice(["A", "B"], size=n)
        pred = rng.choice(["A", "B"], size=n)
        want = dict(tp=0, tn=0, fp=0, fn=0)
        for t, p in zip(truth.tolist(), pred.tolist()):
            key = ("t" if t == p else "f") + ("p" if p == "B" else "n")
            want[key] += 1
        for args in ((truth, pred), (truth.tolist(), pred.tolist())):
            counts = confusion_counts(*args, ("A", "B"))
            assert counts == ConfusionCounts(**want)
            assert all(type(v) is int for v in vars(counts).values())


def test_confusion_counts_length_mismatch():
    with pytest.raises(ValueError, match="count"):
        confusion_counts(["A"], ["A", "B"], ("A", "B"))


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
    rng = np.random.default_rng(0)
    for rate in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="rate"):
            stratified_split(["A", "A", "B", "B"], ("A", "B"), rate, rng)


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
    base = np.zeros((5, 12))
    prs = np.ones((5, 2))
    spectral = np.full((5, 2), 2.0)
    widths = {"BASE": 12, "BASE_NF": 13, "BASE_RF": 13, "PRS": 14, "COMPARISON": 14}
    for variant in VARIANTS:
        out = assemble_variant(variant, base, prs, spectral)
        assert out.shape == (5, widths[variant])
    nf = assemble_variant("BASE_NF", base, prs, spectral)
    assert np.all(nf[:, 12] == 1.0)
    comparison = assemble_variant("COMPARISON", base, prs, spectral)
    assert np.all(comparison[:, 12:] == 2.0)


def test_variant_unknown_name():
    with pytest.raises(ValueError, match="variant"):
        assemble_variant("EXTRA", np.zeros((2, 12)), None, None)


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
    assert report["classifier_params"]["LDA"]["kind"] == "LDA"
    assert json.dumps(report)  # json-ready throughout


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


def test_run_experiment_validation(small_synth):
    with pytest.raises(ValueError, match="reps"):
        run_experiment(small_synth, reps=0)
    with pytest.raises(ValueError, match="threads"):
        run_experiment(small_synth, reps=1, threads=0)
    with pytest.raises(ValueError, match="unique"):
        run_experiment(small_synth, classifiers=("LR", "LR"), reps=1)
    with pytest.raises(ValueError, match="variants must be unique"):
        run_experiment(small_synth, variants=("BASE", "BASE"), reps=1)
    with pytest.raises(ValueError, match="rates must be unique"):
        run_experiment(small_synth, rates=(0.6, 0.5, 0.6), reps=1)


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
    s = overlap_split
    specs = [ClassifierSpec(kind=kind) for kind in CLASSIFIER_KINDS]
    [results] = evaluate_splits(s.inputs, [(s.train_idx, s.test_idx)], specs, VARIANTS)
    assert set(results) == {(k, v) for k in CLASSIFIER_KINDS for v in VARIANTS}
    for spec in specs:
        for variant, x_train, x_test in zip(VARIANTS, s.x_train, s.x_test):
            model = train(spec, x_train, s.y_train)
            counts = confusion_counts(s.y_test, model.predict(x_test), model.classes)
            assert results[(spec.kind, variant)] == (counts, model.diagnostics)


def test_evaluate_splits_makes_one_prs_call_per_split(overlap_reps, monkeypatch):
    # NF/RF of a split's training and test rows come from one call, made
    # through the module attribute so that a wrapper sees every row
    s = overlap_reps
    calls = []
    original = evaluation.prs_features

    def recording(base_rows, artifacts, config):
        calls.append(base_rows)
        return original(base_rows, artifacts, config)

    monkeypatch.setattr(evaluation, "prs_features", recording)
    evaluate_splits(s.inputs, s.splits, [ClassifierSpec(kind="LDA")], VARIANTS)
    assert len(calls) == len(s.splits)
    for rows, (train_idx, test_idx) in zip(calls, s.splits):
        assert np.array_equal(rows, s.inputs.base[np.concatenate([train_idx, test_idx])])


def test_run_experiment_equals_one_split_at_a_time(overlap_reps):
    # one fit per classifier over every rep and rate equals fitting each
    # split on its own, in every count and diagnostic
    s = overlap_reps
    specs = [ClassifierSpec(kind=kind) for kind in CLASSIFIER_KINDS]
    together = evaluate_splits(s.inputs, s.splits, specs, VARIANTS)
    report = run_experiment(s.dataset, rates=s.rates, reps=3, seed=1)
    accuracies = {
        (c["classifier"], c["variant"], c["rate"]): c["accuracies"] for c in report["cells"]
    }
    assert len(together) == len(s.splits) == 6
    for n, (split, results) in enumerate(zip(s.splits, together)):
        [alone] = evaluate_splits(s.inputs, [split], specs, VARIANTS)
        assert results == alone
        rep, r = divmod(n, len(s.rates))
        for (kind, variant), result in alone.items():
            assert accuracies[(kind, variant, s.rates[r])][rep] == result.counts.accuracy
