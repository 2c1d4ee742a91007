"""Fuzz `prs evaluate` end to end through `cli.main` on tiny and
degenerate datasets: 2-6 segments per class of 16-64 samples, mixing
noise, quantized noise, constant segments and huge and tiny amplitudes.
Every case must exit 0, 1 or 2, print no traceback and raise no
RuntimeWarning."""

import contextlib
import io
import json
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prs.classifiers import CLASSIFIER_KINDS
from prs.cli import main
from prs.dataset import LabeledDataset, SignalSegment, write_dataset
from prs.evaluation import VARIANTS

# the first three styles have finite base features; the rest are rejected
STYLES = ("noise", "quantized", "large", "constant", "huge", "tiny")


def samples(style, length, rng):
    noise = rng.standard_normal(length)
    if style == "quantized":
        return np.round(noise)  # a handful of levels, many ties
    if style == "large":
        return noise * rng.choice([1e50, 1e75])
    if style == "constant":
        return np.full(length, rng.choice([0.0, 1.0, -3.5]))
    if style == "huge":
        return noise * rng.choice([1e100, 1e200, 1e300])  # fourth powers overflow
    if style == "tiny":
        return noise * rng.choice([1e-160, 1e-200, 1e-300])  # squares underflow
    return noise * rng.choice([1e-6, 1.0, 1e3])


@st.composite
def datasets(draw):
    length = draw(st.integers(16, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    styles = STYLES if draw(st.booleans()) else STYLES[:3]
    segments = []
    for label in ("P", "N"):
        for i in range(draw(st.integers(2, 6))):
            style = draw(st.sampled_from(styles))
            segments.append(
                SignalSegment(f"{label}{i}", label, 1000.0, samples(style, length, rng))
            )
    return LabeledDataset(name="fuzz", segments=tuple(segments))


def subset(names):
    return st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)


@settings(max_examples=50, deadline=None)
@given(
    dataset=datasets(),
    classifiers=subset(CLASSIFIER_KINDS),
    variants=subset(VARIANTS),
    rates=subset([0.3, 0.5, 0.6, 0.8]),
    reps=st.integers(1, 3),
    seed=st.integers(0, 1000),
    global_prep=st.booleans(),
)
def test_evaluate_exits_cleanly(
    dataset, classifiers, variants, rates, reps, seed, global_prep
):
    with tempfile.TemporaryDirectory() as root:
        manifest = write_dataset(dataset, root)
        argv = ["evaluate", "--manifest", str(manifest), "--seed", str(seed)]
        argv += ["--classifiers", ",".join(classifiers)]
        argv += ["--variants", ",".join(variants)]
        argv += ["--rates", ",".join(map(str, rates)), "--reps", str(reps)]
        argv += ["--global-prep"] if global_prep else []
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        report = json.loads(out.getvalue())
        assert len(report["cells"]) == len(classifiers) * len(variants) * len(rates)
    else:
        assert rc in (1, 2)
        assert err.getvalue().startswith("error: ")


def test_evaluate_with_a_test_row_far_outside_the_training_rows(tmp_path, capsys):
    # found by the fuzz above: with one training row per class, N1's
    # min-max scaled base features land near 1e150, and squaring them in
    # the LDA/QDA distance overflowed with a RuntimeWarning
    rng = np.random.default_rng(0)
    scales = {"P0": 1e-6, "P1": 1e3, "N0": 1.0, "N1": 1e75}
    segments = tuple(
        SignalSegment(id, id[0], 1000.0, scale * rng.standard_normal(16))
        for id, scale in scales.items()
    )
    manifest = write_dataset(LabeledDataset("far", segments), tmp_path)
    argv = ["evaluate", "--manifest", str(manifest), "--seed", "0", "--reps", "1"]
    argv += ["--classifiers", "LDA,QDA", "--variants", "BASE", "--rates", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: the LDA/QDA distance of a row overflows float64\n"
