"""The commands as a user runs them: the help of each, outputs that do not
depend on the interpreter's string hash seed, and the two-process loader
and writer on datasets large enough to use them."""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from prs import dataset as dataset_module
from prs.cli import _COMMANDS, main
from prs.dataset import (
    _TWO_PROCESS_MIN_BYTES,
    _two_processes_pay,
    generate_synthetic,
    load_dataset,
    write_dataset,
)

from conftest import run_cli


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """The manifest of ``prs synth --n n --len length --seed 1``, written once."""
    made = {}

    def manifest(n, length):
        if (n, length) not in made:
            root = tmp_path_factory.mktemp(f"synth-{n}x{length}")
            made[n, length] = str(write_dataset(generate_synthetic(n, length, seed=1), root))
        return made[n, length]

    return manifest


def same_under_two_hash_seeds(argv):
    """stdout of ``prs *argv``, which two child processes, one under each
    of PYTHONHASHSEED 0 and 1, must print byte for byte alike."""
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda seed: run_cli(argv, PYTHONHASHSEED=seed), "01"))
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    return runs[0].stdout


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_renders(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: prs {command} ")


# (segments per class, samples per segment), command, options: 9 x 2000 is
# the benchmark's segment shape, whose 18 rows go through the feature
# kernels in 4-row blocks and a short 2-row block; the 260 NF/RF rows of
# 130 x 256 cross the 256-row block of prs_features; 40 x 32 does not score
# every split 1.0
HASH_SEED_CASES = {
    "extract": ((9, 2000), "extract", []),
    "rank": ((9, 2000), "rank", []),
    "spectral-psd": ((9, 2000), "spectral", ["--median-mode", "psd"]),
    "spectral-frequency": ((9, 2000), "spectral", ["--median-mode", "frequency"]),
    "evaluate-2000": ((9, 2000), "evaluate", ["--seed", "1", "--reps", "2"]),
    "soil-dump": ((5, 128), "soil-dump", ["--sample", "P0", "--fill-mode", "onehot"]),
    "grow": (
        (5, 128),
        "grow",
        ["--sample", "P0", "--depth", "3", "--days", "40", "--division-limit", "3"],
    ),
    "correlate": ((130, 256), "correlate", []),
    "classify-svm": ((40, 32), "classify", ["--seed", "1", "--classifier", "SVM_POLY"]),
    **{
        f"classify-global-{variant}": (
            (40, 32),
            "classify",
            ["--seed", "1", "--classifier", "LDA", "--variant", variant, "--global-prep"],
        )
        for variant in ("PRS", "COMPARISON")
    },
}


@pytest.mark.parametrize("case", list(HASH_SEED_CASES))
def test_output_does_not_depend_on_the_hash_seed(synth, case):
    shape, command, options = HASH_SEED_CASES[case]
    same_under_two_hash_seeds([command, "--manifest", synth(*shape), *options])


def test_evaluate_does_not_depend_on_the_hash_seed_and_depends_on_the_seed(synth, capsys):
    # four classifiers over three reps at two rates: one prs_features call
    # takes the 480 NF/RF rows of six splits and crosses its 256-row block
    argv = ["evaluate", "--manifest", synth(40, 32), "--reps", "3", "--rates", "0.5,0.7"]
    argv += ["--classifiers", "LR,LDA,QDA,SVM_POLY"]
    cells = json.loads(same_under_two_hash_seeds(argv + ["--seed", "1"]))["cells"]
    # a report in which every accuracy is 1.0 could not show a change in the splits
    assert min(a for cell in cells for a in cell["accuracies"]) < 1.0
    assert main(argv + ["--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["cells"] != cells


def test_a_manifest_above_the_two_process_threshold_loads_like_its_halves(tmp_path, capsys):
    manifest = write_dataset(generate_synthetic(150, 256, seed=1), tmp_path)
    lines = manifest.read_text().splitlines(True)
    head, rows = lines[:2], lines[2:]
    # the classes interleaved, so that each half holds both
    mixed = [row for pair in zip(rows[:150], rows[150:]) for row in pair]
    parts = {"mixed": mixed, "first": mixed[:150], "second": mixed[150:]}
    files = {name: [tmp_path / row.rstrip().split(",")[2] for row in part]
             for name, part in parts.items()}
    sizes = {name: sum(map(os.path.getsize, paths)) for name, paths in files.items()}
    assert sizes["mixed"] >= _TWO_PROCESS_MIN_BYTES > max(sizes["first"], sizes["second"])
    if sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2:
        assert _two_processes_pay(map(os.path.getsize, files["mixed"]))
    outputs = {}
    for name, part in parts.items():
        (tmp_path / f"{name}.csv").write_text("".join(head + part))
        assert main(["extract", "--manifest", str(tmp_path / f"{name}.csv")]) == 0
        outputs[name] = capsys.readouterr().out
    first, second = outputs["first"], outputs["second"]
    assert first + second[second.index("\n") + 1 :] == outputs["mixed"]

    # a bad sample in the second half is reported by its row and line
    bad = files["mixed"][199]
    samples = bad.read_text().splitlines(True)
    samples[4] = "oops\n"
    bad.write_text("".join(samples))
    assert main(["extract", "--manifest", str(tmp_path / "mixed.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'mixed.csv'}: row 200: {bad}:5: non-numeric sample 'oops'\n"
    )


def test_synth_above_the_two_process_threshold_writes_what_one_process_writes(
    tmp_path, monkeypatch, capsys, parent_writes
):
    # 256 segments of 512 samples: 1 MiB of float64
    dataset = generate_synthetic(128, 512, seed=1)
    assert sum(s.samples.nbytes for s in dataset.segments) >= _TWO_PROCESS_MIN_BYTES
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--n", "128", "--len", "512", "--seed", "1"]) == 0
    assert capsys.readouterr().out == f"{out / 'manifest.csv'}\n"
    if sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2:
        # a child wrote the second half
        assert parent_writes == [s.id for s in dataset.segments[:128]]
    monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", float("inf"))
    write_dataset(dataset, tmp_path / "serial")
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in (tmp_path / "serial").iterdir())
    assert len(names) == 257
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
    loaded = load_dataset(out / "manifest.csv")
    assert loaded.labels == dataset.labels
    for orig, back in zip(dataset.segments, loaded.segments, strict=True):
        assert back.id == orig.id and back.samples.tobytes() == orig.samples.tobytes()
