"""Acceptance suite: one test per shipping criterion.

Every test prints a single `[criterion NN] ...: PASS|FAIL` verdict line
(also echoed in the terminal summary) and then asserts it. Tolerances
and sizes are part of the contract and must not be loosened here.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from prs import classifiers
from prs.classifiers import CLASSIFIER_KINDS, train
from prs.cli import main
from prs.dataset import generate_synthetic, write_dataset
from prs.evaluation import accuracy, run_experiment
from prs.feature_prep import _two_means_thresholds, rank_features
from prs.growth import GrowthConfig, extract_prs, grow
from prs.pipeline import prs_features  # noqa: F401  (import sanity for the grid run)
from prs.soil import KERNEL_DEEP, KERNEL_SHALLOW, convolve_soil

from conftest import run_cli
from reference import absorption_rate, convex_hull, oracle_entropy, polygon_area

RESULT_LINES: list[str] = []


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    RESULT_LINES.append(line)
    assert ok, line


# -- shared heavy fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def synthetic80():
    return generate_synthetic(40, 2000, seed=1)


@pytest.fixture(scope="module")
def full_grid(synthetic80):
    """The complete evaluation grid, shared by criteria 6 and 8."""
    start = time.perf_counter()
    report = run_experiment(
        synthetic80,
        classifiers=CLASSIFIER_KINDS,
        variants=("BASE", "BASE_NF", "BASE_RF", "PRS", "COMPARISON"),
        rates=(0.6,),
        reps=100,
        seed=1,
    )
    elapsed = time.perf_counter() - start
    return report, elapsed


# -- criteria -------------------------------------------------------------------


def test_criterion_01_convolution_oracle():
    def oracle(grid, kernel):
        rows, cols = grid.shape
        out = np.zeros_like(grid)
        for i in range(rows):
            for j in range(cols):
                s = 0.0
                for u in range(3):
                    for v in range(3):
                        r, c = i + u - 1, j + v - 1
                        if 0 <= r < rows and 0 <= c < cols:
                            s += kernel[u, v] * grid[r, c]
                out[i, j] = s
        return out

    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        grid = rng.uniform(0.0, 3.0, size=(15, 12))
        got = convolve_soil(grid)
        want = oracle(oracle(grid, KERNEL_SHALLOW), KERNEL_DEEP)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "convolution matches nested-loop oracle on 50 grids",
        worst <= 1e-12 and elapsed < 1.0,
        f"max_err={worst:.2e}, elapsed={elapsed:.2f}s",
    )


def test_criterion_02_information_gain_oracle():
    column = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    # the exact split of the column is its two values: sets {1, 2}
    assert _two_means_thresholds(column[:, None]).tolist() == [0.0]
    assignment = [1, 1, 1, 2, 2, 2]

    worst = 0.0
    for bits in product("12", repeat=6):
        labels = [f"C{b}" for b in bits]
        want = oracle_entropy(labels)
        for side in (1, 2):
            subset = [lab for lab, a in zip(labels, assignment) if a == side]
            if subset:
                want -= len(subset) / 6 * oracle_entropy(subset)
        got = rank_features(column[:, None], labels)[0]
        worst = max(worst, abs(got - want))
    _verdict(
        2,
        "rank_features gain matches the Counter oracle on all 64 label patterns",
        worst <= 1e-12,
        f"max_err={worst:.2e}",
    )


def test_criterion_03_polygon_area_oracles():
    rng = np.random.default_rng(303)
    mc_points = 1_000_000
    worst_fan = 0.0
    worst_mc_rel = 0.0
    for _ in range(20):
        hull = []
        while len(hull) < 3:
            cloud = rng.uniform(0.0, 10.0, size=(rng.integers(5, 40), 2))
            hull = convex_hull(cloud)
        area = polygon_area(hull)

        # oracle 1: fan triangulation from the first vertex
        x0, y0 = hull[0]
        fan = 0.0
        for (x1, y1), (x2, y2) in zip(hull[1:], hull[2:]):
            fan += 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        worst_fan = max(worst_fan, abs(area - abs(fan)))

        # oracle 2: Monte-Carlo hit fraction inside the bounding box
        verts = np.array(hull)
        lo = verts.min(axis=0)
        hi = verts.max(axis=0)
        pts = rng.uniform(size=(mc_points, 2)) * (hi - lo) + lo
        inside = np.ones(mc_points, dtype=bool)
        n = len(hull)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (
                pts[:, 0] - a[0]
            )
            inside &= cross >= 0.0
        box_area = float(np.prod(hi - lo))
        mc_area = float(np.mean(inside)) * box_area
        worst_mc_rel = max(worst_mc_rel, abs(mc_area - area) / area)
    _verdict(
        3,
        "shoelace area matches fan and Monte-Carlo oracles",
        worst_fan <= 1e-9 and worst_mc_rel <= 0.01,
        f"fan_err={worst_fan:.2e}, mc_rel={worst_mc_rel:.4f}",
    )


def test_criterion_04_growth_invariants():
    rng = np.random.default_rng(404)
    neighbors = ((1, 0), (-1, 0), (0, 1), (0, -1))
    start = time.perf_counter()
    ok = True
    for trial in range(100):
        grid = rng.uniform(0.0, 4.0, size=(15, 12))
        grid[rng.uniform(size=grid.shape) < 0.3] = 0.0
        limit = 1 + trial % 3
        config = GrowthConfig(days=10, division_limit=limit)
        state = grow(grid, config)
        again = grow(grid, config)

        # determinism, division limit, no duplicate occupations
        ok &= np.array_equal(state.occupancy, again.occupancy)
        ok &= state.absorbed == again.absorbed and state.day_log == again.day_log
        ok &= all(len(day) <= limit for day in state.day_log)
        cells = [cell for day in state.day_log for cell in day]
        ok &= len(cells) == len(set(cells))

        # occupancy is exactly radicle + logged cells, and each logged cell
        # touches earlier growth (4-connectivity, monotone accretion)
        grown = {(r - 1, c - 1) for r, c in config.radicle}
        for day in state.day_log:
            for r, c in day:
                ok &= any(
                    (r - 1 + dr, c - 1 + dc) in grown for dr, dc in neighbors
                )
                grown.add((r - 1, c - 1))
        ok &= grown == {tuple(rc) for rc in np.argwhere(state.occupancy == 1)}

        # nf is non-decreasing day over day and matches the absorption sum
        running = 0.0
        for day in state.day_log:
            day_total = sum(absorption_rate(float(grid[r - 1, c - 1])) for r, c in day)
            ok &= day_total >= 0.0
            running += day_total
        ok &= abs(running - state.absorbed) <= 1e-9

        # re-running with fewer days reproduces a prefix of the full run
        for days in (0, 4):
            partial = grow(grid, GrowthConfig(days=days, division_limit=limit))
            ok &= partial.day_log == state.day_log[:days]

        ok &= 0.0 <= extract_prs(state)[1] <= 154.0
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "growth invariants hold on 100 random nutrient grids",
        ok and elapsed < 5.0,
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_05_classifier_sanity(monkeypatch):
    rng = np.random.default_rng(505)

    def gaussian_task(m):
        half = m // 2
        X = np.vstack(
            [rng.normal(size=(half, 2)), rng.normal(size=(m - half, 2)) + 8.0]
        )
        return X, ["A"] * half + ["B"] * (m - half)

    X_train, y_train = gaussian_task(200)
    X_test, y_test = gaussian_task(200)
    scores = {}
    for kind in CLASSIFIER_KINDS:
        model = train(kind, X_train, y_train)
        scores[kind] = np.mean(model.predict(X_test) == np.asarray(y_test, str))
    gaussian_ok = all(v >= 0.99 for v in scores.values())

    xor_x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    xor_y = ["P", "N", "N", "P"]
    lr = train("LR", xor_x, xor_y)
    # the kernel (x.z + 1)^2 and C = 10
    monkeypatch.setattr(classifiers, "_SVM_DEGREE", 2)
    monkeypatch.setattr(classifiers, "_SVM_COEF0", 1.0)
    monkeypatch.setattr(classifiers, "_SVM_C", 10.0)
    svm = train("SVM_POLY", xor_x, xor_y)
    svm_acc = np.mean(svm.predict(xor_x) == np.asarray(xor_y, str))
    lr_acc = np.mean(lr.predict(xor_x) == np.asarray(xor_y, str))
    _verdict(
        5,
        "classifier sanity: 2-Gaussian >= 99%, XOR kernel vs linear",
        gaussian_ok and svm_acc == 1.0 and lr_acc <= 0.75,
        f"gauss_min={min(scores.values()):.3f}, xor_svm={svm_acc:.2f}, "
        f"xor_lr={lr_acc:.2f}",
    )


def test_criterion_06_prs_variant_accuracy(full_grid):
    report, _ = full_grid
    means = {
        (cell["classifier"], cell["variant"]): cell["mean_accuracy"]
        for cell in report["cells"]
    }
    diffs = {
        kind: means[(kind, "PRS")] - means[(kind, "BASE")]
        for kind in CLASSIFIER_KINDS
    }
    within_tolerance = all(d >= -0.02 for d in diffs.values())
    n_not_worse = sum(1 for d in diffs.values() if d >= 0.0)
    detail = ", ".join(f"{k}:{d:+.4f}" for k, d in diffs.items())
    _verdict(
        6,
        "PRS variant tracks or beats BASE across classifiers",
        within_tolerance and n_not_worse >= 2,
        detail,
    )


def test_criterion_07_prs_base_decorrelation(synthetic80):
    from prs.evaluation import build_feature_table, correlation_matrix

    table, _ = build_feature_table(synthetic80, seed=1)
    corr, _ = correlation_matrix(table)
    base_block = [abs(corr[i, j]) for i in range(12) for j in range(i + 1, 12)]
    prs_block = [abs(corr[i, j]) for i in (12, 13) for j in range(12)]
    mean_base = float(np.mean(base_block))
    mean_prs = float(np.mean(prs_block))
    _verdict(
        7,
        "NF/RF correlate less with base features than base with itself",
        mean_prs < mean_base,
        f"prs_base={mean_prs:.4f} < base_base={mean_base:.4f}",
    )


def test_criterion_08_full_grid_runtime(full_grid):
    report, elapsed = full_grid
    complete = len(report["cells"]) == len(CLASSIFIER_KINDS) * 5
    _verdict(
        8,
        "full 4x5x100 evaluation grid under five minutes",
        complete and elapsed < 300.0,
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_09_accuracy_rational_exactness():
    # every (tp, tn, fp, fn) table with 1 to 20 rows, through the one
    # accuracy function that evaluate's report and classify both use
    tables = [
        (tp, tn, fp, fn)
        for tp in range(21)
        for fp in range(21 - tp)
        for tn in range(21 - tp - fp)
        for fn in range(21 - tp - fp - tn)
        if tp + fp + tn + fn > 0
    ]
    got = accuracy(np.array(tables, dtype=np.int64)).tolist()
    worst_ok = all(
        value == float(Fraction(tp + tn, tp + tn + fp + fn))
        for value, (tp, tn, fp, fn) in zip(got, tables, strict=True)
    )
    checked = len(tables)
    _verdict(
        9,
        "accuracy equals rational arithmetic on all tables <= 20",
        worst_ok,
        f"{checked} tables",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    manifest = write_dataset(generate_synthetic(5, 128, seed=2), tmp_path / "data")
    base_args = [
        "evaluate",
        "--manifest",
        str(manifest),
        "--seed",
        "3",
        "--reps",
        "5",
    ]
    for name in ("first", "second"):
        rc = main(base_args + ["--out", str(tmp_path / name)])
        assert rc == 0, capsys.readouterr().err
    capsys.readouterr()
    # child processes, so that the BLAS thread count differs in the LAPACK calls
    for threads in ("1", "2"):
        out_dir = tmp_path / f"openblas-{threads}"
        child = run_cli(base_args + ["--out", str(out_dir)], OPENBLAS_NUM_THREADS=threads)
        assert child.returncode == 0, child.stderr
    outputs = {
        name: tuple(
            (tmp_path / name / f"eval_report.{ext}").read_bytes() for ext in ("json", "csv")
        )
        for name in ("first", "second", "openblas-1", "openblas-2")
    }
    identical = len(set(outputs.values())) == 1
    _verdict(
        10,
        "evaluate output byte-identical across reruns and BLAS thread counts",
        identical,
        f"json={len(outputs['first'][0])}B, csv={len(outputs['first'][1])}B",
    )
