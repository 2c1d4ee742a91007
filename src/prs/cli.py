"""Command-line front end.

Subcommands: synth, extract, rank, soil-dump, grow, spectral, classify,
evaluate, correlate. Every option can also come from a --config file of
`key = value` lines (# comments allowed); explicit flags win over the
file, the file wins over built-in defaults. Single-file outputs go to
--out when given (written atomically), else to stdout; evaluate and
correlate treat --out as a directory and write both a CSV and a JSON
report into it. Identical configurations produce byte-identical output;
the thread count is excluded from report echoes for that reason. Exit
codes: 0 success, 1 data or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .base_features import FEATURE_NAMES, ThresholdConfig
from .classifiers import CLASSIFIER_KINDS, ClassifierSpec, train
from .dataset import generate_synthetic, load_dataset, write_dataset
from .errors import PrsError
from .evaluation import (
    VARIANTS,
    _check_prep_folds,
    _needs,
    assemble_variant,
    build_feature_table,
    confusion_counts,
    correlation_matrix,
    run_experiment,
    stratified_split,
)
from .feature_prep import apply_bounds, column_bounds
from .growth import DEFAULT_RADICLE, GrowthConfig, extract_prs, grow
from .pipeline import (
    PRS_NAMES,
    SPECTRAL_NAMES,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    nutrients_for_row,
    prs_features,
    soil_for_row,
)
from .soil import FILL_MODES, SOIL_DEPTH, SoilConfig, convolve_soil
from .spectral import MEDIAN_MODES, MEDIAN_PSD


class _UsageError(Exception):
    pass


# option name -> (type tag, built-in default); type tags drive config coercion
_COMMON = {
    "manifest": ("str", None),
    "out": ("str", None),
    "config": ("str", None),
}

_SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "synth": {
        "out": ("str", None),
        "n": ("int", 20),
        "len": ("int", 2000),
        "seed": ("int", None),
        "config": ("str", None),
    },
    "extract": {
        **_COMMON,
        "centered_var": ("bool", False),
        "zc_threshold": ("float", None),
        "ssc_threshold": ("float", None),
        "wamp_threshold": ("float", None),
    },
    "rank": {
        **_COMMON,
        "seed": ("int", None),
    },
    "soil-dump": {
        **_COMMON,
        "sample": ("str", None),
        "seed": ("int", None),
        "depth": ("int", SOIL_DEPTH),
        "fill_mode": ("str", "stacked"),
    },
    "grow": {
        **_COMMON,
        "sample": ("str", None),
        "seed": ("int", None),
        "depth": ("int", SOIL_DEPTH),
        "fill_mode": ("str", "stacked"),
        "days": ("int", 10),
        "division_limit": ("int", 2),
        "radicle": ("str", None),
        "occupy_zero": ("bool", True),
        "dump_frames": ("str", None),
    },
    "spectral": {
        **_COMMON,
        "median_mode": ("str", MEDIAN_PSD),
    },
    "classify": {
        **_COMMON,
        "seed": ("int", None),
        "classifier": ("str", None),
        "variant": ("str", "PRS"),
        "rate": ("float", 0.6),
        "global_prep": ("bool", False),
        "median_mode": ("str", MEDIAN_PSD),
    },
    "evaluate": {
        **_COMMON,
        "seed": ("int", None),
        "classifiers": ("list_str", list(CLASSIFIER_KINDS)),
        "variants": ("list_str", list(VARIANTS)),
        "rates": ("list_float", [0.6]),
        "reps": ("int", 100),
        "threads": ("int", 1),
        "global_prep": ("bool", False),
        "median_mode": ("str", MEDIAN_PSD),
    },
    "correlate": {
        **_COMMON,
        "seed": ("int", None),
        "median_mode": ("str", MEDIAN_PSD),
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "synth": ("out", "seed"),
    "extract": ("manifest",),
    "rank": ("manifest", "seed"),
    "soil-dump": ("manifest", "sample", "seed"),
    "grow": ("manifest", "sample", "seed"),
    "spectral": ("manifest",),
    "classify": ("manifest", "seed", "classifier"),
    "evaluate": ("manifest", "seed"),
    "correlate": ("manifest", "seed"),
}

_ENUMS: dict[str, tuple[str, ...]] = {
    "fill_mode": FILL_MODES,
    "median_mode": MEDIAN_MODES,
    "classifier": CLASSIFIER_KINDS,
    "variant": VARIANTS,
}

_LIST_ENUMS: dict[str, tuple[str, ...]] = {
    "classifiers": CLASSIFIER_KINDS,
    "variants": VARIANTS,
}

# --help of --seed per command; the feature ranking uses no seed
_SEED_HELP = {
    "synth": "dataset seed",
    "rank": "required but unused: the feature ranking is exact",
    "soil-dump": "required but unused: the feature ranking is exact",
    "grow": "required but unused: the feature ranking is exact",
    "classify": "seed of the stratified split (the ranking uses no seed)",
    "evaluate": "rep r splits with seed XOR r (the ranking uses no seed)",
    "correlate": "required but unused: the feature ranking is exact",
}

# output paths and scheduling knobs stay out of report config echoes
_NO_ECHO = ("config", "out", "dump_frames", "threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prs",
        description="Root-growth feature extraction and evaluation for "
        "labeled 1D signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value defaults file")
        schema = _SCHEMAS[name]
        for opt, (tag, _) in schema.items():
            if opt == "config":
                continue
            flag = "--" + opt.replace("_", "-")
            if tag == "bool":
                # tri-state so a config file can still set it
                p.add_argument(flag, dest=opt, action="store_const", const=True)
                p.add_argument(
                    "--no-" + opt.replace("_", "-"),
                    dest=opt,
                    action="store_const",
                    const=False,
                )
            elif opt == "seed":
                p.add_argument(flag, dest=opt, type=int, help=_SEED_HELP[name])
            elif tag == "int":
                p.add_argument(flag, dest=opt, type=int)
            elif tag == "float":
                p.add_argument(flag, dest=opt, type=float)
            else:  # str and list tags arrive as strings
                p.add_argument(flag, dest=opt, type=str)
        return p

    add("synth", "generate a synthetic two-class dataset")
    add("extract", "write the 12 time-domain base features per segment")
    add("rank", "information-gain ranking of the base features")
    add("soil-dump", "discrete or convolved soil grid for one sample")
    add("grow", "run root growth for one sample and report NF/RF")
    add("spectral", "write MaxPSD/MedPSD per segment")
    add("classify", "single stratified split, one classifier, one variant")
    add("evaluate", "repeated-split accuracy grid over variants")
    add("correlate", "feature correlation matrix and block summaries")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        mapping[key.strip().replace("-", "_")] = value.strip()
    return mapping


def _coerce(value: str, tag: str, name: str):
    try:
        if tag == "int":
            return int(value)
        if tag == "float":
            return float(value)
        if tag == "bool":
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if tag == "list_float":
            return [float(v) for v in value.split(",") if v.strip()]
        if tag == "list_str":
            return [v.strip() for v in value.split(",") if v.strip()]
        return value
    except ValueError as exc:
        raise _UsageError(f"bad value for {name}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> dict:
    schema = _SCHEMAS[args.command]
    config = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise _UsageError(
            f"unknown config keys for {args.command}: {', '.join(unknown)}"
        )
    opts: dict = {}
    for name, (tag, default) in schema.items():
        flag_value = getattr(args, name, None)
        if name == "config":
            opts[name] = args.config
        elif flag_value is not None:
            if tag in ("list_str", "list_float"):
                opts[name] = _coerce(str(flag_value), tag, name)
            else:
                opts[name] = flag_value
        elif name in config:
            opts[name] = _coerce(config[name], tag, name)
        else:
            opts[name] = default
    for name in _REQUIRED[args.command]:
        if opts[name] is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")
    for name, allowed in _ENUMS.items():
        if opts.get(name) is not None and opts[name] not in allowed:
            raise _UsageError(
                f"--{name.replace('_', '-')} must be one of "
                f"{', '.join(allowed)}; got {opts[name]!r}"
            )
    for name, allowed in _LIST_ENUMS.items():
        for value in opts.get(name) or ():
            if value not in allowed:
                raise _UsageError(
                    f"--{name.replace('_', '-')} entries must be from "
                    f"{', '.join(allowed)}; got {value!r}"
                )
    return opts


def _echo_config(opts: dict) -> dict:
    return {k: v for k, v in opts.items() if k not in _NO_ECHO}


def _atomic_write(path: str | Path, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _thresholds(opts) -> ThresholdConfig:
    return ThresholdConfig(
        zc_threshold=opts.get("zc_threshold"),
        ssc_threshold=opts.get("ssc_threshold"),
        wamp_threshold=opts.get("wamp_threshold"),
    )


def _parse_radicle(text: str | None) -> tuple[tuple[int, int], ...]:
    """Radicle cells as 'row,col' pairs separated by ';', 1-based."""
    if text is None:
        return DEFAULT_RADICLE
    cells = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise _UsageError(f"bad radicle cell {part!r}; expected row,col")
        try:
            cells.append((int(pieces[0]), int(pieces[1])))
        except ValueError as exc:
            raise _UsageError(f"bad radicle cell {part!r}: {exc}") from exc
    if not cells:
        raise _UsageError("radicle must name at least one cell")
    return tuple(cells)


# -- handlers ---------------------------------------------------------------


def _cmd_synth(opts) -> int:
    dataset = generate_synthetic(
        n_per_class=opts["n"], length=opts["len"], seed=opts["seed"]
    )
    manifest = write_dataset(dataset, opts["out"])
    sys.stdout.write(str(manifest) + "\n")
    return 0


def _cmd_extract(opts) -> int:
    dataset = load_dataset(opts["manifest"])
    matrix = extract_base_matrix(dataset, _thresholds(opts), opts["centered_var"])
    rows = [["id", "label", *FEATURE_NAMES]]
    for seg, values in zip(dataset.segments, matrix.values):
        rows.append([seg.id, seg.label, *[repr(float(v)) for v in values]])
    _emit(_csv_text(rows), opts["out"])
    return 0


def _cmd_rank(opts) -> int:
    dataset = load_dataset(opts["manifest"])
    base = extract_base_matrix(dataset)
    artifacts = fit_prep(base.values, base.labels, seed=opts["seed"])
    ranked = sorted(
        range(len(FEATURE_NAMES)), key=lambda i: (-artifacts.gains[i], i)
    )
    report = {
        "dataset": dataset.name,
        "gains": {name: float(g) for name, g in zip(FEATURE_NAMES, artifacts.gains)},
        "ranked": [FEATURE_NAMES[i] for i in ranked],
        "soil_column_order": [FEATURE_NAMES[i] for i in artifacts.order],
        "config": _echo_config(opts),
    }
    _emit(_json_text(report), opts["out"])
    return 0


def _fitted_row(opts):
    """Shared lookup for the single-sample commands: artifacts + raw row."""
    dataset = load_dataset(opts["manifest"])
    segment = dataset.segment_by_id(opts["sample"])
    base = extract_base_matrix(dataset)
    artifacts = fit_prep(base.values, base.labels, seed=opts["seed"])
    row_index = [seg.id for seg in dataset.segments].index(segment.id)
    return dataset, segment, base.values[row_index], artifacts


def _cmd_soil_dump(opts) -> int:
    _, _, row, artifacts = _fitted_row(opts)
    config = SoilConfig(depth=opts["depth"], fill_mode=opts["fill_mode"])
    soil = soil_for_row(row, artifacts, config)
    nutrients = convolve_soil(soil)
    discrete_text = _csv_text([[str(int(v)) for v in line] for line in soil.grid])
    nutrient_text = _csv_text(
        [[repr(float(v)) for v in line] for line in nutrients.grid]
    )
    if opts["out"] is None:
        sys.stdout.write(discrete_text + "\n" + nutrient_text)
    else:
        out_dir = Path(opts["out"])
        _atomic_write(out_dir / "discrete_soil.csv", discrete_text)
        _atomic_write(out_dir / "nutrient_matrix.csv", nutrient_text)
    return 0


def _cmd_grow(opts) -> int:
    _, segment, row, artifacts = _fitted_row(opts)
    soil_config = SoilConfig(depth=opts["depth"], fill_mode=opts["fill_mode"])
    growth_config = GrowthConfig(
        days=opts["days"],
        division_limit=opts["division_limit"],
        radicle=_parse_radicle(opts["radicle"]),
        occupy_zero=opts["occupy_zero"],
        rows=opts["depth"],
    )
    nutrients = nutrients_for_row(row, artifacts, soil_config)
    state = grow(nutrients, growth_config)
    pair = extract_prs(state)
    report = {
        "id": segment.id,
        "nf": pair.nf,
        "rf": pair.rf,
        "days_run": len(state.day_log),
        "n_occupied": int(np.sum(state.occupancy)),
        "day_log": [[list(cell) for cell in day] for day in state.day_log],
        "config": _echo_config(opts),
    }
    if opts["dump_frames"]:
        frame_dir = Path(opts["dump_frames"])
        occupancy = np.zeros_like(state.occupancy)
        for r, c in growth_config.radicle:
            occupancy[r - 1, c - 1] = 1
        _atomic_write(
            frame_dir / "day00.csv",
            _csv_text([[str(int(v)) for v in line] for line in occupancy]),
        )
        for day, cells in enumerate(state.day_log, 1):
            for r, c in cells:
                occupancy[r - 1, c - 1] = 1
            _atomic_write(
                frame_dir / f"day{day:02d}.csv",
                _csv_text([[str(int(v)) for v in line] for line in occupancy]),
            )
        _atomic_write(frame_dir / "summary.json", _json_text(report))
    _emit(_json_text(report), opts["out"])
    return 0


def _cmd_spectral(opts) -> int:
    dataset = load_dataset(opts["manifest"])
    table = extract_spectral_matrix(dataset, opts["median_mode"])
    rows = [["id", "label", *SPECTRAL_NAMES]]
    for seg, values in zip(dataset.segments, table):
        rows.append([seg.id, seg.label, repr(float(values[0])), repr(float(values[1]))])
    _emit(_csv_text(rows), opts["out"])
    return 0


def _cmd_classify(opts) -> int:
    dataset = load_dataset(opts["manifest"])
    variant = (opts["variant"],)
    needs_prs = any(_needs(variant, name) for name in PRS_NAMES)
    if needs_prs and not opts["global_prep"]:
        _check_prep_folds(dataset, (opts["rate"],))
    base = extract_base_matrix(dataset)
    labels = np.array(base.labels)
    rng = np.random.default_rng(opts["seed"])
    train_idx, test_idx = stratified_split(
        labels, dataset.class_names, opts["rate"], rng
    )
    if not needs_prs:
        prs_train = np.zeros((len(train_idx), 2))
        prs_test = np.zeros((len(test_idx), 2))
    elif opts["global_prep"]:
        artifacts = fit_prep(base.values, labels, seed=opts["seed"])
        prs_all = prs_features(base.values, artifacts)
        prs_train, prs_test = prs_all[train_idx], prs_all[test_idx]
    else:
        artifacts = fit_prep(
            base.values[train_idx],
            labels[train_idx],
            seed=opts["seed"],
        )
        prs_train = prs_features(base.values[train_idx], artifacts)
        prs_test = prs_features(base.values[test_idx], artifacts)
    spectral_rows = (
        extract_spectral_matrix(dataset, opts["median_mode"])
        if any(_needs(variant, name) for name in SPECTRAL_NAMES)
        else np.zeros((len(dataset), 2))
    )
    raw_train = assemble_variant(
        opts["variant"], base.values[train_idx], prs_train, spectral_rows[train_idx]
    )
    raw_test = assemble_variant(
        opts["variant"], base.values[test_idx], prs_test, spectral_rows[test_idx]
    )
    bounds = column_bounds(raw_train)
    model = train(
        ClassifierSpec(kind=opts["classifier"]),
        apply_bounds(raw_train, bounds),
        labels[train_idx],
    )
    predictions = model.predict(apply_bounds(raw_test, bounds))
    counts = confusion_counts(labels[test_idx], predictions, model.classes)
    report = {
        "dataset": dataset.name,
        "classifier": opts["classifier"],
        "variant": opts["variant"],
        "rate": opts["rate"],
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
        "accuracy": counts.accuracy,
        "confusion": {
            "tp": counts.tp,
            "tn": counts.tn,
            "fp": counts.fp,
            "fn": counts.fn,
        },
        "diagnostics": model.diagnostics,
        "config": _echo_config(opts),
    }
    _emit(_json_text(report), opts["out"])
    return 0


def _eval_csv_rows(report: dict) -> list[list[str]]:
    rows = [["classifier", "variant", "rate", "rep_mean", "rep_std", "n_reps"]]
    for cell in report["cells"]:
        rows.append(
            [
                cell["classifier"],
                cell["variant"],
                repr(float(cell["rate"])),
                repr(float(cell["mean_accuracy"])),
                repr(float(cell["std_accuracy"])),
                str(report["reps"]),
            ]
        )
    return rows


def _cmd_evaluate(opts) -> int:
    dataset = load_dataset(opts["manifest"])
    report = run_experiment(
        dataset,
        classifiers=opts["classifiers"],
        variants=opts["variants"],
        rates=opts["rates"],
        reps=opts["reps"],
        seed=opts["seed"],
        threads=opts["threads"],
        global_prep=opts["global_prep"],
        median_mode=opts["median_mode"],
    )
    report["config"] = _echo_config(opts)
    if opts["out"] is None:
        sys.stdout.write(_json_text(report))
    else:
        out_dir = Path(opts["out"])
        _atomic_write(out_dir / "eval_report.json", _json_text(report))
        _atomic_write(out_dir / "eval_report.csv", _csv_text(_eval_csv_rows(report)))
    return 0


def _cmd_correlate(opts) -> int:
    dataset = load_dataset(opts["manifest"])
    table, names = build_feature_table(
        dataset,
        seed=opts["seed"],
        median_mode=opts["median_mode"],
    )
    corr, constant = correlation_matrix(table)
    n_base = len(FEATURE_NAMES)
    base_block = [
        abs(corr[i, j]) for i in range(n_base) for j in range(i + 1, n_base)
    ]
    prs_block = [
        abs(corr[i, j]) for i in (n_base, n_base + 1) for j in range(n_base)
    ]
    spectral_block = [
        abs(corr[i, j]) for i in (n_base + 2, n_base + 3) for j in range(n_base)
    ]
    report = {
        "dataset": dataset.name,
        "names": list(names),
        "matrix": [[float(v) for v in line] for line in corr],
        "constant_columns": [names[i] for i in range(len(names)) if constant[i]],
        "mean_abs_base_base": float(np.mean(base_block)),
        "mean_abs_prs_base": float(np.mean(prs_block)),
        "mean_abs_spectral_base": float(np.mean(spectral_block)),
        "config": _echo_config(opts),
    }
    csv_rows = [["feature", *names]]
    for i, name in enumerate(names):
        csv_rows.append([name, *[repr(float(v)) for v in corr[i]]])
    if opts["out"] is None:
        sys.stdout.write(_json_text(report))
    else:
        out_dir = Path(opts["out"])
        _atomic_write(out_dir / "correlation_report.json", _json_text(report))
        _atomic_write(out_dir / "correlation_report.csv", _csv_text(csv_rows))
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "extract": _cmd_extract,
    "rank": _cmd_rank,
    "soil-dump": _cmd_soil_dump,
    "grow": _cmd_grow,
    "spectral": _cmd_spectral,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "correlate": _cmd_correlate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
        return _HANDLERS[args.command](opts)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
