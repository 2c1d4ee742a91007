"""Command-line front end.

Subcommands: synth, extract, rank, soil-dump, grow, spectral, classify,
evaluate, correlate. Every option can also come from a --config file of
`key = value` lines (# comments allowed); explicit flags win over the
file, the file wins over built-in defaults. Single-file outputs go to
--out when given (written atomically), else to stdout; evaluate and
correlate treat --out as a directory and write both a CSV and a JSON
report into it. Identical configurations produce byte-identical output.
Exit codes: 0 success, 1 data or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .base_features import FEATURE_NAMES, RELATIVE_THRESHOLD, ThresholdConfig
from .classifiers import CLASSIFIER_KINDS, ClassifierSpec
from .dataset import MIN_SEGMENT_LENGTH, generate_synthetic, load_dataset, write_dataset
from .errors import DatasetError, PrsError, check_integer
from .evaluation import (
    VARIANTS,
    accuracy,
    build_feature_table,
    check_grid,
    check_rates,
    correlation_matrix,
    draw_splits,
    evaluate_splits,
    run_experiment,
)
from .growth import GrowthConfig, extract_prs, grow
from .pipeline import (
    PRS_NAMES,
    PipelineConfig,
    extract_base_matrix,
    extract_spectral_matrix,
    fit_prep,
    transform_rows,
)
from .soil import SoilConfig, build_discrete_soil, convolve_soil
from .spectral import SPECTRAL_NAMES


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class _Option:
    """One option of the command line and of --config files. ``tag`` says
    how its text parses; ``default`` is its value when unset (for a list,
    the text of it); a value outside ``choices`` (any entry, for a list)
    is a usage error; ``echo`` keeps it in report config echoes."""

    tag: str  # str, int, float, bool, list_str or list_float
    default: object
    help: str
    choices: tuple[str, ...] = ()
    echo: bool = True


def _field(cls, name: str, help: str) -> _Option:
    """An option typed and defaulted by the config field it sets; the
    annotations are text here, and "float | None" gives the tag float."""
    [field] = [f for f in fields(cls) if f.name == name]
    return _Option(field.type.split(" | ")[0], field.default, help)


_RELATIVE = f"unset: {RELATIVE_THRESHOLD} max|x| of each segment"

_OPTIONS = {
    "config": _Option("str", None, "key = value defaults file", echo=False),
    "manifest": _Option("str", None, "dataset manifest CSV"),
    "out": _Option("str", None, "output file or directory", echo=False),
    "n": _Option("int", 20, "segments per class"),
    "len": _Option("int", 2000, "samples per segment"),
    "seed": _Option("int", None, "synth: dataset seed; else the seed of every rep's splits"),
    "centered_var": _Option("bool", False, "subtract the mean in VAR"),
    "zc_threshold": _field(ThresholdConfig, "zc_threshold", "ZC; " + _RELATIVE),
    "ssc_threshold": _field(ThresholdConfig, "ssc_threshold", "SSC; " + _RELATIVE),
    "wamp_threshold": _field(ThresholdConfig, "wamp_threshold", "WAMP; " + _RELATIVE),
    "sample": _Option("str", None, "segment id"),
    "depth": _field(SoilConfig, "depth", "soil rows, one per bin"),
    "fill_mode": _field(SoilConfig, "fill_mode", "stacked or onehot"),
    "days": _field(GrowthConfig, "days", "growth days"),
    "division_limit": _field(GrowthConfig, "division_limit", "cells added per day"),
    "radicle": _Option(
        "str",
        None,
        "seed cells 'row,col;row,col', 1-based; unset: "
        + ";".join(f"{r},{c}" for r, c in GrowthConfig.radicle),
    ),
    "occupy_zero": _field(GrowthConfig, "occupy_zero", "zero-nutrient cells may grow"),
    "dump_frames": _Option("str", None, "directory of daily grids", echo=False),
    "median_mode": _field(PipelineConfig, "median_mode", "MedPSD: psd or frequency"),
    "classifier": _Option("str", None, "a classifier", CLASSIFIER_KINDS),
    "variant": _Option("str", "PRS", "a feature variant", VARIANTS),
    "rate": _Option("float", 0.6, "training share of each class"),
    "global_prep": _Option("bool", False, "fit feature prep on all rows"),
    "classifiers": _Option(
        "list_str", ",".join(CLASSIFIER_KINDS), "comma-separated", CLASSIFIER_KINDS
    ),
    "variants": _Option("list_str", ",".join(VARIANTS), "comma-separated", VARIANTS),
    "rates": _Option("list_float", "0.6", "comma-separated training shares"),
    "reps": _Option("int", 100, "repetitions"),
}

# command -> (its handler, its options in report echo order, the required ones)
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, options: str, required: str):
    """Declare the command ``name``, run by the decorated handler, whose
    docstring is its help: its options and the required ones, as names
    separated by spaces. Every command also reads --config."""

    def register(handler):
        _COMMANDS[name] = (handler, ["config", *options.split()], required.split())
        return handler

    return register


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prs",
        description="Root-growth feature extraction and evaluation for "
        "labeled 1D signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, names, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        for name in names:
            option = _OPTIONS[name]
            help_text = option.help
            if option.choices:
                help_text += f" from {','.join(option.choices)}"
            if option.default is not None:
                help_text += f"; default {option.default}"
            if option.tag == "bool":
                # --x and --no-x, None if neither is given: a config file may set it
                how = {"action": argparse.BooleanOptionalAction}
            else:
                how = {"type": {"int": int, "float": float}.get(option.tag, str)}
            p.add_argument(_flag(name), dest=name, help=help_text, **how)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not UTF-8 text: {exc}") from exc
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
        if tag.startswith("list_"):
            items = [v.strip() for v in value.split(",") if v.strip()]
            if not items:
                raise ValueError("expected at least one comma-separated value")
            return [float(v) for v in items] if tag == "list_float" else items
        return value
    except ValueError as exc:
        raise _UsageError(f"bad value for {name}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> dict:
    _, names, required = _COMMANDS[args.command]
    config = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(config) - set(names))
    if unknown:
        raise _UsageError(
            f"unknown config keys for {args.command}: {', '.join(unknown)}"
        )
    opts: dict = {}
    for name in names:
        option = _OPTIONS[name]
        value = getattr(args, name)
        if value is None:
            value = config.get(name, option.default)
        # argparse parses int, float and bool flags; the rest arrive as text
        if isinstance(value, str):
            value = _coerce(value, option.tag, name)
        if value is None and name in required:
            raise _UsageError(f"{_flag(name)} is required")
        for entry in value if isinstance(value, list) else [value]:
            if option.choices and entry is not None and entry not in option.choices:
                raise _UsageError(
                    f"{_flag(name)} must be one of {', '.join(option.choices)}; "
                    f"got {entry!r}"
                )
        opts[name] = value
    return opts


def _echo_config(opts: dict) -> dict:
    return {k: v for k, v in opts.items() if _OPTIONS[k].echo}


def _atomic_write(path: str | Path, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None, files: dict[str, str] | None = None) -> None:
    """``text`` to stdout without --out; else to the file --out, or, given
    ``files``, each of them under the directory --out."""
    if out is None:
        sys.stdout.write(text)
    elif files is None:
        _atomic_write(out, text)
    else:
        for name, body in files.items():
            _atomic_write(Path(out) / name, body)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _segment_csv(dataset, names, values) -> str:
    """A CSV of one row per segment: its id, its label and the repr of each
    of its values, under the header id, label and ``names``."""
    rows = [["id", "label", *names]]
    for seg, line in zip(dataset.segments, values.tolist()):
        rows.append([seg.id, seg.label, *map(repr, line)])
    return _csv_text(rows)


def _parse_radicle(text: str | None) -> tuple[tuple[int, int], ...]:
    """Radicle cells as 'row,col' pairs separated by ';', 1-based."""
    if text is None:
        return GrowthConfig.radicle
    cells = []
    for part in filter(None, map(str.strip, text.split(";"))):
        try:
            row, col = map(int, part.split(","))
        except ValueError as exc:
            raise _UsageError(f"bad radicle cell {part!r}; expected row,col") from exc
        cells.append((row, col))
    return tuple(cells)  # GrowthConfig rejects an empty radicle


def _pipeline_config(opts) -> PipelineConfig:
    """PipelineConfig from the command's options: an option named like a
    field of ThresholdConfig, SoilConfig, GrowthConfig or PipelineConfig
    sets that field, the rest keep their defaults. A bad value is a usage
    error; handlers call this before reading any data."""
    opts = {**opts, "radicle": _parse_radicle(opts.get("radicle"))}

    def part(cls):
        return cls(**{f.name: opts[f.name] for f in fields(cls) if f.name in opts})

    return _check_usage(
        lambda: PipelineConfig(
            *(part(cls) for cls in (ThresholdConfig, SoilConfig, GrowthConfig)),
            opts.get("median_mode", PipelineConfig.median_mode),
        )
    )


def _check_usage(check, *args):
    """Return check(*args), a check of option values or a config built
    from them, with its ValueError made a usage error; handlers call this
    before reading any data."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# -- handlers ---------------------------------------------------------------


@_command("synth", "out n len seed", "out seed")
def _cmd_synth(opts) -> int:
    """generate a synthetic two-class dataset"""
    _check_usage(check_integer, "n", opts["n"], 2)
    _check_usage(check_integer, "len", opts["len"], MIN_SEGMENT_LENGTH)
    _check_usage(check_integer, "seed", opts["seed"], 0)
    dataset = generate_synthetic(
        n_per_class=opts["n"], length=opts["len"], seed=opts["seed"]
    )
    manifest = write_dataset(dataset, opts["out"])
    sys.stdout.write(str(manifest) + "\n")
    return 0


@_command(
    "extract",
    "manifest out centered_var zc_threshold ssc_threshold wamp_threshold",
    "manifest",
)
def _cmd_extract(opts) -> int:
    """write the 12 time-domain base features per segment"""
    config = _pipeline_config(opts)
    dataset = load_dataset(opts["manifest"])
    base = extract_base_matrix(dataset, config.thresholds, opts["centered_var"])
    _emit(_segment_csv(dataset, FEATURE_NAMES, base), opts["out"])
    return 0


@_command("rank", "manifest out", "manifest")
def _cmd_rank(opts) -> int:
    """information-gain ranking of the base features"""
    dataset = load_dataset(opts["manifest"])
    artifacts = fit_prep(extract_base_matrix(dataset), dataset.labels)
    ranked = np.argsort(-artifacts.gains, kind="stable")  # ties: lower index first
    report = {
        "dataset": dataset.name,
        "gains": {name: float(g) for name, g in zip(FEATURE_NAMES, artifacts.gains)},
        "ranked": [FEATURE_NAMES[i] for i in ranked],
        "soil_column_order": [FEATURE_NAMES[i] for i in artifacts.order],
        "config": _echo_config(opts),
    }
    _emit(_json_text(report), opts["out"])
    return 0


def _fitted_row(opts, config: SoilConfig):
    """The segment of a single-sample command and its discrete soil, under
    the artifacts fitted on the whole dataset."""
    dataset = load_dataset(opts["manifest"])
    try:
        index = [seg.id for seg in dataset.segments].index(opts["sample"])
    except ValueError:
        raise DatasetError(
            f"dataset {dataset.name!r}: no segment with id {opts['sample']!r}"
        ) from None
    base = extract_base_matrix(dataset)
    artifacts = fit_prep(base, dataset.labels)
    sorted_row = transform_rows(base[index : index + 1], artifacts)[0]
    return dataset.segments[index], build_discrete_soil(sorted_row, config)


@_command("soil-dump", "manifest out sample depth fill_mode", "manifest sample")
def _cmd_soil_dump(opts) -> int:
    """discrete or convolved soil grid for one sample"""
    config = _pipeline_config(opts)
    _, soil = _fitted_row(opts, config.soil)
    discrete_text = _csv_text([[str(int(v)) for v in line] for line in soil])
    nutrient_text = _csv_text(
        [[repr(float(v)) for v in line] for line in convolve_soil(soil)]
    )
    files = {"discrete_soil.csv": discrete_text, "nutrient_matrix.csv": nutrient_text}
    _emit(discrete_text + "\n" + nutrient_text, opts["out"], files)
    return 0


@_command(
    "grow",
    "manifest out sample depth fill_mode days division_limit radicle occupy_zero "
    "dump_frames",
    "manifest sample",
)
def _cmd_grow(opts) -> int:
    """run root growth for one sample and report NF/RF"""
    config = _pipeline_config(opts)
    segment, soil = _fitted_row(opts, config.soil)
    state = grow(convolve_soil(soil), config.growth)
    nf, rf = extract_prs(state).tolist()
    report = {
        "id": segment.id,
        "nf": nf,
        "rf": rf,
        "days_run": len(state.day_log),
        "n_occupied": int(np.sum(state.occupancy)),
        "day_log": [[list(cell) for cell in day] for day in state.day_log],
        "config": _echo_config(opts),
    }
    if opts["dump_frames"]:
        frame_dir = Path(opts["dump_frames"])
        occupancy = np.zeros_like(state.occupancy)
        # day 0 is the radicle alone
        for day, cells in enumerate([config.growth.radicle, *state.day_log]):
            for r, c in cells:
                occupancy[r - 1, c - 1] = 1
            _atomic_write(
                frame_dir / f"day{day:02d}.csv",
                _csv_text([[str(int(v)) for v in line] for line in occupancy]),
            )
        _atomic_write(frame_dir / "summary.json", _json_text(report))
    _emit(_json_text(report), opts["out"])
    return 0


@_command("spectral", "manifest out median_mode", "manifest")
def _cmd_spectral(opts) -> int:
    """write MaxPSD/MedPSD per segment"""
    config = _pipeline_config(opts)
    dataset = load_dataset(opts["manifest"])
    table = extract_spectral_matrix(dataset, config.median_mode)
    _emit(_segment_csv(dataset, SPECTRAL_NAMES, table), opts["out"])
    return 0


@_command(
    "classify",
    "manifest out seed classifier variant rate global_prep median_mode",
    "manifest seed classifier",
)
def _cmd_classify(opts) -> int:
    """single stratified split, one classifier, one variant"""
    config = _pipeline_config(opts)
    _check_usage(check_rates, (opts["rate"],))
    _check_usage(check_integer, "seed", opts["seed"], 0)
    dataset = load_dataset(opts["manifest"])
    splits = draw_splits(dataset, (opts["rate"],), 1, opts["seed"])
    spec = ClassifierSpec(kind=opts["classifier"])
    counts, [[[diagnostics]]] = evaluate_splits(
        dataset, splits, [spec], (opts["variant"],), opts["global_prep"], config
    )
    report = {
        "dataset": dataset.name,
        "classifier": opts["classifier"],
        "variant": opts["variant"],
        "rate": opts["rate"],
        "n_train": len(splits[0][0]),
        "n_test": len(splits[0][1]),
        "accuracy": float(accuracy(counts)[0, 0, 0]),
        "confusion": dict(zip(("tp", "tn", "fp", "fn"), counts[0, 0, 0].tolist())),
        "diagnostics": diagnostics,
        "config": _echo_config(opts),
    }
    _emit(_json_text(report), opts["out"])
    return 0


def _eval_csv_rows(report: dict) -> list[list[str]]:
    rows = [["classifier", "variant", "rate", "rep_mean", "rep_std", "n_reps"]]
    for cell in report["cells"]:
        stats = [repr(float(cell[k])) for k in ("rate", "mean_accuracy", "std_accuracy")]
        rows.append([cell["classifier"], cell["variant"], *stats, str(report["reps"])])
    return rows


@_command(
    "evaluate",
    "manifest out seed classifiers variants rates reps global_prep median_mode",
    "manifest seed",
)
def _cmd_evaluate(opts) -> int:
    """repeated-split accuracy grid over variants"""
    config = _pipeline_config(opts)
    _check_usage(check_grid, opts["classifiers"], opts["variants"], opts["rates"])
    _check_usage(check_integer, "reps", opts["reps"], 1)
    _check_usage(check_integer, "seed", opts["seed"], 0)
    dataset = load_dataset(opts["manifest"])
    report = run_experiment(
        dataset,
        classifiers=opts["classifiers"],
        variants=opts["variants"],
        rates=opts["rates"],
        reps=opts["reps"],
        seed=opts["seed"],
        global_prep=opts["global_prep"],
        config=config,
    )
    report["config"] = _echo_config(opts)
    text = _json_text(report)
    csv_text = _csv_text(_eval_csv_rows(report))
    _emit(text, opts["out"], {"eval_report.json": text, "eval_report.csv": csv_text})
    return 0


@_command("correlate", "manifest out median_mode", "manifest")
def _cmd_correlate(opts) -> int:
    """feature correlation matrix and block summaries"""
    config = _pipeline_config(opts)
    dataset = load_dataset(opts["manifest"])
    table, names = build_feature_table(dataset, config=config)
    corr, constant = correlation_matrix(table)
    # |r| of each base pair, and of NF/RF and MaxPSD/MedPSD with each base column
    base, prs, spectral = (
        [names.index(name) for name in block]
        for block in (FEATURE_NAMES, PRS_NAMES, SPECTRAL_NAMES)
    )
    with_base = np.abs(corr)[:, base]
    base_pairs = with_base[base][np.triu_indices(len(base), 1)]
    report = {
        "dataset": dataset.name,
        "names": list(names),
        "matrix": [[float(v) for v in line] for line in corr],
        "constant_columns": [names[i] for i in range(len(names)) if constant[i]],
        "mean_abs_base_base": float(np.mean(base_pairs)),
        "mean_abs_prs_base": float(np.mean(with_base[prs])),
        "mean_abs_spectral_base": float(np.mean(with_base[spectral])),
        "config": _echo_config(opts),
    }
    csv_rows = [["feature", *names]]
    csv_rows += [[name, *map(repr, line.tolist())] for name, line in zip(names, corr)]
    text = _json_text(report)
    files = {"correlation_report.json": text, "correlation_report.csv": _csv_text(csv_rows)}
    _emit(text, opts["out"], files)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve(args)
        return _COMMANDS[args.command][0](opts)
    except (_UsageError, PrsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
