"""Labeled signal datasets: loading, writing, and synthetic generation.

A dataset on disk is a manifest CSV plus one plain-text signal file per
segment (one amplitude per line, scientific notation accepted):

    # sampling_rate=1000.0
    id,label,path
    p000,P,p000.txt
    ...

Paths are resolved relative to the manifest's directory. Exactly two
distinct labels must be present. ``LabeledDataset`` checks them when it
is built, and stores them as ``labels`` (one per segment) and
``class_names`` (the two in lexicographic order: C1, C2).

A signal file is read in one piece and all its lines are parsed in one
pass. When a line is blank or unparsable, the lines already read are
walked one at a time: blank lines are skipped, and the first bad line is
reported by its number. The reader that opens the file again and reads
it line by line, which this one is tested against, lives in
``tests/reference.py``. ``write_dataset`` writes each signal file
through ``_write_signal_file`` with one call, every value as its
shortest round-trip repr.

Parsing and formatting are bound by ``float()`` and ``repr``, which hold
the interpreter lock, so ``load_dataset`` and ``write_dataset`` run their
per-file work through ``_two_process_map``. On Linux, with at least two
usable CPUs, once ``_two_processes_pay`` has counted
``_TWO_PROCESS_MIN_BYTES`` (1 MiB), a forked child runs the work over the
second half of the files while the parent runs the first half. The child
stops at its first failure, then sends one pipe message per file it
finished: the file's samples to the loader, an empty acknowledgement to
the writer. The parent runs the work itself for every file the child
sent nothing for, so the arrays and the written bytes are the same, and
the first failing file raises the same exception with the same message
as in one process. The child prints nothing, and is stopped and joined
before either function returns or raises; if none can be started, the
parent does every file. The loader checks and builds the segments in
manifest order. The writer removes an old manifest before it writes the
first file and writes the new one last, so a failed write leaves none
(when the failing file is in the parent's half, files of the child's
half may exist).

The loader counts the signal files' text bytes on disk, the writer the
samples' float64 bytes in memory; a sample takes ~20 bytes of text, so
the writer's 1 MiB is ~2.5 times the samples of the loader's. The
threshold is the loader's measured break-even. On a 2-vCPU Xeon, with
25-41 interleaved loads per shape, two processes lost on every shape up
to 0.7 MiB (64 files x 512 samples, 0.6 MiB: 11.2 against 17.7 ms; the
fork and join cost ~5 ms), were even at 0.9-1.2 MiB (faster in 10-17 of
25), and won from 1.2 MiB on in 31-37 of 41 (128 x 512: 37.1 against 25.8
ms; 2000 x 512, 19 MiB: 525 against 247 ms). On the same Xeon, with 16
interleaved writes per shape, two processes lost at 64 x 512 samples
(0.25 MiB: 48 against 55 ms, faster in 1 of 16), won at 128 x 512 (0.5
MiB: 109 against 79 ms, 12 of 16) and on every write from 256 x 512 (1
MiB: 263 against 174 ms; 2000 x 512: 1.97 against 1.16 s). So the shared
threshold keeps the writer in one process on 0.25-1 MiB, where a child
gains little. Many short files are bound by the file system, not by
``repr``: 1000 x 16 samples took 570 ms in one process against 580 in
two, and their 0.12 MiB stays below the threshold.

On Python >= 3.12 ``os.fork()`` in a process that runs other threads
(numpy's BLAS pool) emits a DeprecationWarning from ``multiprocessing``;
pytest's ``error::DeprecationWarning:prs`` filter leaves it a warning.
The child only reads or writes files, parses or formats floats and
builds arrays, so it needs no lock such a thread may hold.
"""

from __future__ import annotations

import csv
import os
import sys
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, check_integer

MIN_SEGMENT_LENGTH = 16

# Bytes from which load_dataset reads, and write_dataset writes, the
# second half of the signal files in a forked child: text on disk for the
# one, float64 samples in memory for the other (see the module docstring).
_TWO_PROCESS_MIN_BYTES = 1 << 20


@dataclass(frozen=True)
class SignalSegment:
    """One pre-segmented 1D sample sequence with its binary class label."""

    id: str
    label: str
    sampling_rate: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DatasetError(f"segment {self.id!r}: samples must be 1D")
        if samples.size < MIN_SEGMENT_LENGTH:
            raise DatasetError(
                f"segment {self.id!r}: segment too short "
                f"({samples.size} < {MIN_SEGMENT_LENGTH} samples)"
            )
        if not np.all(np.isfinite(samples)):
            raise DatasetError(f"segment {self.id!r}: non-finite amplitude")
        if not 0 < self.sampling_rate < np.inf:
            raise DatasetError(
                f"segment {self.id!r}: sampling_rate must be finite and > 0, "
                f"got {self.sampling_rate!r}"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class LabeledDataset:
    """Ordered collection of segments carrying exactly two class labels."""

    name: str
    segments: tuple[SignalSegment, ...]
    labels: tuple[str, ...] = field(init=False)
    class_names: tuple[str, str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        labels = tuple(s.label for s in self.segments)
        distinct = sorted(set(labels))
        if len(distinct) != 2:
            raise DatasetError(
                f"dataset {self.name!r}: expected binary classes, "
                f"got {len(distinct)} distinct label(s): {distinct}"
            )
        for lab in distinct:
            if labels.count(lab) < 2:
                raise DatasetError(
                    f"dataset {self.name!r}: class {lab!r} has fewer than 2 segments"
                )
        ids = [s.id for s in self.segments]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DatasetError(f"dataset {self.name!r}: duplicate segment ids {dupes}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(distinct))

    def __len__(self) -> int:
        return len(self.segments)


def _read_signal_file(path: Path, segment_id: str) -> np.ndarray:
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        raise DatasetError(f"segment {segment_id!r}: missing file {path}") from None
    except OSError as err:  # a directory, no permission, ...
        raise DatasetError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise DatasetError(f"{path}: not UTF-8 text: {err}") from None
    except ValueError as err:  # a NUL byte, or a name the file system cannot spell
        raise DatasetError(f"path {str(path)!r}: {err}") from None
    if lines[-1] == "":
        lines.pop()  # after the final newline
    try:
        return np.fromiter(map(float, lines), dtype=np.float64, count=len(lines))
    except ValueError:  # a blank or bad line: skip the blank ones, name the first bad one
        values = []
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric sample {text!r}") from None
        return np.asarray(values, dtype=np.float64)


def load_dataset(manifest_path: str | Path) -> LabeledDataset:
    """Load a dataset from a manifest CSV (see module docstring for format),
    named after the manifest file's stem. Large inputs are read in two
    processes (see module docstring) with the same result and errors."""
    manifest_path = Path(manifest_path)
    try:
        with manifest_path.open("r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise DatasetError(f"missing manifest file {manifest_path}") from None
    except OSError as err:  # a directory, no permission, ...
        raise DatasetError(f"{manifest_path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise DatasetError(f"{manifest_path}: not UTF-8 text: {err}") from None
    sampling_rate = None
    data_lines = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.startswith("sampling_rate="):
                try:
                    sampling_rate = float(body.split("=", 1)[1])
                except ValueError:
                    raise DatasetError(
                        f"{manifest_path}: bad sampling_rate comment {stripped!r}"
                    ) from None
            continue
        if stripped:
            data_lines.append(line)
    # the header's names are checked stripped, so rows are read by position
    reader = csv.reader(data_lines)
    try:
        header = next(reader, None)
        rows = list(reader)
    except csv.Error as err:  # e.g. a field longer than csv.field_size_limit()
        raise DatasetError(f"{manifest_path}: {err}") from None
    if header is None or [f.strip() for f in header] != ["id", "label", "path"]:
        raise DatasetError(
            f"{manifest_path}: manifest header must be 'id,label,path', got {header}"
        )

    if sampling_rate is None:
        raise DatasetError(
            f"{manifest_path}: missing '# sampling_rate=<Hz>' comment line"
        )
    if not rows:
        raise DatasetError(f"{manifest_path}: manifest lists no segments")

    # a short row reads as empty fields, and fields past the third are ignored
    fields = [tuple(f.strip() for f in (row + ["", ""])[:3]) for row in rows]

    def read(row):
        seg_id, label, rel = row
        if not seg_id or not label or not rel:
            raise DatasetError("empty id/label/path")
        return _read_signal_file(manifest_path.parent / rel, seg_id)

    sizes = (_file_size(manifest_path.parent / rel) for _, _, rel in fields)
    segments = []
    try:
        with closing(_two_process_map(read, fields, sizes)) as arrays:
            for (seg_id, label, _), samples in zip(fields, arrays):
                segments.append(
                    SignalSegment(
                        id=seg_id, label=label, sampling_rate=sampling_rate, samples=samples
                    )
                )
    except DatasetError as err:  # raised by the row after the last one built
        raise DatasetError(f"{manifest_path}: row {len(segments) + 1}: {err}") from None

    return LabeledDataset(name=manifest_path.stem, segments=tuple(segments))


def _two_processes_pay(sizes) -> bool:
    """Whether a second process would read or write a run of files
    sooner: on Linux, with two usable CPUs, once the byte counts in
    ``sizes`` add up to ``_TWO_PROCESS_MIN_BYTES``. ``sizes`` is consumed
    only until they do, and not at all without the two CPUs."""
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        return False
    total = 0
    for size in sizes:
        total += size
        if total >= _TWO_PROCESS_MIN_BYTES:
            return True
    return False


def _file_size(path) -> int:
    """The size of ``path`` in bytes, or 0 if it cannot be stat'ed."""
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # reading it raises the error
        return 0


def _two_process_map(work, items, sizes):
    """Yield ``work(item)`` for each of ``items``, in order. If
    ``_two_processes_pay(sizes)``, a forked child runs ``work`` over the
    second half meanwhile, and each float64 array it sends back is yielded
    for its item; the parent runs ``work`` itself on the first half and on
    every item the child sent nothing for, so the first failing item
    raises here as in one process. Closing the generator, or its raising,
    stops and joins the child."""
    split, child = len(items), None
    if _two_processes_pay(sizes):
        try:
            child, conn = _start_child(work, items[len(items) // 2 :])
            split = len(items) // 2
        except OSError:  # no process or pipe to spare: run every item here
            pass
    try:
        for item in items[:split]:
            yield work(item)
        while child is not None and split < len(items):
            try:
                message = conn.recv_bytes()
            except (EOFError, OSError):  # the child stopped at a failure, or died
                break
            yield np.frombuffer(message, dtype=np.float64)
            split += 1
        for item in items[split:]:
            yield work(item)
    finally:
        if child is not None:
            child.terminate()
            child.join()
            conn.close()


def _start_child(work, items):
    """Fork a child that runs ``_run_in_child(work, items, writer)``;
    returns it and the read end of its pipe. ``multiprocessing`` is
    imported only once a child pays."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    conn, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(work, items, writer))
    try:
        child.start()
    finally:
        writer.close()
    return child, conn


def _run_in_child(work, items, writer) -> None:
    """Child side of ``_two_process_map``. It runs ``work`` on every item
    before it sends any result, so it never waits on a full pipe while the
    parent works. It stops at the first item that fails, whose error the
    parent raises when it runs that item itself, and prints nothing."""
    results = []
    for item in items:
        try:
            results.append(work(item))
        except Exception:
            break
    for result in results:
        writer.send_bytes(result)
    writer.close()


def _name_max(directory: Path) -> int:
    """The longest file name, in bytes, that the file system of
    ``directory`` takes, asked of its nearest existing ancestor; 255
    where the system does not say."""
    for path in (directory, *directory.parents):
        if os.path.exists(path):
            try:
                limit = os.pathconf(path, "PC_NAME_MAX")
            except (AttributeError, OSError, ValueError):  # e.g. no pathconf
                break
            return limit if limit > 0 else 255
    return 255


def _unreadable(value: str, is_id: bool, name_max: int) -> str:
    """Why ``value`` would not read back from a manifest as written, or
    "". The reader strips each field, skips a line that starts with #,
    breaks lines at CR and LF and fields at commas (a quote opens a
    quoted field), and an id names its file in the manifest's directory,
    so the file-system encoding must spell it, in at most ``name_max``
    bytes. No field, an id's path ``<id>.txt`` included, may be longer
    than ``csv.field_size_limit()``."""
    breaks = ',"\r\n' + (os.sep + (os.altsep or "") + "\0" if is_id else "")
    if not value or value != value.strip():
        return "is empty or padded with whitespace"
    limit = csv.field_size_limit()
    if len(f"{value}.txt" if is_id else value) > limit:
        return f"makes a manifest field longer than the csv limit of {limit} characters"
    if any(c in breaks for c in value) or (is_id and value.startswith("#")):
        return f"holds one of {breaks!r}" + (" or starts with #" if is_id else "")
    if is_id:
        try:
            name = os.fsencode(f"{value}.txt")
        except UnicodeEncodeError:
            encoding = sys.getfilesystemencoding()
            return f"cannot be spelled in the file-system encoding {encoding!r}"
        if len(name) > name_max:
            return (
                f"makes a file name of {len(name)} bytes, longer than the "
                f"{name_max} that the file system takes"
            )
    return ""


def write_dataset(dataset: LabeledDataset, out_dir: str | Path) -> Path:
    """Write a dataset to disk in manifest format; returns the manifest path.

    All segments must share one sampling rate (the format stores it once).
    An id or label that would not read back as written, or an id whose
    file ``<id>.txt`` is a longer name than the file system takes,
    raises ``DatasetError`` naming its segment; both are checked before
    any directory or file is made. Large datasets are written in two
    processes (see module docstring) with the same files and errors.
    """
    out_dir = Path(out_dir)
    name_max = _name_max(out_dir)
    for seg in dataset.segments:
        for key, value in (("id", seg.id), ("label", seg.label)):
            problem = _unreadable(value, key == "id", name_max)
            if problem:
                raise DatasetError(f"segment {seg.id!r}: {key} {value!r} {problem}")
    rates = {s.sampling_rate for s in dataset.segments}
    if len(rates) != 1:
        raise DatasetError(
            f"dataset {dataset.name!r}: manifest format stores one sampling rate, "
            f"dataset has {sorted(rates)}"
        )
    (rate,) = rates
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    manifest.unlink(missing_ok=True)  # an old one would list the new files

    def write(seg):  # its pipe message, an empty array, acknowledges the file
        _write_signal_file(out_dir / f"{seg.id}.txt", seg.samples)
        return np.empty(0)

    segments = dataset.segments
    sizes = (seg.samples.nbytes for seg in segments)
    with closing(_two_process_map(write, segments, sizes)) as written:
        for _ in written:
            pass

    lines = [f"# sampling_rate={float(rate)!r}", "id,label,path"]
    lines += [f"{seg.id},{seg.label},{seg.id}.txt" for seg in segments]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _write_signal_file(path: Path, samples: np.ndarray) -> None:
    """Write ``samples`` to ``path`` with one call, one shortest round-trip
    repr a line."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in samples.tolist()))


def generate_synthetic(n_per_class: int, length: int, seed: int) -> LabeledDataset:
    """Deterministic two-class toy dataset.

    Class "P": unit-variance Gaussian noise plus a 10 Hz sinusoid of
    amplitude 1.5. Class "N": unit-variance Gaussian noise scaled by 2.
    Sampling rate 1000 Hz. The classes are separable by variance- and
    frequency-sensitive features, so classifiers should score highly.
    """
    check_integer("seed", seed, 0)
    check_integer("n_per_class", n_per_class, 2)
    check_integer("length", length, MIN_SEGMENT_LENGTH)

    rng = np.random.default_rng(seed)
    rate = 1000.0
    t = np.arange(length) / rate
    tone = 1.5 * np.sin(2.0 * np.pi * 10.0 * t)

    width = len(str(max(n_per_class - 1, 1)))
    segments = []
    for i in range(n_per_class):
        samples = rng.standard_normal(length) + tone
        segments.append(
            SignalSegment(
                id=f"P{i:0{width}d}", label="P", sampling_rate=rate, samples=samples
            )
        )
    for i in range(n_per_class):
        samples = 2.0 * rng.standard_normal(length)
        segments.append(
            SignalSegment(
                id=f"N{i:0{width}d}", label="N", sampling_rate=rate, samples=samples
            )
        )
    return LabeledDataset(name=f"synthetic-seed{seed}", segments=tuple(segments))
