"""Labeled signal datasets: loading, writing, and synthetic generation.

A dataset on disk is a manifest CSV plus one plain-text signal file per
segment (one amplitude per line, scientific notation accepted):

    # sampling_rate=1000.0
    id,label,path
    p000,P,p000.txt
    ...

Paths are resolved relative to the manifest's directory. Exactly two
distinct labels must be present. Downstream code maps the two labels to
(C1, C2) by lexicographic order, so ``class_names`` is always sorted.

A signal file is read in one piece and all its lines are parsed in one
pass. A file with a blank or unparsable line is read again by the
line-by-line reader, which is the reference for what a file means and
reports the first bad line by number. ``write_dataset`` writes each
signal file with one call, every value as its shortest round-trip repr.

Parsing is bound by ``float()``, which holds the interpreter lock, so a
large manifest is read in two processes: on Linux, with at least two
usable CPUs, once the signal files add up to ``_TWO_PROCESS_MIN_BYTES``
(1 MiB). A child forked through ``multiprocessing`` reads the second
half of the rows with the same reader and pipes their samples back; the
parent reads the first half meanwhile, then checks and builds every
segment in manifest order. So the arrays are the same bits, and the
first failing row raises the same exception with the same message as in
one process: the parent reads the row the child failed on again itself.
The child is always joined before ``load_dataset`` returns or raises.
If no child can be started, or it dies, the parent reads its rows too.
The threshold is the measured break-even. On a 2-vCPU Xeon, with 25-41
interleaved loads per shape, two processes lost on every shape up to
0.7 MiB (64 files x 512 samples, 0.6 MiB: 11.2 against 17.7 ms; the fork
and join cost ~5 ms), were even at 0.9-1.2 MiB (faster in 10-17 of 25),
and won from 1.2 MiB on in 31-37 of 41 (128 x 512: 37.1 against 25.8 ms;
2000 x 512, 19 MiB: 525 against 247 ms). On Python >= 3.12 ``os.fork()``
in a process that runs other threads (numpy's BLAS pool) emits a
DeprecationWarning from ``multiprocessing``; pytest's
``error::DeprecationWarning:prs`` filter leaves it a warning. The child
only reads files and builds arrays, so it needs no lock such a thread
may hold.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError

MIN_SEGMENT_LENGTH = 16

# Summed size of the signal files from which load_dataset reads the
# second half of the rows in a forked child (see the module docstring).
_TWO_PROCESS_MIN_BYTES = 1 << 20
# Bytes of samples per pipe message from that child, unless one array
# is larger. The parent receives each message into one new array and
# slices the message's segments from it.
_PIPE_BATCH_BYTES = 1 << 16


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

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        labels = [s.label for s in self.segments]
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

    @property
    def class_names(self) -> tuple[str, str]:
        """The two labels in lexicographic order: (C1, C2)."""
        c1, c2 = sorted({s.label for s in self.segments})
        return c1, c2

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def segment_by_id(self, segment_id: str) -> SignalSegment:
        for seg in self.segments:
            if seg.id == segment_id:
                return seg
        raise DatasetError(f"dataset {self.name!r}: no segment with id {segment_id!r}")


def _read_signal_file(path: Path, segment_id: str) -> np.ndarray:
    try:
        fh = path.open("r", encoding="utf-8")
    except FileNotFoundError:
        raise DatasetError(f"segment {segment_id!r}: missing file {path}") from None
    with fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # after the final newline
    try:
        return np.fromiter(map(float, lines), dtype=np.float64, count=len(lines))
    except ValueError:
        return _read_signal_lines(path)


def _read_signal_lines(path: Path) -> np.ndarray:
    """One line at a time: blank lines are skipped, and the first line
    that is not a number is reported by its line number."""
    values = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: non-numeric sample {text!r}"
                ) from None
    return np.asarray(values, dtype=np.float64)


def load_dataset(manifest_path: str | Path) -> LabeledDataset:
    """Load a dataset from a manifest CSV (see module docstring for format),
    named after the manifest file's stem. Large inputs are read in two
    processes (see module docstring) with the same result and errors."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetError(f"missing manifest file {manifest_path}")

    sampling_rate = None
    rows = []
    with manifest_path.open("r", encoding="utf-8", newline="") as fh:
        data_lines = []
        for line in fh:
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
        reader = csv.DictReader(data_lines)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != [
            "id",
            "label",
            "path",
        ]:
            raise DatasetError(
                f"{manifest_path}: manifest header must be 'id,label,path', "
                f"got {reader.fieldnames}"
            )
        rows = list(reader)

    if sampling_rate is None:
        raise DatasetError(
            f"{manifest_path}: missing '# sampling_rate=<Hz>' comment line"
        )
    if not rows:
        raise DatasetError(f"{manifest_path}: manifest lists no segments")

    fields = [tuple((row[k] or "").strip() for k in ("id", "label", "path")) for row in rows]
    paths = [manifest_path.parent / rel for _, _, rel in fields]
    # Rows from ``split`` on are read by a forked child, if one pays; the
    # loop below still checks and builds every row in manifest order.
    split, child = len(rows), None
    if _two_processes_pay(paths):
        half = len(rows) // 2
        try:
            child = _ChildReader(paths[half:], [seg_id for seg_id, _, _ in fields[half:]])
            split = half
        except OSError:  # no process or pipe to spare: read every row here
            pass
    try:
        received = []
        segments = []
        for i, ((seg_id, label, rel), sig_path) in enumerate(zip(fields, paths)):
            if not seg_id or not label or not rel:
                raise DatasetError(f"{manifest_path}: row {i + 1}: empty id/label/path")
            if i == split:
                received = child.receive()
            try:
                if 0 <= i - split < len(received):
                    samples = received[i - split]
                else:  # also the row the child failed on: its error is raised here
                    samples = _read_signal_file(sig_path, seg_id)
                segments.append(
                    SignalSegment(
                        id=seg_id, label=label, sampling_rate=sampling_rate, samples=samples
                    )
                )
            except DatasetError as err:
                raise DatasetError(f"{manifest_path}: row {i + 1}: {err}") from None
    finally:
        if child is not None:
            child.close()

    return LabeledDataset(name=manifest_path.stem, segments=tuple(segments))


def _two_processes_pay(paths) -> bool:
    """Whether a second process would read ``paths`` sooner: on Linux,
    with two usable CPUs, when the files hold at least
    ``_TWO_PROCESS_MIN_BYTES``. A file that cannot be stat'ed counts 0."""
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        return False
    total = 0
    for path in paths:
        try:
            total += os.stat(path).st_size
        except OSError:
            continue
        if total >= _TWO_PROCESS_MIN_BYTES:
            return True
    return False


class _ChildReader:
    """A forked child that reads a run of signal files and sends their
    samples back over a one-way pipe, a batch of whole arrays at a time:
    one message with the arrays' lengths, one with their float64 samples,
    and an empty lengths message at the end."""

    def __init__(self, paths, ids):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, writer = ctx.Pipe(duplex=False)
        self._process = ctx.Process(target=_send_samples, args=(paths, ids, writer))
        self._process.start()
        writer.close()
        self._received = False

    def receive(self) -> list[np.ndarray]:
        """The arrays the child read, in order, up to the first file it
        could not read; [] if it died before sending them all. The arrays
        of a batch are slices of the one array its samples arrive in."""
        arrays = []
        try:
            while sizes := np.frombuffer(self._conn.recv_bytes(), dtype=np.int64).tolist():
                batch = np.empty(sum(sizes), dtype=np.float64)
                self._conn.recv_bytes_into(batch)
                ends = np.cumsum(sizes).tolist()
                arrays += [batch[end - size : end] for end, size in zip(ends, sizes)]
        except EOFError:
            return []
        self._received = True
        return arrays

    def close(self) -> None:
        """Join the child; one still sending is terminated first."""
        if not self._received:
            self._process.terminate()
        self._process.join()
        self._conn.close()


def _send_samples(paths, ids, writer) -> None:
    """Child side of ``_ChildReader``: it stops at the first file that
    fails, which the parent then reads itself, raising its error in row
    order. It makes only file reads, float() calls and numpy arrays. A
    batch holds ``_PIPE_BATCH_BYTES`` of samples at most, or one array."""
    arrays = []
    for path, seg_id in zip(paths, ids):
        try:
            arrays.append(_read_signal_file(path, seg_id))
        except Exception:
            break
    start = 0
    while start < len(arrays):
        stop, nbytes = start + 1, arrays[start].nbytes
        while stop < len(arrays) and nbytes + arrays[stop].nbytes <= _PIPE_BATCH_BYTES:
            nbytes += arrays[stop].nbytes
            stop += 1
        writer.send_bytes(np.array([a.size for a in arrays[start:stop]], dtype=np.int64))
        writer.send_bytes(np.concatenate(arrays[start:stop]))
        start = stop
    writer.send_bytes(b"")
    writer.close()


def _unreadable(value: str, is_id: bool) -> str:
    """Why ``value`` would not read back from a manifest as written, or
    "". The reader strips each field, skips a line that starts with #,
    breaks lines at CR and LF and fields at commas (a quote opens a
    quoted field), and an id names its file in the manifest's directory."""
    breaks = ',"\r\n' + (os.sep + (os.altsep or "") + "\0" if is_id else "")
    if not value or value != value.strip():
        return "is empty or padded with whitespace"
    if any(c in breaks for c in value) or (is_id and value.startswith("#")):
        return f"holds one of {breaks!r}" + (" or starts with #" if is_id else "")
    return ""


def write_dataset(dataset: LabeledDataset, out_dir: str | Path) -> Path:
    """Write a dataset to disk in manifest format; returns the manifest path.

    All segments must share one sampling rate (the format stores it once).
    An id or label that would not read back as written raises
    ``DatasetError`` naming its segment, before any file is written.
    """
    for seg in dataset.segments:
        for field, value in (("id", seg.id), ("label", seg.label)):
            problem = _unreadable(value, field == "id")
            if problem:
                raise DatasetError(f"segment {seg.id!r}: {field} {value!r} {problem}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rates = {s.sampling_rate for s in dataset.segments}
    if len(rates) != 1:
        raise DatasetError(
            f"dataset {dataset.name!r}: manifest format stores one sampling rate, "
            f"dataset has {sorted(rates)}"
        )
    (rate,) = rates

    lines = [f"# sampling_rate={float(rate)!r}", "id,label,path"]
    for seg in dataset.segments:
        fname = f"{seg.id}.txt"
        with (out_dir / fname).open("w", encoding="utf-8") as fh:
            fh.write("".join(f"{v!r}\n" for v in seg.samples.tolist()))
        lines.append(f"{seg.id},{seg.label},{fname}")

    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def generate_synthetic(n_per_class: int, length: int, seed: int) -> LabeledDataset:
    """Deterministic two-class toy dataset.

    Class "P": unit-variance Gaussian noise plus a 10 Hz sinusoid of
    amplitude 1.5. Class "N": unit-variance Gaussian noise scaled by 2.
    Sampling rate 1000 Hz. The classes are separable by variance- and
    frequency-sensitive features, so classifiers should score highly.
    """
    if n_per_class < 2:
        raise DatasetError(f"n_per_class must be >= 2, got {n_per_class}")
    if length < MIN_SEGMENT_LENGTH:
        raise DatasetError(
            f"length must be >= {MIN_SEGMENT_LENGTH}, got {length}"
        )

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
