import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prs import dataset as dataset_module
from prs.dataset import (
    MIN_SEGMENT_LENGTH,
    LabeledDataset,
    SignalSegment,
    _read_signal_file,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from prs.errors import DatasetError

from conftest import make_segment
from reference import read_signal_lines


def write_signal(path, values):
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


def write_manifest(tmp_path, rows, rate=1000.0):
    lines = [f"# sampling_rate={rate}", "id,label,path"]
    lines.extend(f"{i},{lab},{p}" for i, lab, p in rows)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_load_minimal_manifest(tmp_path):
    rows = []
    for i, lab in enumerate(["A", "A", "B", "B"]):
        fname = f"s{i}.txt"
        write_signal(tmp_path / fname, np.linspace(-1, 1, 2000))
        rows.append((f"s{i}", lab, fname))
    ds = load_dataset(write_manifest(tmp_path, rows))
    assert len(ds.segments) == 4
    assert ds.class_names == ("A", "B")
    assert all(len(s) == 2000 for s in ds.segments)
    assert ds.segments[0].sampling_rate == 1000.0


def test_too_short_segment_rejected(tmp_path):
    write_signal(tmp_path / "x.txt", range(10))
    write_signal(tmp_path / "y.txt", range(20))
    write_signal(tmp_path / "z.txt", range(20))
    write_signal(tmp_path / "w.txt", range(20))
    manifest = write_manifest(
        tmp_path,
        [("x", "A", "x.txt"), ("y", "A", "y.txt"), ("z", "B", "z.txt"), ("w", "B", "w.txt")],
    )
    with pytest.raises(DatasetError, match="too short"):
        load_dataset(manifest)


def test_three_labels_rejected(tmp_path):
    rows = []
    for i, lab in enumerate(["A", "A", "B", "B", "C", "C"]):
        fname = f"s{i}.txt"
        write_signal(tmp_path / fname, range(20))
        rows.append((f"s{i}", lab, fname))
    with pytest.raises(DatasetError, match="binary classes"):
        load_dataset(write_manifest(tmp_path, rows))


def test_duplicate_ids_rejected():
    seg = lambda i, lab: make_segment(i, lab, np.arange(20.0))
    with pytest.raises(DatasetError, match="duplicate"):
        LabeledDataset(
            name="d", segments=(seg("x", "A"), seg("x", "A"), seg("y", "B"), seg("z", "B"))
        )


def test_non_numeric_sample_reports_location(tmp_path):
    (tmp_path / "x.txt").write_text("1.0\nnope\n" + "1.0\n" * 20)
    write_signal(tmp_path / "y.txt", range(20))
    write_signal(tmp_path / "z.txt", range(20))
    write_signal(tmp_path / "w.txt", range(20))
    manifest = write_manifest(
        tmp_path,
        [("x", "A", "x.txt"), ("y", "A", "y.txt"), ("z", "B", "z.txt"), ("w", "B", "w.txt")],
    )
    with pytest.raises(DatasetError, match=r"x\.txt:2"):
        load_dataset(manifest)


def test_missing_signal_file_reports_row_and_path(tmp_path):
    for name in ("x", "z", "w"):
        write_signal(tmp_path / f"{name}.txt", range(20))
    manifest = write_manifest(
        tmp_path,
        [("x", "A", "x.txt"), ("y", "A", "gone.txt"), ("z", "B", "z.txt"), ("w", "B", "w.txt")],
    )
    with pytest.raises(DatasetError) as err:
        load_dataset(manifest)
    message = str(err.value)
    assert message.startswith(f"{manifest}: row 2: segment 'y': missing file ")
    assert message.endswith(str(tmp_path / "gone.txt"))


def test_missing_rate_comment_rejected(tmp_path):
    write_signal(tmp_path / "x.txt", range(20))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,label,path\nx,A,x.txt\n")
    with pytest.raises(DatasetError, match="sampling_rate"):
        load_dataset(manifest)


def test_padded_header_loads_like_the_plain_one(tmp_path):
    manifest = write_dataset(_four_segments(), tmp_path)
    plain = _load_outcome(manifest)
    text = manifest.read_text()
    manifest.write_text(text.replace("\nid,label,path\n", "\n id , label , path\n"))
    assert _load_outcome(manifest) == plain and plain[0] == "dataset"


def test_manifest_that_is_not_utf8_names_the_manifest(tmp_path):
    write_signal(tmp_path / "x.txt", range(20))
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"# sampling_rate=1000.0\nid,label,path\nx,\xff,x.txt\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(manifest)
    assert str(err.value).startswith(f"{manifest}: not UTF-8 text: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda manifest: None, "missing manifest file {manifest}"),
        (lambda manifest: manifest.mkdir(), "{manifest}: Is a directory"),
    ],
    ids=["missing", "directory"],
)
def test_a_manifest_that_cannot_be_opened_names_it(tmp_path, make, message):
    manifest = tmp_path / "manifest.csv"
    make(manifest)
    with pytest.raises(DatasetError) as err:
        load_dataset(manifest)
    assert str(err.value) == message.format(manifest=manifest)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# sampling_rate=1000.0\nid,label\nx,A,x.txt\n",
         "manifest header must be 'id,label,path', got ['id', 'label']"),
        ("# sampling_rate=fast\nid,label,path\nx,A,x.txt\n",
         "bad sampling_rate comment '# sampling_rate=fast'"),
        ("# sampling_rate=1000.0\nid,label,path\n\n", "manifest lists no segments"),
    ],
    ids=["header", "rate-comment", "no-rows"],
)
def test_bad_manifest_names_the_manifest_and_the_fault(tmp_path, text, message):
    write_signal(tmp_path / "x.txt", range(20))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(text)
    with pytest.raises(DatasetError) as err:
        load_dataset(manifest)
    assert str(err.value) == f"{manifest}: {message}"


def test_two_sampling_rates_are_not_written(tmp_path):
    rates = [("A", 1000.0), ("A", 500.0), ("B", 1000.0), ("B", 1000.0)]
    segments = [
        make_segment(f"s{i}", label, np.arange(20.0), fs) for i, (label, fs) in enumerate(rates)
    ]
    with pytest.raises(DatasetError) as err:
        write_dataset(LabeledDataset(name="mixed", segments=tuple(segments)), tmp_path / "out")
    assert str(err.value) == (
        "dataset 'mixed': manifest format stores one sampling rate, "
        "dataset has [500.0, 1000.0]"
    )
    assert not (tmp_path / "out").exists()


def test_two_dimensional_samples_rejected():
    with pytest.raises(DatasetError) as err:
        make_segment("x", "A", np.zeros((4, 20)))
    assert str(err.value) == "segment 'x': samples must be 1D"


@pytest.mark.parametrize("rate", ["0.0", "-5.0", "inf", "nan"])
def test_rate_that_is_not_finite_and_positive_rejected(tmp_path, rate):
    write_signal(tmp_path / "x.txt", range(20))
    manifest = write_manifest(tmp_path, [("x", "A", "x.txt")], rate=rate)
    with pytest.raises(DatasetError) as err:
        load_dataset(manifest)
    assert str(err.value) == (
        f"{manifest}: row 1: segment 'x': sampling_rate must be finite and > 0, "
        f"got {float(rate)!r}"
    )


def test_segment_samples_read_only(tiny_dataset):
    with pytest.raises(ValueError):
        tiny_dataset.segments[0].samples[0] = 99.0


def test_min_length_boundary():
    make_segment("ok", "A", np.arange(float(MIN_SEGMENT_LENGTH)))
    with pytest.raises(DatasetError, match="too short"):
        make_segment("bad", "A", np.arange(float(MIN_SEGMENT_LENGTH - 1)))


def test_synthetic_shape_and_determinism():
    a = generate_synthetic(2, 16, seed=7)
    b = generate_synthetic(2, 16, seed=7)
    assert len(a.segments) == 4
    assert a.name == "synthetic-seed7"
    for sa, sb in zip(a.segments, b.segments):
        assert sa.id == sb.id
        assert np.array_equal(sa.samples, sb.samples)
    c = generate_synthetic(2, 16, seed=8)
    assert not np.array_equal(a.segments[0].samples, c.segments[0].samples)


def test_synthetic_class_variances():
    # class N is double-amplitude noise, class P sinusoid plus unit noise
    ds = generate_synthetic(40, 2000, seed=1)
    assert len(ds.segments) == 80
    var = {"P": [], "N": []}
    for seg in ds.segments:
        var[seg.label].append(np.var(seg.samples))
    assert np.mean(var["N"]) > np.mean(var["P"])


def test_synthetic_rejects_tiny_inputs():
    with pytest.raises((DatasetError, ValueError)):
        generate_synthetic(1, 2000, seed=0)
    with pytest.raises((DatasetError, ValueError)):
        generate_synthetic(2, 8, seed=0)


@pytest.mark.parametrize(
    "n_per_class, length, message",
    [
        (2.5, 64, "n_per_class must be an integer, got 2.5"),
        (3, 20.5, "length must be an integer, got 20.5"),
        (True, 64, "n_per_class must be an integer, got True"),
        (1, 64, "n_per_class must be >= 2, got 1"),
    ],
)
def test_synthetic_sizes_must_be_counts(n_per_class, length, message):
    with pytest.raises(ValueError) as err:
        generate_synthetic(n_per_class, length, seed=1)
    assert str(err.value) == message


def test_dataset_stores_its_labels_and_class_names(tiny_dataset):
    assert tiny_dataset.labels == tuple(s.label for s in tiny_dataset.segments)
    assert tiny_dataset.class_names == ("A", "B")
    assert tiny_dataset.labels is tiny_dataset.labels


def test_write_then_load_round_trip(tmp_path, tiny_dataset):
    manifest = write_dataset(tiny_dataset, tmp_path / "out")
    loaded = load_dataset(manifest)
    assert loaded.name == "manifest"  # the manifest file's stem
    assert loaded.class_names == tiny_dataset.class_names
    for orig, back in zip(tiny_dataset.segments, loaded.segments):
        assert orig.id == back.id
        assert orig.label == back.label
        assert orig.sampling_rate == back.sampling_rate
        assert np.array_equal(orig.samples, back.samples)  # repr round-trip is exact


# values whose shortest repr is an edge case: signed zero, subnormals,
# extremes, and values with and without an exponent
_REPR_EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 0.1, 1.0, 2.5]
_REPR_EDGES += [1e16, 123456789.0, 1 / 3, -7.0, 1e-5, 0.0, 3.141592653589793, 1e22]


def test_write_dataset_bytes_match_per_value_format(tmp_path):
    values = _REPR_EDGES
    seg = make_segment("v", "A", values)
    others = [make_segment(i, lab, values) for i, lab in (("w", "A"), ("x", "B"), ("y", "B"))]
    write_dataset(LabeledDataset(name="bytes", segments=(seg, *others)), tmp_path)
    old_format = "".join(f"{float(v)!r}\n" for v in seg.samples)
    assert (tmp_path / "v.txt").read_bytes() == old_format.encode("utf-8")
    assert np.array_equal(_read_signal_file(tmp_path / "v.txt", "v"), seg.samples)


def _four_segments(ids=("a0", "a1", "b0", "b1"), labels=("A", "A", "B", "B"), samples=None):
    samples = np.linspace(-1.0, 1.0, 32) if samples is None else samples
    segments = [make_segment(i, lab, samples) for i, lab in zip(ids, labels)]
    return LabeledDataset(name="fields", segments=tuple(segments))


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", "#a0"),  # reads as a comment line: one segment short
        ("id", "a,0"),
        ("id", 'a"0'),
        ("id", " a0"),
        ("id", "a0\t"),
        ("id", "a\r0"),
        ("id", "a\n0"),
        ("id", "a/0"),
        ("id", "../a0"),  # its file would land outside the output directory
        ("id", ""),
        ("label", "A,B"),
        ("label", '"A"'),
        ("label", "A "),
        ("label", "A\n"),
        ("label", ""),
    ],
)
def test_write_dataset_rejects_a_field_that_would_not_read_back(tmp_path, field, value):
    # a bad id replaces the first segment's; a bad label replaces class A
    if field == "id":
        dataset = _four_segments(ids=(value, "a1", "b0", "b1"))
    else:
        dataset = _four_segments(labels=(value, value, "B", "B"))
    out = tmp_path / "out"
    name = re.escape(f"segment {dataset.segments[0].id!r}: {field} {value!r} ")
    with pytest.raises(DatasetError, match=name):
        write_dataset(dataset, out)
    assert not out.exists()  # nothing was written


def test_write_dataset_round_trips_unusual_fields_exactly(tmp_path):
    # ids and labels that read back as written, and samples whose
    # shortest repr must parse to the same bits
    samples = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, -2.5e-300] * 3)
    dataset = _four_segments(
        ids=("a 0", "x#1", "é.2", "a;b\t'c"), labels=("#A", "#A", "B b", "B b"), samples=samples
    )
    loaded = load_dataset(write_dataset(dataset, tmp_path))
    assert [(s.id, s.label) for s in loaded.segments] == [
        (s.id, s.label) for s in dataset.segments
    ]
    for orig, back in zip(dataset.segments, loaded.segments, strict=True):
        assert back.samples.tobytes() == orig.samples.tobytes()
        assert back.sampling_rate == orig.sampling_rate


# -- one-read loader against the line-by-line reader --------------------------

def test_clean_file_is_parsed_without_the_line_reader(tmp_path, monkeypatch):
    # one float() call per line: the lines are not walked a second time
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    monkeypatch.setattr(dataset_module, "float", counting_float, raising=False)
    path = tmp_path / "s.txt"
    for ending in (b"", b"\n", b"\r\n"):
        calls.clear()
        path.write_bytes(b" 1.5\r\n-2e3\t\r\n1_0\rnan\n\x0c7" + ending)
        got = _read_signal_file(path, "s")
        assert np.array_equal(got, [1.5, -2000.0, 10.0, np.nan, 7.0], equal_nan=True)
        assert len(calls) == 5


_TOKENS = [
    "0.5", "-0.0", "1e300", "5e-324", "1_0", "nan", "-inf", "Infinity", "+.5",
    "1 2", "1,5", "0x10", "abc", "1e", "--1", "\ufeff1", "\u0661",
]
_PADS = ["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"]
_NEWLINES = ["\n", "\n", "\r\n", "\r"]

line_texts = st.one_of(
    st.sampled_from(_TOKENS),
    st.floats(allow_nan=False).map(repr),
    st.just(""),
)
padded_lines = st.tuples(st.sampled_from(_PADS), line_texts, st.sampled_from(_PADS))


@st.composite
def file_texts(draw):
    """Padded lines joined by mixed line endings, with or without a final one."""
    lines = draw(st.lists(padded_lines.map("".join), max_size=8))
    text = ""
    for i, line in enumerate(lines):
        text += line
        if i < len(lines) - 1 or draw(st.booleans()):
            text += draw(st.sampled_from(_NEWLINES))
    return text


def _outcome(read, path):
    try:
        return "array", read(path)
    except DatasetError as err:
        return "error", str(err)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(file_texts())
def test_one_read_loader_matches_line_reader(tmp_path, text):
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode("utf-8"))
    got_kind, got = _outcome(lambda p: _read_signal_file(p, "s"), path)
    want_kind, want = _outcome(read_signal_lines, path)
    assert got_kind == want_kind
    if got_kind == "error":
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_empty_file_reads_as_no_samples(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(b"")
    assert _read_signal_file(path, "s").shape == (0,)


# -- two processes against one -------------------------------------------------

two_processes = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the loader and the writer fork only on Linux"
)


def _load_outcome(manifest):
    """What loading ``manifest`` gives: its ids, labels and sample bytes,
    or the type and message of what it raised."""
    try:
        ds = load_dataset(manifest)
    except Exception as exc:
        return "error", type(exc), str(exc)
    assert not any(s.samples.flags.writeable for s in ds.segments)
    return "dataset", ds.labels, [(s.id, s.samples.tobytes()) for s in ds.segments]


def _one_and_two_processes(manifest, monkeypatch, reads=None):
    """The outcome of one serial load and of one load that forks a child
    for the second half of the rows, with two usable CPUs, and the number
    of rows given to each child. ``reads``, if given, is left holding the
    names of the signal files the latter load read in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    start, read = dataset_module._start_child, dataset_module._read_signal_file

    def counting_start(work, items):
        forks.append(len(items))
        return start(work, items)

    def counting_read(path, segment_id):
        if reads is not None:
            reads.append(path.name)
        return read(path, segment_id)

    monkeypatch.setattr(dataset_module, "_start_child", counting_start)
    monkeypatch.setattr(dataset_module, "_read_signal_file", counting_read)
    outcomes = []
    for limit in (float("inf"), 0):
        if reads is not None:
            reads.clear()
        monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", limit)
        outcomes.append(_load_outcome(manifest))
        assert multiprocessing.active_children() == []
    return outcomes, forks


# how a row's signal file goes wrong, if it does
_ROW_KINDS = [
    "ok", "ok", "ok", "ok", "blank lines", "missing", "non-numeric", "non-finite",
    "too short", "empty", "empty label", "directory", "not utf-8",
]


def _write_row(directory, i, kind, length, rng):
    """Write row ``i``'s signal file as ``kind`` asks; returns its manifest row."""
    name = f"s{i}.txt"
    path = directory / name
    lines = [repr(v) for v in rng.standard_normal(length).tolist()]
    at = int(rng.integers(len(lines)))
    if kind == "blank lines":
        lines[at:at] = ["", "  "]
    elif kind == "non-numeric":
        lines[at] = "nope"
    elif kind == "non-finite":
        lines[at] = "inf"
    elif kind == "too short":
        lines = lines[: MIN_SEGMENT_LENGTH - 1]
    elif kind == "empty":
        lines = []
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"0.5\n\xff\xfe\n")
    elif kind != "missing":
        path.write_text("".join(line + "\n" for line in lines))
    label = "" if kind == "empty label" else "AB"[int(rng.integers(2))]
    return (f"s{i}", label, name)


@two_processes
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=2, max_size=9),
    lengths=st.lists(st.integers(MIN_SEGMENT_LENGTH, 300), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_processes_load_what_one_loads(tmp_path, monkeypatch, kinds, lengths, seed):
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    rng = np.random.default_rng(seed)
    rows = [_write_row(directory, i, k, n, rng) for i, (k, n) in enumerate(zip(kinds, lengths))]
    (serial, forked), forks = _one_and_two_processes(write_manifest(directory, rows), monkeypatch)
    assert forked == serial
    assert forks in ([], [len(rows) - len(rows) // 2])


def _rows_of(tmp_path, kinds, length=64):
    """A manifest of one row per kind, labelled A, B, A, ... but for an
    ``empty label`` row."""
    rng = np.random.default_rng(5)
    return write_manifest(
        tmp_path,
        [_write_row(tmp_path, i, k, length, rng)[:1]
         + ("" if k == "empty label" else "AB"[i % 2], f"s{i}.txt")
         for i, k in enumerate(kinds)],
    )


@two_processes
@pytest.mark.parametrize(
    "kinds, length, row, message",
    [
        # a segment check in the parent's half before a read failure in the child's
        (["ok", "too short", "ok", "ok", "missing", "ok"], 64, 2, "segment too short"),
        # both halves fail to read: the parent's row comes first
        (["ok", "non-numeric", "ok", "missing", "ok", "ok"], 64, 2, "non-numeric sample"),
        # the child's half: a read failure before a segment check
        (["ok", "ok", "ok", "non-numeric", "non-finite", "ok"], 64, 4, "non-numeric sample"),
        # the child's half: a segment check before a read failure it stopped at
        (["ok", "ok", "ok", "non-finite", "missing", "ok"], 64, 4, "non-finite amplitude"),
        (["ok", "ok", "ok", "ok", "ok", "missing"], 64, 6, "missing file"),
        # the parent fails while the child still has more samples to send
        # than a pipe holds: the child is stopped, not waited for
        (["non-finite", "ok", "ok", "ok", "ok", "ok"], 4000, 1, "non-finite amplitude"),
        # the child checks a row's fields as the parent does: the one it
        # stopped at, empty or unreadable, fails again in the parent
        (["ok", "ok", "ok", "empty label", "missing", "ok"], 64, 4, "empty id/label/path"),
        (["ok", "ok", "ok", "missing", "empty label", "ok"], 64, 4, "missing file"),
    ],
)
def test_the_earliest_failing_row_wins(tmp_path, monkeypatch, kinds, length, row, message):
    manifest = _rows_of(tmp_path, kinds, length)
    (serial, forked), forks = _one_and_two_processes(manifest, monkeypatch)
    assert forks == [3]
    assert forked == serial
    kind, exc_type, text = forked
    assert exc_type is DatasetError
    assert text.startswith(f"{manifest}: row {row}: ") and message in text


@two_processes
@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
@pytest.mark.parametrize("at", [1, 4])
def test_an_unreadable_file_is_a_dataset_error_naming_row_and_file(
    tmp_path, monkeypatch, kind, at
):
    # an OSError or a decoding error becomes a DatasetError naming the row
    # and the file, on both load paths alike
    kinds = ["ok"] * 6
    kinds[at] = kind
    manifest = _rows_of(tmp_path, kinds)
    (serial, forked), forks = _one_and_two_processes(manifest, monkeypatch)
    assert forks == [3]
    assert forked == serial
    _, exc_type, text = forked
    assert exc_type is DatasetError
    why = "Is a directory" if kind == "directory" else "not UTF-8 text: 'utf-8' codec"
    path = tmp_path / f"s{at}.txt"
    assert text.startswith(f"{manifest}: row {at + 1}: {path}: {why}")


@two_processes
@pytest.mark.parametrize("at", [1, 4])
def test_a_path_holding_a_nul_byte_is_a_dataset_error_naming_row_and_file(
    tmp_path, monkeypatch, at
):
    # os.stat and open raise ValueError, not OSError, on a NUL byte
    rng = np.random.default_rng(5)
    rows = [_write_row(tmp_path, i, "ok", 64, rng) for i in range(6)]
    rows[at] = rows[at][:2] + (f"s{at}\0.txt",)
    manifest = write_manifest(tmp_path, rows)
    (serial, forked), forks = _one_and_two_processes(manifest, monkeypatch)
    assert forks == [3]
    assert forked == serial
    path = str(tmp_path / f"s{at}\0.txt")
    assert forked == (
        "error", DatasetError, f"{manifest}: row {at + 1}: path {path!r}: embedded null byte"
    )


@two_processes
def test_a_child_that_sends_nothing_leaves_its_rows_to_the_parent(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_module, "_run_in_child", lambda work, items, writer: None)
    reads = []
    (serial, forked), forks = _one_and_two_processes(
        _rows_of(tmp_path, ["ok"] * 6), monkeypatch, reads
    )
    assert forks == [3]
    assert forked == serial and forked[0] == "dataset"
    assert reads == [f"s{i}.txt" for i in range(6)]


@two_processes
@pytest.mark.parametrize(
    "sent, count", [(0, 0), (1, 1), (-1, 2)], ids=["none", "first", "all-but-last"]
)
def test_rows_past_the_last_array_received_are_read_by_the_parent(
    tmp_path, monkeypatch, sent, count
):
    # the child sends the arrays of its first rows only, then exits
    run = dataset_module._run_in_child
    monkeypatch.setattr(
        dataset_module, "_run_in_child",
        lambda work, items, writer: run(work, items[:sent], writer),
    )
    reads = []
    (serial, forked), forks = _one_and_two_processes(
        _rows_of(tmp_path, ["ok"] * 6), monkeypatch, reads
    )
    assert forks == [3]
    # the parent read its own half and every row past the ``count`` received
    assert reads == [f"s{i}.txt" for i in [0, 1, 2, *range(3 + count, 6)]]
    assert forked == serial and forked[0] == "dataset"
    assert multiprocessing.active_children() == []


def _write_outcome(dataset, out):
    """What writing ``dataset`` to ``out`` gives: the name and bytes of
    every file in ``out``, or the type and message of what it raised and
    whether a manifest was written."""
    try:
        write_dataset(dataset, out)
    except Exception as exc:
        return "error", type(exc), str(exc), (out / "manifest.csv").exists()
    return "files", {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _one_and_two_process_writes(dataset, out, monkeypatch, writes, blocked=()):
    """The outcome of one serial write of ``dataset`` to ``out`` and of
    one that forks a child for the second half of the segments, with two
    usable CPUs; ``writes`` (``parent_writes``) is left holding the
    latter's. ``out`` is made afresh before each write, with a directory
    where the file of each id in ``blocked`` goes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    outcomes = []
    for limit in (float("inf"), 0):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        for seg_id in blocked:
            (out / f"{seg_id}.txt").mkdir()
        writes.clear()
        monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", limit)
        outcomes.append(_write_outcome(dataset, out))
        assert multiprocessing.active_children() == []
    return outcomes


def _edge_dataset(lengths):
    """One segment per length, labelled A, B, A, ...: every repr edge
    value in a shuffled order, then Gaussian noise."""
    rng = np.random.default_rng(len(lengths))
    segments = []
    for i, n in enumerate(lengths):
        samples = rng.standard_normal(n)
        samples[: len(_REPR_EDGES)] = rng.permutation(_REPR_EDGES)
        segments.append(make_segment(f"s{i}", "AB"[i % 2], samples))
    return LabeledDataset(name="edges", segments=tuple(segments))


@two_processes
@pytest.mark.parametrize(
    "lengths",
    [[64] * 5, [16, 300, 17, 1000, 64, 31, 2000], [16] * 4],
    ids=["odd-rows", "mixed-lengths", "edges-only"],
)
def test_two_processes_write_what_one_writes(
    tmp_path, monkeypatch, parent_writes, lengths
):
    serial, forked = _one_and_two_process_writes(
        _edge_dataset(lengths), tmp_path / "out", monkeypatch, parent_writes
    )
    assert serial[0] == "files"
    assert sorted(serial[1]) == sorted([f"s{i}.txt" for i in range(len(lengths))] + ["manifest.csv"])
    assert forked == serial
    # the child wrote the rest
    assert parent_writes == [f"s{i}" for i in range(len(lengths) // 2)]


@two_processes
@pytest.mark.parametrize(
    "blocked, first, runs",
    [
        # the child's half: the parent resumes at the first file it did not
        # acknowledge
        (["s4"], "s4", ["s0", "s1", "s2", "s4"]),
        (["s3", "s5"], "s3", ["s0", "s1", "s2", "s3"]),  # the child stops at s3
        (["s1", "s4"], "s1", ["s0", "s1"]),  # both halves: the parent's row comes first
        (["s2"], "s2", ["s0", "s1", "s2"]),
    ],
)
def test_a_file_that_cannot_be_written_raises_as_in_one_process(
    tmp_path, monkeypatch, capfd, parent_writes, blocked, first, runs
):
    out = tmp_path / "out"
    serial, forked = _one_and_two_process_writes(
        _edge_dataset([64] * 6), out, monkeypatch, parent_writes, blocked
    )
    assert forked == serial == (
        "error", IsADirectoryError, f"[Errno 21] Is a directory: '{out / first}.txt'", False
    )
    assert parent_writes == runs
    assert capfd.readouterr() == ("", "")  # the child printed nothing


@two_processes
def test_a_killed_writer_leaves_its_files_to_the_parent(
    tmp_path, monkeypatch, parent_writes
):
    monkeypatch.setattr(
        dataset_module, "_run_in_child", lambda *args: os.kill(os.getpid(), signal.SIGKILL)
    )
    serial, forked = _one_and_two_process_writes(
        _edge_dataset([64] * 6), tmp_path / "out", monkeypatch, parent_writes
    )
    assert forked == serial and serial[0] == "files"
    assert parent_writes == [f"s{i}" for i in range(6)]


def test_a_fork_that_fails_leaves_every_file_to_the_parent(tmp_path, monkeypatch):
    def no_fork(work, items):
        attempts.append(len(items))
        raise BlockingIOError(11, "Resource temporarily unavailable")

    attempts = []
    dataset = _edge_dataset([64] * 6)
    serial = _write_outcome(dataset, tmp_path / "serial")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(dataset_module, "_start_child", no_fork)
    monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", 0)
    assert _write_outcome(dataset, tmp_path / "forked") == serial and serial[0] == "files"
    assert attempts == [3]


def test_two_processes_pay_reads_sizes_only_as_far_as_needed(monkeypatch):
    def sizes():
        while True:
            read.append(1)
            yield 1

    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", 3)
    for cpus, pays, count in (({0}, False, 0), ({0, 1}, True, 3)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        read = []
        assert dataset_module._two_processes_pay(sizes()) is pays
        assert len(read) == count
    assert not dataset_module._two_processes_pay([1, 1])


def test_a_fork_that_fails_leaves_every_row_to_the_parent(tmp_path, monkeypatch):
    def no_fork(work, items):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    manifest = _rows_of(tmp_path, ["ok"] * 6)
    serial = _load_outcome(manifest)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(dataset_module, "_start_child", no_fork)
    monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", 0)
    assert _load_outcome(manifest) == serial and serial[0] == "dataset"


def test_one_usable_cpu_reads_in_one_process(tmp_path, monkeypatch):
    def no_child(work, items):
        raise AssertionError("forked a child with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(dataset_module, "_start_child", no_child)
    monkeypatch.setattr(dataset_module, "_TWO_PROCESS_MIN_BYTES", 0)
    assert len(load_dataset(_rows_of(tmp_path, ["ok"] * 6))) == 6


@pytest.mark.parametrize(
    "call",
    ["prs.load_dataset(sys.argv[1])",
     "prs.write_dataset(prs.generate_synthetic(3, 64, 0), sys.argv[1] + '.out')"],
    ids=["load_dataset", "write_dataset"],
)
def test_a_small_manifest_imports_no_multiprocessing(tmp_path, call):
    manifest = _rows_of(tmp_path, ["ok"] * 6)
    code = (
        f"import sys; import prs; {call}; "
        "assert 'multiprocessing' not in sys.modules, 'imported multiprocessing'"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dataset_module.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code, str(manifest)], env=env, check=True)


def test_write_dataset_rejects_an_id_the_file_system_encoding_cannot_spell(tmp_path):
    # under an ASCII locale no file can be named after segment é1
    out = tmp_path / "out"
    code = (
        "import sys; import numpy as np; import prs\n"
        "segments = [prs.SignalSegment(i, 'AB'[k % 2], 1000.0, np.ones(64))\n"
        "            for k, i in enumerate(['s0', '\\xe91', 's2', 's3'])]\n"
        "try:\n"
        "    prs.write_dataset(prs.LabeledDataset('d', tuple(segments)), sys.argv[1])\n"
        "except prs.DatasetError as err:\n"
        "    print(ascii(str(err)))\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(dataset_module.__file__).parents[1]),
        "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C",
    }
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)], env=env, capture_output=True, check=True
    )
    assert proc.stdout.decode() == ascii(
        "segment 'é1': id 'é1' cannot be spelled in the file-system encoding 'ascii'"
    ) + "\n"
    assert not out.exists()  # nothing was written
