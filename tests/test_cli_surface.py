"""The command-line surface of every command, pinned literally: its
flags, the options it resolves with their defaults and echo order, which
of them are required, and that a --config file can set each of them."""

import pytest

from prs.cli import _resolve, _UsageError, build_parser

IO = {"manifest": None, "out": None}

# command -> (required options, every option but config with the value it
# resolves to when no flag or config key sets it, in the order reports
# echo them)
SURFACE = {
    "synth": (("out", "seed"), {"out": None, "n": 20, "len": 2000, "seed": None}),
    "extract": (
        ("manifest",),
        {
            **IO,
            "centered_var": False,
            "zc_threshold": None,
            "ssc_threshold": None,
            "wamp_threshold": None,
        },
    ),
    "rank": (("manifest",), IO),
    "soil-dump": (
        ("manifest", "sample"),
        {**IO, "sample": None, "depth": 15, "fill_mode": "stacked"},
    ),
    "grow": (
        ("manifest", "sample"),
        {
            **IO,
            "sample": None,
            "depth": 15,
            "fill_mode": "stacked",
            "days": 10,
            "division_limit": 2,
            "radicle": None,
            "occupy_zero": True,
            "dump_frames": None,
        },
    ),
    "spectral": (("manifest",), {**IO, "median_mode": "psd"}),
    "classify": (
        ("manifest", "seed", "classifier"),
        {
            **IO,
            "seed": None,
            "classifier": None,
            "variant": "PRS",
            "rate": 0.6,
            "global_prep": False,
            "median_mode": "psd",
        },
    ),
    "evaluate": (
        ("manifest", "seed"),
        {
            **IO,
            "seed": None,
            "classifiers": ["LR", "LDA", "QDA", "SVM_POLY"],
            "variants": ["BASE", "BASE_NF", "BASE_RF", "PRS", "COMPARISON"],
            "rates": [0.6],
            "reps": 100,
            "global_prep": False,
            "median_mode": "psd",
        },
    ),
    "correlate": (("manifest",), {**IO, "median_mode": "psd"}),
}

# option -> (text of a non-default value, the value it resolves to)
SAMPLES = {
    "manifest": ("m.csv", "m.csv"),
    "out": ("o", "o"),
    "n": ("7", 7),
    "len": ("33", 33),
    "seed": ("5", 5),
    "centered_var": ("true", True),
    "zc_threshold": ("0.25", 0.25),
    "ssc_threshold": ("0.5", 0.5),
    "wamp_threshold": ("1e-3", 1e-3),
    "sample": ("N1", "N1"),
    "depth": ("9", 9),
    "fill_mode": ("onehot", "onehot"),
    "days": ("4", 4),
    "division_limit": ("3", 3),
    "radicle": ("2,3;4,5", "2,3;4,5"),
    "occupy_zero": ("false", False),
    "dump_frames": ("f", "f"),
    "median_mode": ("frequency", "frequency"),
    "classifier": ("QDA", "QDA"),
    "variant": ("BASE", "BASE"),
    "rate": ("0.5", 0.5),
    "global_prep": ("yes", True),
    "classifiers": ("LR,QDA", ["LR", "QDA"]),
    "variants": ("BASE,PRS", ["BASE", "PRS"]),
    "rates": ("0.5,0.7", [0.5, 0.7]),
    "reps": ("3", 3),
}


def flag(name):
    return "--" + name.replace("_", "-")


def flag_args(names):
    """Flags that set each of ``names`` to its sample value."""
    argv = []
    for name in names:
        text, value = SAMPLES[name]
        if isinstance(value, bool):
            argv.append(flag(name) if value else "--no-" + flag(name)[2:])
        else:
            argv += [flag(name), text]
    return argv


def resolve(command, argv):
    return _resolve(build_parser().parse_args([command, *argv]))


def test_table_covers_every_command():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(SURFACE)


@pytest.mark.parametrize("command", list(SURFACE))
def test_flags(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {
        opt for action in sub.choices[command]._actions for opt in action.option_strings
    }
    want = {"-h", "--help", "--config"}
    for name in SURFACE[command][1]:
        want.add(flag(name))
        if isinstance(SAMPLES[name][1], bool):
            want.add("--no-" + flag(name)[2:])
    assert flags == want


@pytest.mark.parametrize("command", list(SURFACE))
def test_defaults_and_echo_order(command):
    required, defaults = SURFACE[command]
    opts = resolve(command, flag_args(required))
    want = {**defaults, **{name: SAMPLES[name][1] for name in required}}
    assert opts == {**want, "config": None}
    assert [name for name in opts if name != "config"] == list(defaults)


@pytest.mark.parametrize(
    "command, missing",
    [(command, name) for command, (required, _) in SURFACE.items() for name in required],
)
def test_required(command, missing):
    required, _ = SURFACE[command]
    with pytest.raises(_UsageError, match=f"{flag(missing)} is required"):
        resolve(command, flag_args([n for n in required if n != missing]))


@pytest.mark.parametrize("command", list(SURFACE))
def test_every_option_from_a_config_file_or_flags(command, tmp_path):
    _, defaults = SURFACE[command]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{name} = {SAMPLES[name][0]}\n" for name in defaults))
    want = {name: SAMPLES[name][1] for name in defaults}
    assert resolve(command, ["--config", str(cfg)]) == {**want, "config": str(cfg)}
    assert resolve(command, flag_args(defaults)) == {**want, "config": None}


@pytest.mark.parametrize(
    "command, name",
    [
        (command, name)
        for command, (_, defaults) in SURFACE.items()
        for name in defaults
        if isinstance(SAMPLES[name][1], bool)
    ],
)
def test_both_forms_of_each_boolean(command, name):
    required, _ = SURFACE[command]
    base = flag_args(required)
    assert resolve(command, base + [flag(name)])[name] is True
    assert resolve(command, base + ["--no-" + flag(name)[2:]])[name] is False
