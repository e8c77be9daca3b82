"""Command-line interface."""

import argparse

import pytest

from repro.cli import _duration_seconds, build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "libquantum" in out and "bfetch" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "65% less storage" in out


def test_run(capsys):
    assert main(["run", "gamess", "none", "-n", "5000"]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out


def test_compare(capsys):
    assert main(["compare", "gamess", "-n", "5000",
                 "--prefetchers", "stride"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_mix(capsys):
    assert main(["mix", "gamess", "gamess", "-n", "4000",
                 "--prefetchers", "none", "bfetch"]) == 0
    out = capsys.readouterr().out
    assert "normalized" in out


def test_rejects_unknown_benchmark():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "doom", "none"])


def test_rejects_unknown_prefetcher():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "gamess", "oracle"])


def test_rejects_nonpositive_instructions():
    parser = build_parser()
    for argv in (["run", "gamess", "none", "-n", "0"],
                 ["run", "gamess", "none", "-n", "-5"],
                 ["run", "gamess", "none", "-n", "lots"],
                 ["check", "gamess", "none", "-n", "0"],
                 ["run", "gamess", "none", "--checkpoint-every", "0"],
                 ["run", "gamess", "none", "-j", "0"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_check_clean(capsys):
    assert main(["check", "gamess", "bfetch", "-n", "5000"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: clean" in out
    assert "ipc" in out


def test_check_detects_injected_corruption(capsys):
    assert main(["check", "gamess", "bfetch", "-n", "20000",
                 "--inject-at", "1200", "--interval", "500"]) == 1
    err = capsys.readouterr().err
    assert "sanitizer violation" in err
    assert "first bad cycle" in err


def test_run_with_checkpointing(tmp_path, capsys):
    import os

    ckpt_dir = str(tmp_path / "ckpts")
    try:
        # cmd_run funnels the flags into the REPRO_CKPT_* environment
        # (inherited by pool workers); pop them afterwards so no other
        # test inherits checkpointing by accident
        assert main(["run", "gamess", "none", "-n", "5000",
                     "--checkpoint-every", "500",
                     "--checkpoint-dir", ckpt_dir]) == 0
    finally:
        os.environ.pop("REPRO_CKPT_DIR", None)
        os.environ.pop("REPRO_CKPT_EVERY", None)
    out = capsys.readouterr().out
    assert "ipc" in out
    # run completed, so its checkpoint was cleared
    assert not any(name.endswith(".ckpt.json")
                   for name in os.listdir(ckpt_dir))


# ----------------------------------------------------------------------
# duration parsing


@pytest.mark.parametrize("text,want", [
    ("90", 90.0),
    ("10s", 10.0),
    ("45m", 2_700.0),
    ("12h", 43_200.0),
    ("30d", 2_592_000.0),
    ("2w", 1_209_600.0),
    ("1.5h", 5_400.0),
])
def test_duration_accepts(text, want):
    assert _duration_seconds(text) == want


@pytest.mark.parametrize("text", [
    "", "abc", "5 m", "1h30m", "-5m", "0", "0s", "-0.0",
    "nan", "inf", "-inf", "infs", "nand", "1_0", ".", "m",
])
def test_duration_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError, match="positive"):
        _duration_seconds(text)


def test_duration_error_names_units():
    with pytest.raises(argparse.ArgumentTypeError, match="s/m/h/d/w"):
        _duration_seconds("5 parsecs")
