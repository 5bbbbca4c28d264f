"""Byte-identical CLI outputs on `djv/`.

Every command in COMMANDS runs with `--format json`, every command in
TEXT_COMMANDS with `--format text`; its stdout is pinned by SHA-256
together with its exit code in `cli_golden.json` and `cli_golden_text.json`.
An exact engine must print the same bytes after any change that is meant
to be a pure speed-up or refactor.  LARGE_COMMANDS run at sizes the
benchmark never reaches and are pinned in `cli_golden.json` as well; the
ones in LARGE_BUDGETS must also finish within their budget in seconds.
To pin a new command, add it to its list and run

    PYTHONPATH=src python tests/test_cli_golden.py --record

The recorder writes pins only for commands that have none.  When the
output of an already pinned command differs from its pin, it prints the
command and exits 1 without writing anything.  To re-pin an intended
output change, delete the command's entry from the golden file, then
record.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from djets.cli import main
from djets.series import MAX_PRECISION

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
GOLDEN_TEXT = Path(__file__).resolve().parent / "cli_golden_text.json"

CORPUS = "djv/corpus.djv"

# Pinned in JSON and in text.  The cusp at (1, 1) and the parabola at
# (2/3, 4/9) have jet bases whose free entries are not 1.
CORPUS_COMMANDS = (
    [f"check {CORPUS}"]
    + [
        f"jet {CORPUS} --at {point} -m {m}"
        for point in ("c11", "c00", "t111", "t000", "thalf", "p00", "p23")
        for m in (1, 2, 3)
    ]
    + [
        f"horizontal {CORPUS} --from {point} -m {m} -N 12"
        for point in ("c11", "c00", "t111", "thalf", "p23")
        for m in (1, 2, 3)
    ]
    + [
        f"integrate {CORPUS} --from {point} -N 64"
        for point in (
            "c11", "c00", "t111", "t000", "thalf", "p00", "p23", "l1", "pt0", "w1"
        )
    ]
    + [
        f"horizontal {CORPUS} --from {point} -m {m} -N 24"
        for point in ("c11", "c00", "t111", "t000", "thalf", "p00", "p23")
        for m in (1, 2, 3)
    ]
    + [
        f"verify-product {pair} {CORPUS} --from {points} -m {m}"
        for pair, points in (
            ("parabola L", "p23 l1"), ("cubic L", "thalf l1"), ("L Pt", "l1 pt0")
        )
        for m in (1, 2, 3)
    ]
)

W16_JET = f"jet {CORPUS} --at w1 -m 3"

COMMANDS = [
    "check djv/counterexample.djv",
    "check djv/parabola.djv",
    "jet djv/parabola.djv --at p -m 2",
    "tangent djv/counterexample.djv",
    "counterexample -N 48",
    "integrate djv/counterexample.djv --from flow -N 32",
    "horizontal djv/counterexample.djv --from generic -m 1 -N 24",
    "horizontal djv/counterexample.djv --from generic -m 2 -N 24",
    "horizontal djv/counterexample.djv --from generic -m 3 -N 24",
    "horizontal djv/parabola.djv --from p -m 1 -N 24",
    "horizontal djv/parabola.djv --from p -m 3 -N 24",
    "horizontal djv/counterexample.djv --from origin -m 2 -N 24",
    "horizontal djv/counterexample.djv --from flow -m 3 -N 12",
    "horizontal djv/parabola.djv --from sharp -m 2 -N 16",
    "horizontal djv/parabola.djv --from sharp -m 3 -N 16",
    "horizontal djv/lines.djv --from a -m 2 -N 24",
    "verify-product L1 L2 djv/lines.djv --from a b -m 1",
    "verify-product L1 L2 djv/lines.djv --from a b -m 2",
    "verify-product L1 L2 djv/lines.djv --from a b -m 3",
] + CORPUS_COMMANDS

LARGE_COMMANDS = [
    "counterexample -N 256",
    f"counterexample -N {MAX_PRECISION}",
    "horizontal djv/counterexample.djv --from generic -m 3 -N 96",
    "integrate djv/counterexample.djv --from generic -N 256",
    f"integrate djv/parabola.djv --from p -N {MAX_PRECISION}",
    f"integrate djv/lines.djv --from b -N {MAX_PRECISION}",
    W16_JET,
]

LARGE_BUDGETS = {
    "counterexample -N 256": 1.0,
    f"counterexample -N {MAX_PRECISION}": 1.0,
    "horizontal djv/counterexample.djv --from generic -m 3 -N 96": 1.0,
    "integrate djv/counterexample.djv --from generic -N 256": 1.0,
    f"integrate djv/parabola.djv --from p -N {MAX_PRECISION}": 1.0,
    f"integrate djv/lines.djv --from b -N {MAX_PRECISION}": 1.0,
    W16_JET: 3.0,
}

TEXT_COMMANDS = [
    "check djv/parabola.djv",
    "jet djv/parabola.djv --at p -m 2",
    "tangent djv/counterexample.djv",
    "tangent djv/counterexample.djv --restrict toZ",
    "counterexample -N 48",
    "integrate djv/counterexample.djv --from flow -N 32",
    "horizontal djv/counterexample.djv --from generic -m 3 -N 24",
    "horizontal djv/parabola.djv --from sharp -m 2 -N 16",
] + CORPUS_COMMANDS + [W16_JET]


def _argv(command, fmt="json"):
    return [
        str(ROOT / word) if word.startswith("djv/") else word
        for word in command.split()
    ] + ["--format", fmt]


def _digest(stdout):
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_json_output_is_pinned(command, capsys, monkeypatch):
    monkeypatch.delenv("DJETS_PRECISION", raising=False)
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
    code = main(_argv(command))
    got = {"exit": code, "sha256": _digest(capsys.readouterr().out)}
    assert got == pinned


@pytest.mark.parametrize("command", LARGE_COMMANDS)
def test_large_json_output_is_pinned(command, capsys, monkeypatch):
    monkeypatch.delenv("DJETS_PRECISION", raising=False)
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
    start = time.perf_counter()
    code = main(_argv(command))
    seconds = time.perf_counter() - start
    got = {"exit": code, "sha256": _digest(capsys.readouterr().out)}
    assert got == pinned
    budget = LARGE_BUDGETS.get(command)
    assert budget is None or seconds < budget, (
        f"{command} took {seconds:.2f}s, budget {budget}s"
    )


def test_every_command_is_pinned():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(COMMANDS + LARGE_COMMANDS)


@pytest.mark.parametrize("command", TEXT_COMMANDS)
def test_text_output_is_pinned(command, capsys, monkeypatch):
    monkeypatch.delenv("DJETS_PRECISION", raising=False)
    pinned = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))[command]
    code = main(_argv(command, "text"))
    got = {"exit": code, "sha256": _digest(capsys.readouterr().out)}
    assert got == pinned


def test_every_text_command_is_pinned():
    pinned = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(TEXT_COMMANDS)


def _record():
    """Pin the commands that have no pin; return 1 if any pin is out of date."""
    import contextlib
    import io
    import os

    os.environ.pop("DJETS_PRECISION", None)
    updated = []
    stale = False
    for path, commands, fmt in (
        (GOLDEN, COMMANDS + LARGE_COMMANDS, "json"),
        (GOLDEN_TEXT, TEXT_COMMANDS, "text"),
    ):
        pins = json.loads(path.read_text(encoding="utf-8"))
        for command in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(_argv(command, fmt))
            got = {"exit": code, "sha256": _digest(out.getvalue())}
            if pins.setdefault(command, got) != got:
                print(f"{fmt} output differs from its pin: {command}")
                stale = True
        updated.append((path, pins))
    if stale:
        return 1
    for path, pins in updated:
        text = json.dumps(pins, indent=2, sort_keys=True) + "\n"
        path.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    sys.exit(_record())
