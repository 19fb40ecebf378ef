"""Golden outputs: every command of the benchmark decks keeps its exit code, stdout and stderr.

The decks are those of ``perfbench/workloads.py``: seeds 101-103 of each
workload, each workload's warm-up deck and the probe deck. Each command runs
in process through ``gupab.cli_io.main``; ``golden.json`` holds, per deck,
its ``input_hash`` and, per command, the label, the exit code and the sha256
of stdout and of stderr. A warning a command raises is appended to its stderr
as ``Category: message``, so the digests do not depend on how the caller
shows warnings. The last bits of some results depend on numpy, so the file
names the numpy version it was recorded with, and another version skips.

Regenerate the file, after a change meant to move an output, with

    PYTHONPATH=src python tests/test_golden.py --write

and list in CHANGES.md the commands that moved, and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEEDS = (101, 102, 103)

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

from gupab.cli_io import main  # noqa: E402


def decks():
    """Every golden deck, by name, in a fixed order."""
    named = {f"{workload}:{seed}": workloads.deck(workload, seed) for workload in workloads.WORKLOADS for seed in SEEDS}
    named.update({f"warmup:{workload}": workloads.warmup_deck(workload) for workload in workloads.WORKLOADS})
    named["probe"] = workloads.probe_deck()
    return named


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    """(exit code, stdout, stderr) of one in-process command; an escaping exception ends stderr and gives None."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception as exc:
            code = None
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    tail = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + tail


def run_deck(commands):
    """The golden record of one deck: its input hash and, per command, [label, exit code, stdout sha, stderr sha]."""
    with tempfile.TemporaryDirectory() as directory:
        rows = []
        for command, argv in zip(commands, workloads.materialize(commands, Path(directory))):
            code, stdout, stderr = _run(argv)
            # a config path in an output would make the digest depend on the temporary directory
            stdout, stderr = (text.replace(directory, "<dir>") for text in (stdout, stderr))
            rows.append([command.label, code, _digest(stdout), _digest(stderr)])
    return {"input_hash": workloads.input_hash(commands), "commands": rows}


def _recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(decks()))
def test_deck_matches_golden_outputs(name):
    recorded = _recorded()
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"golden digests were recorded with numpy {recorded['numpy']}, this is numpy {np.__version__}")
    commands = decks()[name]
    golden = recorded["decks"][name]
    assert workloads.input_hash(commands) == golden["input_hash"], (
        f"deck {name} has new inputs: regenerate tests/golden.json (python tests/test_golden.py --write)"
    )
    got = run_deck(commands)["commands"]
    moved = [f"{index}: {want[0]}" for index, (want, row) in enumerate(zip(golden["commands"], got)) if want != row]
    assert len(got) == len(golden["commands"]) and not moved, f"outputs moved in deck {name}: {moved}"


def write():
    record = {"numpy": np.__version__, "decks": {name: run_deck(commands) for name, commands in decks().items()}}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(d['commands']) for d in record['decks'].values())} commands to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write()
