"""Every command on a mutated scenario ends in a result or a located error.

Proves:
 Group 1 - mutants of the bundled cell (numbers replaced from a fixed menu:
           0, -1, -0.0, 1.0e+308, 1.0e-320, .nan, .inf and a 20-digit int;
           key lines deleted or duplicated) run through `check` and
           `synthesize`, and through `simulate --trials 100 --horizon 200`
           where `synthesize` succeeds: each exits with status 0, 1 or 2,
           writes nothing to stderr but `warning:`, `error:`, `infeasible:`
           and `artifacts:` messages (an error, the last, may take several
           lines: a list of violations, or a YAML error's marks), raises no
           Python warning, and writes all of its artifacts or none; the
           diverging conveyor (`a_open: 1.5`) is one of them
"""

import contextlib
import io
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadectrl.cli import OUTDIR_ENV, main

BUNDLED = Path(__file__).resolve().parents[1] / "scenarios" / "assembly_cell.yaml"
# the bundled cell without its comments, so that every edit reaches the document
LINES = [line for line in (re.sub(r"\s*#.*", "", raw) for raw in
                           BUNDLED.read_text().splitlines()) if line.strip()]
NUMBER = re.compile(r"(?<![\w.-])-?\d+(?:\.\d+)?(?![\w.])")
# (line, start, end) of every number of the document
SPOTS = [(i, m.start(), m.end()) for i, line in enumerate(LINES) for m in NUMBER.finditer(line)]
KEYS = [i for i, line in enumerate(LINES) if re.match(r"\s*(- )?[\w]+:", line)]
MENU = ["0", "-1", "-0.0", "1.0e+308", "1.0e-320", ".nan", ".inf", "12345678901234567890"]
EDITS = st.lists(st.one_of(
    st.tuples(st.just("number"), st.integers(0, len(SPOTS) - 1), st.sampled_from(MENU)),
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.sampled_from(KEYS))),
    min_size=1, max_size=3)
CONVEYOR_OPEN = next(j for j, (i, _, _) in enumerate(SPOTS) if LINES[i] == "    a_open: 1.0")
PREFIXES = ("warning:", "error:", "infeasible:", "artifacts:")
# each command's artifacts, by suffix of the scenario's stem
ARTIFACTS = {"check": set(), "synthesize": {".report.txt", ".schedule.json"},
             "simulate": {".trace.csv", ".simreport.txt"}}


def _mutant(edits) -> str:
    """LINES with `edits` applied, the last edit of a number or of a line
    winning: numbers replaced, then key lines deleted or duplicated."""
    lines = list(LINES)
    numbers = {e[1]: e[2] for e in edits if e[0] == "number"}
    for spot in sorted(numbers, reverse=True):  # each line's from its end back
        i, start, end = SPOTS[spot]
        lines[i] = lines[i][:start] + numbers[spot] + lines[i][end:]
    keys = {e[1]: e[0] for e in edits if e[0] != "number"}
    for i in sorted(keys, reverse=True):
        lines[i:i + 1] = [] if keys[i] == "delete" else [lines[i], lines[i]]
    return "\n".join(lines) + "\n"


def _run(command, argv, outdir: Path):
    """main(argv) with artifacts in outdir: its exit status and stderr, after
    checking that it raised no warning and wrote all its artifacts or none."""
    old = os.environ.get(OUTDIR_ENV)
    os.environ[OUTDIR_ENV] = str(outdir)
    err = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            status = main([command, *argv])
    finally:
        if old is None:
            del os.environ[OUTDIR_ENV]
        else:
            os.environ[OUTDIR_ENV] = old
    assert status in (0, 1, 2), (command, status)
    assert [str(w.message) for w in caught] == [], command
    lines = err.getvalue().splitlines()
    # an error ends the run, and its message may go on over further lines
    head = next((j for j, line in enumerate(lines) if line.startswith("error:")), len(lines))
    assert all(line.startswith(PREFIXES) for line in lines[:head]), (command, lines)
    written = {p.name[len("cell"):] for p in outdir.iterdir()} if outdir.exists() else set()
    assert written == (ARTIFACTS[command] if status == 0 else set()), (command, status, written)
    return status, lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edits=EDITS)
@example(edits=[("number", CONVEYOR_OPEN, "1.5")])
def test_every_command_on_a_mutant_ends_in_a_result_or_a_located_error(edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario = tmp / "cell.yaml"
        scenario.write_text(_mutant(edits))
        _run("check", [str(scenario)], tmp / "check")
        status, _ = _run("synthesize", [str(scenario)], tmp / "synthesize")
        if status == 0:
            schedule = tmp / "synthesize" / "cell.schedule.json"
            _run("simulate", [str(scenario), "--schedule", str(schedule), "--seed", "1",
                              "--trials", "100", "--horizon", "200"], tmp / "simulate")
