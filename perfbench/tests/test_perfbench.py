"""Self-tests of the benchmark's own code: python -m pytest perfbench/tests -q"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import genscenario  # noqa: E402
import tracing  # noqa: E402

BUNDLED = ROOT / "scenarios" / "assembly_cell.yaml"


def _yaml(seed):
    return genscenario.to_yaml(genscenario.make_spec(4, seed, ("0.29", "0.10"), 200))


def test_same_seed_gives_byte_identical_scenario():
    assert _yaml(7).encode() == _yaml(7).encode()
    assert _yaml(7) != _yaml(8)


def test_corrupted_schedule_or_wrong_mean_is_a_failure():
    model = checks.load_model(BUNDLED.read_text())
    schedule = {"alpha0": 4, "prefix_inputs": [], "cycle_inputs": [7, 7, 4, 7]}
    good = checks.Synthesis(Fraction(24), (4, 2, 5, 6, 4), schedule)
    assert checks.check_synthesis(model, good) == []

    corrupted = dict(schedule, cycle_inputs=[7, 7, 4, 8])
    assert checks.check_synthesis(model, checks.Synthesis(Fraction(24), good.cycle,
                                                          corrupted))
    assert checks.check_synthesis(model, checks.Synthesis(Fraction(25), good.cycle,
                                                          schedule))
    pinned = {"mean": "24", "cycle": [4, 2, 5, 6, 4],
              "schedule": dict(schedule, cycle_inputs=[7, 4, 7, 7])}
    assert checks.check_synthesis(model, good, pinned)


def test_traced_run_restores_every_wrapped_name(tmp_path, monkeypatch):
    monkeypatch.setenv("FADECTRL_OUTDIR", str(tmp_path))
    cli = importlib.import_module("fadectrl.cli")
    modules = [m for name, m in sys.modules.items() if name.startswith("fadectrl")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
              if callable(v)}
    originals = {getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in tracing.TARGETS}

    tracer = tracing.Tracer()
    with tracing.traced(tracer) as replaced:
        assert replaced
        assert all(getattr(m, k) is not o for m, k, o in replaced)
        main = tracer.wrap("cli", cli.main)
        assert main(["synthesize", str(BUNDLED)]) == 0
        assert main(["simulate", str(BUNDLED), "--seed", "1", "--trials", "100",
                     "--horizon", "80", "--schedule",
                     str(tmp_path / "assembly_cell.schedule.json")]) == 0

    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
             if callable(v)}
    assert after == before
    assert {o for _, _, o in replaced} == originals
    totals = tracer.totals()
    for name in ("cli", "scenario.load", "synthesis", "synthesis.karp",
                 "mas.successor", "cosim.simulate", "cosim.rng", "cosim.csv"):
        assert totals[name][0] >= 1, name
    # self times partition the time spent under the root spans
    assert sum(t[2] for t in totals.values()) == pytest.approx(totals["cli"][1], rel=1e-9)
