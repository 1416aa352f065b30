"""Command-line front end, driven in-process through main(argv).

Proves:
 Group 1 - thresholds: values on stdout, warnings on stderr
 Group 2 - check: verdict in text and exit status (0 feasible, 2 not)
 Group 3 - synthesize: report/schedule/DOT artifacts, infeasible runs
           and scenarios without channel tables leave nothing behind
 Group 4 - simulate: trace and report artifacts, decay verdict, same
           seed gives byte-identical traces that match a pinned golden
           digest, bad inputs exit 1
 Group 5 - usage errors
"""

import hashlib
import json

import pytest

from fadectrl.cli import OUTDIR_ENV, main

# SHA-256 of the bundled cell's trace CSV under its synthesized schedule,
# seed 7, 100 trials, 400 fast steps
GOLDEN_TRACE_SHA256 = "0d5dc8ac149b2212b1b8db47c9a9474d7d416b2b3ff8fe1091ec46f78aaf9145"


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    return tmp_path


def _synth(scenario_path, outdir, *extra):
    rc = main(["synthesize", str(scenario_path), *extra])
    return rc, outdir / "assembly_cell.schedule.json"


# ── Group 1: thresholds ──────────────────────────────────────────────────────

def test_thresholds_output(scenario_path, outdir, capsys):
    assert main(["thresholds", str(scenario_path)]) == 0
    out, err = capsys.readouterr()
    assert "link 1 (arm): s = 0.28937708" in out
    assert "link 2 (conveyor): s = 0.10416666" in out
    assert "warning: measured success table overrides derived value" in err


# ── Group 2: check ───────────────────────────────────────────────────────────

def test_check_feasible(scenario_path, outdir, capsys):
    assert main(["check", str(scenario_path)]) == 0
    out, _ = capsys.readouterr()
    assert "performance region: [2, 4, 5, 6]" in out
    assert "invariant core:     [2, 4, 5, 6]" in out
    assert "feasible: yes" in out
    assert "[override]" in out  # the bundled file pins its thresholds


def test_check_infeasible_thresholds(scenario_path, outdir, capsys):
    assert main(["check", str(scenario_path), "--s-override", "0.99,0.99"]) == 2
    out, _ = capsys.readouterr()
    assert "performance region: []" in out
    assert "feasible: no" in out


def test_check_override_validation(scenario_path, outdir, capsys):
    assert main(["check", str(scenario_path), "--s-override", "0.5"]) == 1
    _, err = capsys.readouterr()
    assert "error:" in err and "2 comma-separated values" in err

    assert main(["check", str(scenario_path), "--s-override", "1.5,0.5"]) == 1
    _, err = capsys.readouterr()
    assert "must lie in [0, 1]" in err


# ── Group 3: synthesize ──────────────────────────────────────────────────────

def test_synthesize_artifacts(scenario_path, outdir, capsys):
    rc, schedule_path = _synth(scenario_path, outdir)
    assert rc == 0
    out, err = capsys.readouterr()
    assert "optimal cycle: 4 -> 2 -> 5 -> 6 -> 4" in out
    assert "mean cycle weight: 24" in out
    assert "long-run average cost per fast step: 3/5 (= 0.6)" in out
    assert "schedule head (inputs, slow steps 0..11): 7 7 4 7 7 7 4 7 7 7 4 7" in out
    assert "artifacts:" in err

    report = (outdir / "assembly_cell.report.txt").read_text()
    assert report.rstrip("\n") in out.rstrip("\n")
    assert json.loads(schedule_path.read_text()) == {
        "alpha0": 4,
        "prefix_inputs": [],
        "cycle_inputs": [7, 7, 4, 7],
    }


def test_synthesize_dot_export(scenario_path, outdir, capsys):
    rc, _ = _synth(scenario_path, outdir, "--dot", "graph.dot")
    assert rc == 0
    dot = (outdir / "graph.dot").read_text()
    assert dot.startswith("digraph")
    assert "color=red" in dot
    capsys.readouterr()


def test_synthesize_direct_table_only_is_an_error(scenario_path, outdir,
                                                 tmp_path_factory, capsys):
    # a measured success table alone defines the region but not the radio
    # power, so the cost of a schedule is undefined
    text = scenario_path.read_text()
    start = text.index("  fading:")
    end = text.index("  success_direct:")
    direct_only = tmp_path_factory.mktemp("direct") / "assembly_cell.yaml"
    direct_only.write_text(text[:start] + text[end:])
    assert main(["synthesize", str(direct_only)]) == 1
    _, err = capsys.readouterr()
    assert "error: expected radio power undefined: scenario has no channel tables" in err
    assert "Traceback" not in err
    assert list(outdir.iterdir()) == []


def test_synthesize_infeasible_writes_nothing(scenario_path, outdir, capsys):
    rc = main(["synthesize", str(scenario_path), "--s-override", "0.99,0.99"])
    assert rc == 2
    out, _ = capsys.readouterr()
    assert "no schedule exists for these thresholds" in out
    assert list(outdir.iterdir()) == []


# ── Group 4: simulate ────────────────────────────────────────────────────────

def _simulate(scenario_path, outdir, schedule_path, seed, trials=150, horizon=120):
    return main([
        "simulate", str(scenario_path),
        "--schedule", str(schedule_path),
        "--seed", str(seed),
        "--trials", str(trials),
        "--horizon", str(horizon),
    ])


def test_simulate_artifacts_and_verdict(scenario_path, outdir, capsys):
    _, schedule_path = _synth(scenario_path, outdir)
    assert _simulate(scenario_path, outdir, schedule_path, seed=5) == 0
    out, _ = capsys.readouterr()
    assert "decay check arm: PASS" in out
    assert "decay check conveyor: PASS" in out
    assert "decay check overall: PASS" in out

    trace = (outdir / "assembly_cell.trace.csv").read_text()
    assert trace.splitlines()[0].startswith("l,k,alpha,")
    assert len(trace.splitlines()) == 121
    report = (outdir / "assembly_cell.simreport.txt").read_text()
    assert "seed 5, trials 150, horizon 120 fast steps (tau = 40)" in report


def test_simulate_same_seed_same_bytes(scenario_path, outdir, tmp_path_factory,
                                       monkeypatch, capsys):
    _, schedule_path = _synth(scenario_path, outdir)
    assert _simulate(scenario_path, outdir, schedule_path, seed=9) == 0
    first = (outdir / "assembly_cell.trace.csv").read_bytes()

    other = tmp_path_factory.mktemp("rerun")
    monkeypatch.setenv(OUTDIR_ENV, str(other))
    assert _simulate(scenario_path, other, schedule_path, seed=9) == 0
    assert (other / "assembly_cell.trace.csv").read_bytes() == first
    capsys.readouterr()


def test_simulate_golden_digest(scenario_path, outdir, capsys):
    # pins the random stream itself, not just run-against-run equality: a
    # rewrite that changes which uniforms a trial sees fails here
    rc, schedule_path = _synth(scenario_path, outdir)
    assert rc == 0
    assert json.loads(schedule_path.read_text()) == {
        "alpha0": 4,
        "prefix_inputs": [],
        "cycle_inputs": [7, 7, 4, 7],
    }
    assert _simulate(scenario_path, outdir, schedule_path, seed=7, trials=100,
                     horizon=400) == 0
    digest = hashlib.sha256((outdir / "assembly_cell.trace.csv").read_bytes())
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256
    capsys.readouterr()


def test_simulate_small_run_skips_decay_check(scenario_path, outdir, capsys):
    _, schedule_path = _synth(scenario_path, outdir)
    assert _simulate(scenario_path, outdir, schedule_path, 1, trials=8,
                     horizon=40) == 0
    out, _ = capsys.readouterr()
    assert "decay check skipped (needs >= 100 trials)" in out


def test_simulate_rejects_bad_schedule_json(scenario_path, outdir, capsys):
    bad = outdir / "broken.json"
    bad.write_text("{not json")
    assert _simulate(scenario_path, outdir, bad, seed=1) == 1
    _, err = capsys.readouterr()
    assert "error:" in err and "is not valid" in err


def test_simulate_rejects_missing_schedule(scenario_path, outdir, capsys):
    assert _simulate(scenario_path, outdir, outdir / "absent.json", seed=1) == 1
    _, err = capsys.readouterr()
    assert "cannot read schedule" in err


# ── Group 5: usage errors ────────────────────────────────────────────────────

def test_missing_scenario_file(outdir, capsys):
    assert main(["thresholds", str(outdir / "absent.yaml")]) == 1
    _, err = capsys.readouterr()
    assert "cannot read scenario" in err


def test_unknown_subcommand(outdir, capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()
