"""Command-line front end, driven in-process through main(argv).

Proves:
 Group 1 - thresholds: values on stdout, warnings on stderr, non-finite
           matrix entries exit 1
 Group 2 - check: verdict in text and exit status (0 feasible, 2 not),
           warnings for overrides below the computed thresholds
 Group 3 - synthesize: report/schedule/DOT artifacts, infeasible runs
           and scenarios without channel tables leave nothing behind,
           each stabilization stage runs once
 Group 4 - simulate: trace and report artifacts, decay verdict, same
           seed gives byte-identical traces that match a pinned golden
           digest, the decay check is skipped (with its reason) below 100
           trials, down to one trial without a warning, or before the cycle
           entry, bad inputs exit 1
 Group 5 - usage errors
"""

import hashlib
import json
import sys
import warnings

import pytest

from fadectrl import stabilization
from fadectrl.cli import OUTDIR_ENV, main

# SHA-256 of the bundled cell's trace CSV under its synthesized schedule,
# seed 7, 100 trials, 400 fast steps.  The arm's recursion runs through
# BLAS matmul, so the digest holds for a given dgemm kernel: OpenBLAS's
# FMA kernels (Haswell and later) give it, a kernel without FMA
# (OPENBLAS_CORETYPE=Prescott) rounds differently and does not
GOLDEN_TRACE_SHA256 = "0d5dc8ac149b2212b1b8db47c9a9474d7d416b2b3ff8fe1091ec46f78aaf9145"
# SHA-256 of that run's simulate report from its second line on (the first
# names the scenario path): pins the printed cost and decay margins
GOLDEN_REPORT_SHA256 = "ad7aa1c163dd2b3bf9ee6382c2e639db82a11f5d82d2e5b220821a8df0a1df6c"


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


def test_thresholds_rejects_non_finite_matrix(scenario_path, outdir, tmp_path_factory,
                                              capsys):
    # a NaN dynamics entry is a validation error (exit 1), not an
    # infeasible threshold search (exit 2)
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("nan") / "assembly_cell.yaml"
    broken.write_text(text.replace("    a_closed: 0.2\n", "    a_closed: .nan\n"))
    assert main(["thresholds", str(broken)]) == 1
    _, err = capsys.readouterr()
    assert "plants[1].a_closed: matrix entries must be finite" in err
    assert "infeasible" not in err


@pytest.mark.parametrize("old, new, key, line", [
    ("    2: {decode", "    [0, 1]: {decode", "[0, 1]", 53),
    ("  inputs: [[1, 0], [1, 1], [2, 0], [2, 1]]   # basis indices 4, 5, 7, 8\n",
     "  inputs:\n    [1, 0]: [4, 5, 7, 8]\n", "[1, 0]", 45),
], ids=["fading", "inputs"])
def test_tuple_mapping_key_is_a_located_error(scenario_path, outdir, tmp_path_factory,
                                              capsys, old, new, key, line):
    # a value tuple is a list, which YAML cannot use as a mapping key
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("tuple_key") / "assembly_cell.yaml"
    broken.write_text(text.replace(old, new))
    assert broken.read_text() != text
    assert main(["thresholds", str(broken)]) == 1
    _, err = capsys.readouterr()
    assert ("not valid YAML: mapping key %s at line %d is not a scalar; agent-state "
            "mapping keys must be 1-based basis indices" % (key, line)) in err
    assert "Traceback" not in err


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


def test_override_below_computed_threshold_warns(scenario_path, outdir,
                                                 tmp_path_factory, capsys):
    # the bundled thresholds_override [0.29, 0.10] sits above the arm's
    # 0.28937... but below the conveyor's 5/48
    below = ("warning: link 2 (conveyor): threshold override 0.1 is below the "
             "computed threshold 0.104166667")
    for command in ("check", "synthesize"):
        assert main([command, str(scenario_path)]) == 0
        out, err = capsys.readouterr()
        assert below in err
        assert "link 1 (arm): threshold override" not in err
        assert "[override]" in out

    assert main(["check", str(scenario_path), "--s-override", "0.2,0.12"]) == 0
    _, err = capsys.readouterr()
    assert "link 1 (arm): threshold override 0.2 is below" in err
    assert "link 2 (conveyor): threshold override" not in err

    # a conveyor whose closed loop does not beat its open loop has no
    # computed threshold: the override is still used, with a warning
    text = scenario_path.read_text()
    uncertified = tmp_path_factory.mktemp("uncertified") / "assembly_cell.yaml"
    uncertified.write_text(text.replace("    a_closed: 0.2\n", "    a_closed: 1.0\n"))
    assert main(["check", str(uncertified)]) == 0
    out, err = capsys.readouterr()
    assert ("warning: link 2 (conveyor): threshold override 0.1 is uncertified: "
            "no computed threshold") in err
    assert "feasible: yes" in out


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


def test_synthesize_stabilizes_once(scenario_path, outdir, monkeypatch, capsys):
    # wrap every binding of the two costly stages in every loaded fadectrl
    # module, so a call through any import path is counted
    calls = {}
    for name in ("largest_invariant", "reachable_layers"):
        original = getattr(stabilization, name)
        calls[name] = 0

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if module is not None and modname.split(".")[0] == "fadectrl":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
    assert main(["synthesize", str(scenario_path)]) == 0
    capsys.readouterr()
    assert calls == {"largest_invariant": 1, "reachable_layers": 1}


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
    report = (outdir / "assembly_cell.simreport.txt").read_text()
    assert report.startswith("co-simulation of %s\n" % scenario_path)
    digest = hashlib.sha256(report.split("\n", 1)[1].encode())
    assert digest.hexdigest() == GOLDEN_REPORT_SHA256
    assert capsys.readouterr().out.endswith(report)


def test_simulate_small_run_skips_decay_check(scenario_path, outdir, capsys):
    _, schedule_path = _synth(scenario_path, outdir)
    assert _simulate(scenario_path, outdir, schedule_path, 1, trials=8,
                     horizon=40) == 0
    out, _ = capsys.readouterr()
    assert "decay check skipped (needs >= 100 trials)" in out


def test_simulate_one_trial_skips_decay_check_without_warning(scenario_path, outdir,
                                                              capsys):
    # one trial has no sample sd; the run must neither warn nor fail
    _, schedule_path = _synth(scenario_path, outdir)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _simulate(scenario_path, outdir, schedule_path, 1, trials=1,
                         horizon=300) == 0
    out, err = capsys.readouterr()
    assert "decay check skipped (needs >= 100 trials)" in out
    assert "error:" not in err
    assert len((outdir / "assembly_cell.trace.csv").read_text().splitlines()) == 301


def test_simulate_horizon_before_cycle_entry_skips_decay_check(scenario_path, outdir,
                                                             capsys):
    # one 40-step prefix slot: a 40-step horizon ends at the cycle entry,
    # which used to exit 1 with no artifacts
    schedule_path = outdir / "prefixed.json"
    schedule_path.write_text('{"alpha0": 4, "prefix_inputs": [7], "cycle_inputs": [4]}')
    assert _simulate(scenario_path, outdir, schedule_path, 1, trials=100,
                     horizon=40) == 0
    out, err = capsys.readouterr()
    assert ("decay check skipped (horizon 40 ends at or before the cycle entry "
            "at fast step 40)") in out
    assert "error:" not in err
    assert len((outdir / "assembly_cell.trace.csv").read_text().splitlines()) == 41
    assert "decay check skipped" in (outdir / "assembly_cell.simreport.txt").read_text()


def test_simulate_rejects_bad_schedule_json(scenario_path, outdir, capsys):
    bad = outdir / "broken.json"
    for text, field in (
        ("{not json", ""),
        ("[1, 2]", "must be a JSON object"),
        ('{"cycle_inputs": [7.9, 7, 4, 7], "alpha0": 4}', "cycle_inputs[0]"),
        ('{"cycle_inputs": [7, true, 4, 7], "alpha0": 4}', "cycle_inputs[1]"),
        ('{"cycle_inputs": [7, 7, "4", 7], "alpha0": 4}', "cycle_inputs[2]"),
        ('{"prefix_inputs": [4.0], "cycle_inputs": [7, 7, 4, 7]}', "prefix_inputs[0]"),
        ('{"cycle_inputs": 7, "alpha0": 4}', "'cycle_inputs' must be a list"),
        ('{"cycle_inputs": [7, 7, 4, 7], "alpha0": 4.5}', "alpha0"),
        ('{"alpha0": 4}', "no 'cycle_inputs'"),
    ):
        bad.write_text(text)
        assert _simulate(scenario_path, outdir, bad, seed=1) == 1, text
        _, err = capsys.readouterr()
        assert "error:" in err and "is not valid" in err and field in err, text
        assert "Traceback" not in err


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
