"""Command-line front end, driven in-process through main(argv).

Proves:
 Group 1 - thresholds: values on stdout (the bundled cell's pinned to the
           byte), warnings on stderr, non-finite matrix entries and a plant
           whose A' Q A overflows exit 1, and so does every command on a
           plant whose tr(Q Xi) overflows; a threshold that cannot be
           computed is an error naming its link, from every command that
           computes it; a noise covariance the co-simulation's Cholesky
           cannot factor is a located error of every command; 2^40 agent
           states are rejected
           by the cost section's length check before any per-state table
           is built
 Group 2 - check: verdict in text and exit status (0 feasible, 2 not),
           warnings for overrides below the computed thresholds, misspelt
           optional keys exit 1; the exact stdout, stderr and exit status
           of check and synthesize for every source of thresholds
 Group 3 - synthesize: report/schedule/DOT artifacts, report and schedule
           bytes pinned with the start on and off the cycle, infeasible runs
           and scenarios without channel tables or without a fading row
           for a usable state leave nothing behind, an artifact that cannot
           be written is one error line and no artifact of the run is
           written, a --dot naming the scenario, the report or the schedule
           is refused with nothing written, each stabilization stage runs
           once, an exact number past float64's range prints as a fraction
           alone, and an integer past that range, or a bool or timestamp
           with no reading, is a located error
 Group 4 - simulate: trace and report artifacts, decay verdict, same
           seed gives byte-identical traces that match a pinned golden
           digest, also on a BLAS kernel without FMA in a child process,
           the decay check is skipped (with its reason) below 100
           trials, down to one trial without a warning, or before the cycle
           entry, a slow step of 10^12 or 10^30 fast steps runs, bad inputs
           exit 1, and so do a run too large to allocate and a co-simulation
           worker killed by a signal, with no artifacts and no traceback
 Group 5 - usage errors; an input file that is not UTF-8 is named
 Group 6 - the process around main (`python -m fadectrl.cli`, which the
           `fadectrl` script shares): a stdout closed before the report is
           written is exit status 1 with no traceback and no artifact,
           buffered or not, while a process started with no stdout at all
           runs as it always did; `thresholds` loads neither the synthesizer nor
           the co-simulation and `simulate` not the synthesizer; `run`
           leaves the heap frozen for the interpreter's teardown and keeps
           main's exit statuses 0, 1 and 2, while `main` freezes nothing
"""

import gc
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import fadectrl
import fadectrl.cosim as cosim
from fadectrl import load_scenario, stabilization
from fadectrl.channel import expected_power
from fadectrl.cli import OUTDIR_ENV, main

# SHA-256 of the bundled cell's trace CSV under its synthesized schedule,
# seed 7, 100 trials, 400 fast steps.  The plant steps sum in index order
# without BLAS, so the digest holds on every OpenBLAS kernel
GOLDEN_TRACE_SHA256 = "9131c25a691d73bcd23d4065a86c1260c49a8ff4703fe408cb9747397e639275"
# SHA-256 of that run's simulate report from its second line on (the first
# names the scenario path): pins the printed cost and decay margins
GOLDEN_REPORT_SHA256 = "ad7aa1c163dd2b3bf9ee6382c2e639db82a11f5d82d2e5b220821a8df0a1df6c"
# per start state of the bundled cell: SHA-256 of the synthesize report from
# its second line on, and the schedule JSON's bytes.  Start 1 lies off the
# cycle, so its report prints prefix states and inputs
GOLDEN_SYNTHESIS = {
    "[1, 0]": ("03fa6ba3db42f5ff677c5933d50590808a76cd6f5a5bdec73b8da4bf49be6c61",
               '{\n  "alpha0": 4,\n  "prefix_inputs": [],\n  "cycle_inputs": [\n'
               '    7,\n    7,\n    4,\n    7\n  ]\n}\n'),
    "1": ("d31c7583de8e212723f6fbe0282f9cef774186183f5f147088d22f3c00bf05be",
          '{\n  "alpha0": 1,\n  "prefix_inputs": [\n    4\n  ],\n  "cycle_inputs": [\n'
          '    7,\n    7,\n    4,\n    7\n  ]\n}\n'),
}


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    return tmp_path


def _synth(scenario_path, outdir, *extra):
    rc = main(["synthesize", str(scenario_path), *extra])
    return rc, outdir / "assembly_cell.schedule.json"


def _one_error(err):
    """The single `error:` line of a run's stderr, which has no traceback."""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


def _child_env(**extra):
    """This environment for a `python` child that imports this tree's fadectrl."""
    src = str(Path(fadectrl.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# ── Group 1: thresholds ──────────────────────────────────────────────────────

def test_thresholds_output(scenario_path, outdir, capsys):
    assert main(["thresholds", str(scenario_path)]) == 0
    out, err = capsys.readouterr()
    assert "link 1 (arm): s = 0.28937708" in out
    assert "link 2 (conveyor): s = 0.10416666" in out
    assert "warning: measured success table overrides derived value" in err


def test_thresholds_stdout_is_pinned(scenario_path, outdir, capsys):
    assert main(["thresholds", str(scenario_path)]) == 0
    out, _ = capsys.readouterr()
    assert out == ("delivery-probability thresholds for %s\n"
                   "  link 1 (arm): s = 0.2893770859   [decay rate 0.95]\n"
                   "  link 2 (conveyor): s = 0.104166667   [decay rate 0.9]\n"
                   % scenario_path)


def test_agent_states_past_the_document_are_located_errors(scenario_path, outdir,
                                                           tmp_path_factory, capsys):
    # N = 1048576^2 = 2^40 fits 64-bit indices, but a clean cost section
    # would list N entries; a loader that builds per-state channel tables
    # before that check runs out of memory instead
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("kappa") / "assembly_cell.yaml"
    broken.write_text(text.replace("  kappa: 3\n", "  kappa: 1048576\n"))
    t0 = time.perf_counter()
    assert main(["thresholds", str(broken)]) == 1
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r":\d+: cost\.input_costs: must list 1099511627776 entries\n", err)
    assert re.search(r":\d+: channel\.success_direct\[0\]: must list 1099511627776 "
                     r"probabilities\n", err)
    assert "Traceback" not in err


def test_thresholds_rejects_non_finite_matrix(scenario_path, outdir, tmp_path_factory,
                                              capsys):
    # a NaN dynamics entry is a validation error (exit 1), not an
    # infeasible threshold search (exit 2)
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("nan") / "assembly_cell.yaml"
    broken.write_text(text.replace("    a_closed: 0.2\n", "    a_closed: .nan\n"))
    assert main(["thresholds", str(broken)]) == 1
    _, err = capsys.readouterr()
    assert "plants[1].a_closed: must be a finite number, got nan" in err
    assert "infeasible" not in err


def test_thresholds_rejects_plant_that_overflows_float64(scenario_path, outdir,
                                                        tmp_path_factory, capsys):
    # A_o' Q A_o overflows, so the threshold search would see inf and nan
    # and call a conveyor that sure delivery stabilizes infeasible
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("overflow") / "assembly_cell.yaml"
    broken.write_text(text.replace("    a_open: 1.0\n", "    a_open: 1.0e+300\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["thresholds", str(broken)]) == 1
    _, err = capsys.readouterr()
    assert ("plants[1]: open-loop matrix of plant conveyor: A' Q A is not finite "
            "in float64") in err
    assert "infeasible" not in err


@pytest.mark.parametrize("old, new, status, error", [
    ("    decay_rate: 0.9\n", "    decay_rate: 0.01\n", 2,
     "infeasible: link 2 (conveyor): predicate false at theta = 1"),
    ("    a_closed: 0.2\n", "    a_closed: 1.0\n", 1,
     "error: link 2 (conveyor): closed loop does not strictly improve on open loop "
     "in Q-metric"),
], ids=["infeasible", "no_improvement"])
def test_a_threshold_that_cannot_be_computed_names_its_link(scenario_path, outdir,
                                                           tmp_path_factory, capsys,
                                                           old, new, status, error):
    # the conveyor's threshold cannot be computed; the message used to omit its link
    text = scenario_path.read_text().replace(old, new)
    cell = tmp_path_factory.mktemp("uncomputable") / "assembly_cell.yaml"
    cell.write_text(text.replace("thresholds_override: [0.29, 0.10]\n", ""))
    for command in ("thresholds", "check", "synthesize"):
        assert main([command, str(cell)]) == status
        _, err = capsys.readouterr()
        assert "Traceback" not in err
        assert [x for x in err.splitlines() if not x.startswith("warning:")] == [error]
    assert list(outdir.iterdir()) == []
    # an override for that link is used with a warning, whose text is unchanged
    cell.write_text(text)
    main(["check", str(cell)])
    _, err = capsys.readouterr()
    assert ("warning: link 2 (conveyor): threshold override 0.1 is uncertified: no "
            "computed threshold (%s)\n" % error.split(": ", 2)[2]) in err


def test_plant_whose_noise_floor_overflows_is_a_located_error(scenario_path, outdir,
                                                              tmp_path_factory, capsys):
    # A' Q A stays finite, but tr(Q Xi) is inf: simulate used to report a
    # nan decay margin as a FAIL with exit status 0
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("overflow") / "assembly_cell.yaml"
    broken.write_text(text.replace("    quality_weight: 1.0\n", "    quality_weight: 1.0e+300\n")
                      .replace("    noise_cov: 1.0\n", "    noise_cov: 1.0e+300\n"))
    _, schedule_path = _synth(scenario_path, outdir)
    capsys.readouterr()
    for argv in (["thresholds"], ["synthesize"],
                 ["simulate", "--schedule", str(schedule_path), "--seed", "1",
                  "--trials", "100", "--horizon", "200"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([argv[0], str(broken), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            "error: 1 validation error(s):\n  %s:26: plants[1]: noise covariance of plant "
            "conveyor: tr(Q Xi) is not finite in float64\n" % broken)
    assert sorted(p.name for p in outdir.iterdir()) == ["assembly_cell.report.txt",
                                                          "assembly_cell.schedule.json"]


def test_noise_covariance_its_cholesky_rejects_is_a_located_error(scenario_path, outdir,
                                                                  tmp_path_factory, capsys):
    # eigenvalues -5e-11 and 1 pass the eigenvalue check, but the Cholesky
    # factor simulate draws its noise with meets a pivot of -0.25: check and
    # synthesize used to exit 0 and simulate 1 with an unlocated error
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("cholesky") / "assembly_cell.yaml"
    broken.write_text(text.replace(
        "    noise_cov: identity\n",
        "    noise_cov: [[2.0e-10, 1.58113883e-5], [1.58113883e-5, 1.0]]\n"))
    assert broken.read_text() != text
    schedule = outdir / "cell.schedule.json"
    schedule.write_text(GOLDEN_SYNTHESIS["[1, 0]"][1])
    for argv in (["check"], ["synthesize"],
                 ["simulate", "--schedule", str(schedule), "--seed", "1",
                  "--trials", "100", "--horizon", "200"]):
        assert main([argv[0], str(broken), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: 1 validation error(s):\n  %s:19: plants[0]: noise "
                                  "covariance not positive semidefinite (pivot -2.500e-01)\n"
                              % broken)
    assert [p.name for p in outdir.iterdir()] == ["cell.schedule.json"]


def test_singular_lyapunov_equation_is_a_located_error(scenario_path, tmp_path_factory,
                                                       capsys):
    # a double eigenvalue of 1 - 1e-8: the plant is stable, but numpy's solve
    # of the Lyapunov equation used to end in the unlocated "error: Singular matrix"
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("singular") / "assembly_cell.yaml"
    broken.write_text(text.replace("    a_closed: [[-0.1, -0.1], [0.1, 0.2]]\n",
                                   "    a_closed: [[0.0, 1.0], [-0.9999999800000001, "
                                   "1.99999998]]\n"))
    assert broken.read_text() != text
    assert main(["thresholds", str(broken)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 1 validation error(s):\n  %s:19: plants[0].quality_weight: "
                   "Lyapunov equation is singular in float64 at spectral radius "
                   "0.99999999: Singular matrix\n" % broken)


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


def test_check_rejects_misspelt_optional_keys(scenario_path, outdir, tmp_path_factory,
                                             capsys):
    # both used to be ignored: the computed thresholds applied and the arm
    # kept an identity noise covariance
    text = scenario_path.read_text()
    broken = tmp_path_factory.mktemp("keys") / "assembly_cell.yaml"
    broken.write_text(text.replace("thresholds_override:", "thresholds_overide:").replace(
        "    noise_cov: identity\n", "    noise_covariance: [[4.0, 0], [0, 4.0]]\n"))
    assert main(["check", str(broken)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r":\d+: top level: unknown key 'thresholds_overide'", err)
    assert re.search(r":\d+: plants\[0\]: unknown key 'noise_covariance'", err)


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

    for bad in ("1/0", "abc"):
        assert main(["check", str(scenario_path), "--s-override", bad + ",0.1"]) == 1
        _, err = capsys.readouterr()
        assert "error: --s-override value '%s' is not a number" % bad in err


@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_empty_override_is_rejected(scenario_path, outdir, command, capsys):
    # an empty --s-override gives no values, so it must not fall back to the
    # document's thresholds_override
    assert main([command, str(scenario_path), "--s-override", ""]) == 1
    out, err = capsys.readouterr()
    assert "error: --s-override needs 2 comma-separated values" in err
    assert "[override]" not in out


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


MEASURED_WARNING = ("warning: measured success table overrides derived value at link 2, "
                    "state 5: measured 0.1 vs derived 0.075\n")
NO_IMPROVEMENT = "closed loop does not strictly improve on open loop in Q-metric"
BUNDLED_OVERRIDE = ("  link 1 (arm): s = 29/100 (= 0.29)  [override]\n"
                    "  link 2 (conveyor): s = 1/10 (= 0.1)  [override]\n")
CYCLE_4256 = ("optimal cycle: 4 -> 2 -> 5 -> 6 -> 4\n"
              "mean cycle weight: 24\n"
              "long-run average cost per fast step: 3/5 (= 0.6)\n"
              "prefix: (start state lies on the cycle)\n"
              "schedule head (inputs, slow steps 0..11): 7 7 4 7 7 7 4 7 7 7 4 7\n"
              "trajectory head (states, slow steps 0..11): 4 2 5 6 4 2 5 6 4 2 5 6\n")
CYCLE_426 = ("optimal cycle: 4 -> 2 -> 6 -> 4\n"
             "mean cycle weight: 26\n"
             "long-run average cost per fast step: 13/20 (= 0.65)\n"
             "prefix: (start state lies on the cycle)\n"
             "schedule head (inputs, slow steps 0..11): 7 8 7 7 8 7 7 8 7 7 8 7\n"
             "trajectory head (states, slow steps 0..11): 4 2 6 4 2 6 4 2 6 4 2 6\n")
NO_SCHEDULE = "no schedule exists for these thresholds\n"


def _below(link, s, computed):
    return ("warning: %s: threshold override %s is below the computed threshold %s; "
            "the decay bound is not certified\n" % (link, s, computed))


@pytest.mark.parametrize("uncomputable, override, flags, status, thresholds, usable, "
                         "synthesis, warned", [
    (False, True, [], 0, BUNDLED_OVERRIDE, "[2, 4, 5, 6]", CYCLE_4256,
     _below("link 2 (conveyor)", "0.1", "0.104166667")),
    (False, True, ["--s-override", "0.3,0.2"], 2,
     "  link 1 (arm): s = 3/10 (= 0.3)  [override]\n"
     "  link 2 (conveyor): s = 1/5 (= 0.2)  [override]\n", "[]", NO_SCHEDULE, ""),
    (False, True, ["--s-override", "0.2,0.05"], 0,
     "  link 1 (arm): s = 1/5 (= 0.2)  [override]\n"
     "  link 2 (conveyor): s = 1/20 (= 0.05)  [override]\n", "[2, 4, 5, 6]", CYCLE_4256,
     _below("link 1 (arm)", "0.2", "0.2893770859")
     + _below("link 2 (conveyor)", "0.05", "0.104166667")),
    (False, True, ["--s-override", "0.9,0.9"], 2,
     "  link 1 (arm): s = 9/10 (= 0.9)  [override]\n"
     "  link 2 (conveyor): s = 9/10 (= 0.9)  [override]\n", "[]", NO_SCHEDULE, ""),
    (False, False, [], 0,
     "  link 1 (arm): s = 0.2893770859\n"
     "  link 2 (conveyor): s = 0.104166667\n", "[2, 4, 6]", CYCLE_426, ""),
    (True, True, [], 0, BUNDLED_OVERRIDE, "[2, 4, 5, 6]", CYCLE_4256,
     "warning: link 2 (conveyor): threshold override 0.1 is uncertified: no computed "
     "threshold (%s)\n" % NO_IMPROVEMENT),
    (True, False, [], 1, None, None, None,
     "error: link 2 (conveyor): %s\n" % NO_IMPROVEMENT),
], ids=["bundled_override", "override_0.3_0.2", "override_0.2_0.05", "override_0.9_0.9",
        "computed", "uncomputable_with_override", "uncomputable"])
def test_check_and_synthesize_for_every_threshold_source(
        scenario_path, outdir, tmp_path_factory, capsys, uncomputable, override, flags,
        status, thresholds, usable, synthesis, warned):
    # the exact stdout, stderr and exit status of both commands for each
    # source of thresholds: the document's override, --s-override, the
    # computed values, and a conveyor whose threshold cannot be computed
    text = scenario_path.read_text()
    if uncomputable:
        text = text.replace("    a_closed: 0.2\n    a_open: 1.0\n",
                            "    a_closed: 1.0\n    a_open: 0.2\n")
    if not override:
        text = text.replace("thresholds_override: [0.29, 0.10]\n", "")
    cell = tmp_path_factory.mktemp("source") / "assembly_cell.yaml"
    cell.write_text(text)
    assert ("a_closed: 1.0\n" in text) == uncomputable
    assert ("thresholds_override" in text) == override
    for command, title in (("check", "feasibility check"),
                           ("synthesize", "schedule synthesis")):
        assert main([command, str(cell), *flags]) == status
        out, err = capsys.readouterr()
        if thresholds is None:
            assert (out, err) == ("", MEASURED_WARNING + warned)
            continue
        analysis = ("%s for %s\n" % (title, cell)
                    + "links: 2, agent states: 9, admissible: 6\nthresholds:\n"
                    + thresholds
                    + "performance region: %s\n" % usable
                    + "invariant core:     %s\n" % usable
                    + "reachable from 4:   [1, 2, 3, 4, 5, 6] (max depth 3)\n"
                    + "feasible: %s, usable states: %s\n"
                    % ("no" if usable == "[]" else "yes", usable))
        if command == "check":
            assert (out, err) == (analysis, MEASURED_WARNING + warned)
            continue
        assert out == analysis + synthesis
        artifacts = ("artifacts: assembly_cell.report.txt, assembly_cell.schedule.json "
                     "in %s\n" % outdir) if status == 0 else ""
        assert err == MEASURED_WARNING + warned + artifacts
    written = sorted(p.name for p in outdir.iterdir())
    assert written == (["assembly_cell.report.txt", "assembly_cell.schedule.json"]
                       if status == 0 else [])


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


@pytest.mark.parametrize("start", sorted(GOLDEN_SYNTHESIS))
def test_synthesize_golden_artifacts(scenario_path, outdir, tmp_path_factory, capsys,
                                     start):
    text = scenario_path.read_text()
    cell = tmp_path_factory.mktemp("start") / "assembly_cell.yaml"
    cell.write_text(text.replace("  initial_state: [1, 0]", "  initial_state: " + start))
    assert ("initial_state: %s " % start) in cell.read_text()
    assert main(["synthesize", str(cell)]) == 0
    report = (outdir / "assembly_cell.report.txt").read_text()
    assert report.startswith("schedule synthesis for %s\n" % cell)
    assert capsys.readouterr().out == report
    report_sha256, schedule_json = GOLDEN_SYNTHESIS[start]
    assert hashlib.sha256(report.split("\n", 1)[1].encode()).hexdigest() == report_sha256
    assert (outdir / "assembly_cell.schedule.json").read_text() == schedule_json


def test_synthesize_dot_export(scenario_path, outdir, capsys):
    rc, _ = _synth(scenario_path, outdir, "--dot", "graph.dot")
    assert rc == 0
    dot = (outdir / "graph.dot").read_text()
    assert dot.startswith("digraph")
    assert "color=red" in dot
    capsys.readouterr()


@pytest.mark.parametrize("tau, mean, cost, dot", [
    (40, r"\d+", r"\d+/40", r"\d+"),
    (3, r"\d+/40", r"\d+/120", r"\d+/\d+"),
])
def test_synthesize_prints_exact_numbers_past_float64_range(scenario_path, outdir,
                                                            tmp_path_factory, capsys,
                                                            tau, mean, cost, dot):
    # every price is 10^300 times the bundled one, so a fraction among the
    # cycle means and edge weights has no float64 image: it prints alone
    # instead of ending in an OverflowError
    text = scenario_path.read_text()
    costs = [8, 10, 12, 14, 20, 14, 10, 18, 16]
    big = tmp_path_factory.mktemp("e300") / "assembly_cell.yaml"
    big.write_text(text.replace("  input_weight: 1\n", "  input_weight: 1.0e+300\n")
                   .replace("input_costs: %s" % costs, "input_costs: [%s]"
                            % ", ".join("%d.0e+300" % c for c in costs))
                   .replace("fast_steps_per_slow: 40\n", "fast_steps_per_slow: %d\n" % tau))
    assert big.read_text().count("e+300") == 10
    assert main(["synthesize", str(big), "--dot", "graph.dot"]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert re.search(r"\nmean cycle weight: %s\n" % mean, out)
    assert re.search(r"\nlong-run average cost per fast step: %s\n" % cost, out)
    labels = re.findall(r'label="w=([^,]*), ', (outdir / "graph.dot").read_text())
    assert len(labels) == 9 and all(re.fullmatch(dot, w) for w in labels)


PAST_RANGE_INT = "1" + "0" * 400  # float64's image of it is inf


@pytest.mark.parametrize("old, new, message", [
    ("    a_closed: 0.2\n", "    a_closed: %s\n" % PAST_RANGE_INT,
     r":26: plants\[1\]\.a_closed: must be a finite number, got inf\n"),
    ("initial_plant_states: [[1.0, 1.0], [1.0]]",
     "initial_plant_states: [[1.0, 1.0], [%s]]" % PAST_RANGE_INT,
     r":72: simulation\.initial_plant_states\[1\]\[0\]: must be a finite number, got inf\n"),
    ("    decay_rate: 0.9\n", "    decay_rate: %s\n" % PAST_RANGE_INT,
     r":26: plants\[1\]\.decay_rate: must be a finite number, got inf\n"),
    ("  input_weight: 1\n", "  input_weight: %s\n" % PAST_RANGE_INT,
     r":66: cost\.input_weight: must be a finite number, got inf\n"),
    ("    power_price: 0.5\n", "    power_price: !!int abc\n",
     r"not valid YAML: cannot read 'abc' as a number: .*\n.*line 32, column 18\n"),
    ("    power_price: 0.5\n", "    power_price: !!bool maybe\n",
     r"not valid YAML: cannot read 'maybe' as a boolean\n.*line 32, column 18\n"),
    ("    power_price: 0.5\n", "    power_price: !!timestamp x\n",
     r"not valid YAML: cannot read 'x' as a timestamp\n.*line 32, column 18\n"),
], ids=["a_closed", "initial_plant_states", "decay_rate", "input_weight", "junk_int",
        "junk_bool", "junk_timestamp"])
def test_integers_without_a_float64_image_are_located_errors(scenario_path, outdir,
                                                            tmp_path_factory, capsys,
                                                            old, new, message):
    # each used to end in a traceback, or pass check and then end in one
    broken = tmp_path_factory.mktemp("int") / "assembly_cell.yaml"
    broken.write_text(scenario_path.read_text().replace(old, new))
    assert main(["synthesize", str(broken)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert re.search(message, err)
    assert list(outdir.iterdir()) == []


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


def test_synthesize_state_without_fading_row_is_an_error(scenario_path, outdir,
                                                       tmp_path_factory, capsys):
    # the measured table covers state 5, so the region is defined, but the
    # radio power of state 5, which the schedule may visit, is not
    text = scenario_path.read_text()
    row = text[text.index("    5: {decode"):text.index("    6: {decode")]
    cut = tmp_path_factory.mktemp("row5") / "assembly_cell.yaml"
    cut.write_text(text.replace(row, ""))
    assert main(["check", str(cut)]) == 0
    capsys.readouterr()
    assert main(["synthesize", str(cut)]) == 1
    _, err = capsys.readouterr()
    assert _one_error(err) == (
        "error: expected radio power undefined at state 5: no fading row covers it")
    assert list(outdir.iterdir()) == []


def test_synthesize_dot_in_a_missing_directory_is_an_error(scenario_path, outdir, capsys):
    rc, _ = _synth(scenario_path, outdir, "--dot", "nodir/g.dot")
    assert rc == 1
    _, err = capsys.readouterr()
    assert _one_error(err).startswith("error: cannot write %s: " % (outdir / "nodir" / "g.dot"))
    # the report and the schedule used to be left behind
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("target", ["report", "schedule", "scenario", "scenario_relative"])
def test_synthesize_dot_naming_the_scenario_or_an_artifact_is_refused(
        scenario_path, outdir, tmp_path_factory, capsys, target):
    # the DOT graph used to replace the report, the schedule or the scenario
    cell = tmp_path_factory.mktemp("cell") / "assembly_cell.yaml"
    text = scenario_path.read_text()
    cell.write_text(text)
    dot = {"report": "assembly_cell.report.txt",
           "schedule": "./assembly_cell.schedule.json",
           "scenario": str(cell),
           "scenario_relative": os.path.relpath(cell, outdir)}[target]
    assert main(["synthesize", str(cell), "--dot", dot]) == 1
    _, err = capsys.readouterr()
    assert _one_error(err) == "error: --dot %s names the scenario or another artifact" % dot
    assert list(outdir.iterdir()) == []
    assert cell.read_text() == text


def test_simulate_that_cannot_write_one_artifact_writes_none(scenario_path, outdir, capsys):
    _, schedule_path = _synth(scenario_path, outdir)
    blocker = outdir / "assembly_cell.simreport.txt"
    blocker.mkdir()
    before = sorted(outdir.iterdir())
    capsys.readouterr()
    assert _simulate(scenario_path, outdir, schedule_path, seed=1, trials=4, horizon=40) == 1
    _, err = capsys.readouterr()
    assert _one_error(err) == "error: cannot write %s: Is a directory" % blocker
    # the trace used to be written before the report failed
    assert sorted(outdir.iterdir()) == before


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_outdir_naming_a_file_is_an_error(scenario_path, tmp_path, monkeypatch, capsys,
                                          command):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(GOLDEN_SYNTHESIS["[1, 0]"][1])
    blocker = tmp_path / "out"
    blocker.write_text("")
    monkeypatch.setenv(OUTDIR_ENV, str(blocker))
    argv = {"synthesize": [],
            "simulate": ["--schedule", str(schedule), "--seed", "1", "--trials", "4",
                         "--horizon", "40"]}[command]
    assert main([command, str(scenario_path), *argv]) == 1
    _, err = capsys.readouterr()
    assert _one_error(err).startswith("error: cannot write %s: " % blocker)
    assert blocker.read_text() == ""


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


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
def test_simulate_golden_digest_on_prescott_kernel(scenario_path, tmp_path):
    # OpenBLAS's Prescott kernels have no FMA, so a plant step through BLAS
    # would round differently there; the golden run's trace must not
    env = _child_env(OPENBLAS_CORETYPE="Prescott", **{OUTDIR_ENV: str(tmp_path)})
    schedule = tmp_path / "assembly_cell.schedule.json"
    for argv in (["synthesize", str(scenario_path)],
                 ["simulate", str(scenario_path), "--schedule", str(schedule),
                  "--seed", "7", "--trials", "100", "--horizon", "400"]):
        subprocess.run([sys.executable, "-m", "fadectrl.cli", *argv], env=env,
                       check=True, capture_output=True)
    digest = hashlib.sha256((tmp_path / "assembly_cell.trace.csv").read_bytes())
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256


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


@pytest.mark.parametrize("tau", [10 ** 12, 10 ** 30], ids=["1e12", "1e30"])
def test_simulate_with_a_huge_slow_step(scenario_path, outdir, tmp_path_factory, capsys,
                                        tau):
    # the slow-step index of each fast step used to come from tau copies
    # per slow step, a 7.28 TiB allocation for a 400-step run at 10^12;
    # 10^30 does not fit numpy's 64-bit integers at all
    text = scenario_path.read_text()
    slow = tmp_path_factory.mktemp("tau") / "assembly_cell.yaml"
    slow.write_text(text.replace("fast_steps_per_slow: 40\n",
                                 "fast_steps_per_slow: %d\n" % tau))
    rc, schedule_path = _synth(slow, outdir)
    assert rc == 0
    assert _simulate(slow, outdir, schedule_path, 1, trials=100, horizon=400) == 0
    out, err = capsys.readouterr()
    assert "error:" not in err
    rows = (outdir / "assembly_cell.trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 400
    assert {row.split(",")[1] for row in rows} == {"0"}  # slow step k
    # all 400 steps sit in slow step 0: the power expectation at the start
    # state every step, plus the first input's cost once
    scn = load_scenario(slow)
    schedule = json.loads(schedule_path.read_text())
    u0 = (schedule["prefix_inputs"] + schedule["cycle_inputs"])[0]
    exact = (expected_power(scn, scn.alpha0)
             + scn.cost.lam * scn.cost.input_cost(scn.alpha0, u0) / 400)
    assert float(rows[-1].split(",")[-1]) == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert "final running average cost: %.10g\n" % float(exact) in out


def test_simulate_too_large_to_allocate_is_an_error(scenario_path, outdir, capsys):
    # 10^9 trials: one block's state buffer of the arm, 9 steps x 2 dims
    # of doubles per trial, is 144 GB and cannot be allocated.  The child's
    # address space is capped at 4 GiB, so the request fails at once,
    # without touching memory, whatever the machine's overcommit policy
    _, schedule_path = _synth(scenario_path, outdir)
    capsys.readouterr()
    src = str(Path(fadectrl.__file__).resolve().parents[1])
    env = dict(os.environ, **{OUTDIR_ENV: str(outdir)})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
            "from fadectrl.cli import main; sys.exit(main(sys.argv[1:]))")
    run = subprocess.run(
        [sys.executable, "-c", code, "simulate", str(scenario_path),
         "--schedule", str(schedule_path), "--seed", "1",
         "--trials", "1000000000", "--horizon", "1000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert re.search(r"\nerror: Unable to allocate .* for an array\b", run.stderr)
    assert sorted(p.name for p in outdir.iterdir()) == ["assembly_cell.report.txt",
                                                          "assembly_cell.schedule.json"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_simulate_worker_killed_by_a_signal_is_an_error(scenario_path, outdir, capsys,
                                                        monkeypatch):
    # the kernel's OOM killer ends a process with SIGKILL, leaving no reply:
    # one error line naming the signal, no traceback, no artifact, no child
    _, schedule_path = _synth(scenario_path, outdir)
    capsys.readouterr()
    rollout, parent = cosim._rollout, os.getpid()

    def killed_in_worker(seed, i, *args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return rollout(seed, i, *args)

    monkeypatch.setattr(cosim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cosim, "_rollout", killed_in_worker)
    assert _simulate(scenario_path, outdir, schedule_path, seed=1) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error(err) == ("error: co-simulation worker ended with signal %d "
                               "before it replied" % signal.SIGKILL)
    assert sorted(p.name for p in outdir.iterdir()) == ["assembly_cell.report.txt",
                                                          "assembly_cell.schedule.json"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        ('{"cycle_inputs": [], "alpha0": 4}', "'cycle_inputs' must not be empty"),
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


def test_simulate_names_an_undecodable_schedule(scenario_path, outdir, capsys):
    bad = outdir / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + GOLDEN_SYNTHESIS["[1, 0]"][1].encode())
    assert _simulate(scenario_path, outdir, bad, seed=1) == 1
    _, err = capsys.readouterr()
    assert _one_error(err).startswith("error: cannot read schedule %s: 'utf-8' codec" % bad)


# ── Group 5: usage errors ────────────────────────────────────────────────────

def test_missing_scenario_file(outdir, capsys):
    assert main(["thresholds", str(outdir / "absent.yaml")]) == 1
    _, err = capsys.readouterr()
    assert "cannot read scenario" in err


def test_undecodable_scenario_file_is_named(scenario_path, outdir, capsys):
    bad = outdir / "utf16.yaml"
    bad.write_bytes(b"\xff\xfe" + scenario_path.read_bytes())
    assert main(["thresholds", str(bad)]) == 1
    _, err = capsys.readouterr()
    assert _one_error(err).startswith("error: cannot read scenario %s: 'utf-8' codec" % bad)


def test_unknown_subcommand(outdir, capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


# ── Group 6: the process around main ─────────────────────────────────────────

@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_a_closed_stdout_is_exit_1_without_a_traceback_or_an_artifact(
        scenario_path, outdir, tmp_path_factory, capsys, command, buffered):
    # a reader such as `head -c 100` that closes the pipe early: buffered, the
    # report fails at the exit-time flush; unbuffered, at its print
    assert main([command, str(scenario_path)]) == 0
    err = capsys.readouterr().err.splitlines(keepends=True)
    child_outdir = tmp_path_factory.mktemp("closed_stdout")
    env = _child_env(**{OUTDIR_ENV: str(child_outdir)})
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "fadectrl.cli", command, str(scenario_path)],
                             stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=120)
    finally:
        os.close(write)
    assert run.returncode == 1
    assert run.stderr == "".join(line for line in err if not line.startswith("artifacts:"))
    assert list(child_outdir.iterdir()) == []


def test_a_process_started_without_stdout_runs_as_before(scenario_path, tmp_path):
    # with fd 1 closed, Python sets sys.stdout to None and print writes nothing
    run = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                          "fadectrl.cli", "synthesize", str(scenario_path)],
                         stderr=subprocess.PIPE, text=True, timeout=120,
                         env=_child_env(**{OUTDIR_ENV: str(tmp_path)}))
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["assembly_cell.report.txt",
                                                           "assembly_cell.schedule.json"]


def _loaded_modules(argv, env) -> set:
    """The fadectrl modules a `python -m fadectrl.cli` child imports."""
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "fadectrl.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return set(re.findall(r"^import time:.*\|\s*(fadectrl(?:\.\w+)*)$", run.stderr, re.M))


def test_each_command_loads_only_the_stages_it_runs(scenario_path, tmp_path):
    schedule = tmp_path / "assembly_cell.schedule.json"
    schedule.write_text(GOLDEN_SYNTHESIS["[1, 0]"][1])
    env = _child_env(**{OUTDIR_ENV: str(tmp_path)})
    loading = {"fadectrl", "fadectrl.channel", "fadectrl.errors", "fadectrl.mas",
               "fadectrl.scenario", "fadectrl.stabilization", "fadectrl.wcs"}
    assert _loaded_modules(["thresholds", str(scenario_path)], env) == loading
    assert _loaded_modules(["simulate", str(scenario_path), "--schedule", str(schedule),
                            "--seed", "1", "--trials", "4", "--horizon", "40"],
                           env) == loading | {"fadectrl.cosim"}


# reports, from an atexit hook, whether anything is frozen when teardown begins
_RUN_IN_A_CHILD = """
import atexit, gc, sys
from fadectrl.cli import run
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags, status", [([], 0), (["--s-override", "0.99,0.99"], 2),
                                           (["--s-override", "x,y"], 1)])
def test_run_freezes_the_heap_for_teardown_and_keeps_the_exit_status(
        scenario_path, outdir, capsys, flags, status):
    argv = ["check", str(scenario_path), *flags]
    frozen = gc.get_freeze_count()
    assert main(argv) == status
    assert gc.get_freeze_count() == frozen  # main keeps nothing frozen
    capsys.readouterr()
    run = subprocess.run([sys.executable, "-c", _RUN_IN_A_CHILD, *argv], capture_output=True,
                         text=True, env=_child_env(), timeout=120)
    assert run.returncode == status, run.stderr
    assert run.stderr.splitlines()[-1] == "frozen: True"
