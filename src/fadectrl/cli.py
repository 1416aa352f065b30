"""Command-line front end.

Subcommands:
  thresholds  per-plant delivery-probability thresholds
  check       performance region, invariant core, reachability, verdict
  synthesize  optimal schedule (writes report, schedule JSON, optional DOT)
  simulate    Monte-Carlo rollout under a schedule (writes CSV trace)

Artifacts land in the directory named by FADECTRL_OUTDIR (default: the
current directory).  Exit status: 0 on success, 2 when the scenario is
infeasible for the requested thresholds, 1 on any input or usage error.
Scenarios that fail validation produce no artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .cosim import (
    Schedule,
    SimConfig,
    empirical_lyapunov_check,
    simulate,
    write_trace_csv,
)
from .errors import Infeasible, ParseError, ToolkitError
from .scenario import Scenario, load_scenario
from .stabilization import Stabilization, stabilize
from .synthesis import SynthesisResult, synthesize, to_dot
from .wcs import decay_threshold

OUTDIR_ENV = "FADECTRL_OUTDIR"


def create_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadectrl",
        description="Schedule mobile agents so every wireless control loop "
        "keeps its expected decay guarantee at minimum long-run cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="compute per-plant delivery thresholds")
    p.add_argument("scenario", help="scenario YAML file")

    p = sub.add_parser("check", help="region/invariance/reachability feasibility check")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--s-override", metavar="P1,P2,...",
                   help="comma-separated per-link thresholds to use instead "
                   "of the computed ones")

    p = sub.add_parser("synthesize", help="synthesize the optimal schedule")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--s-override", metavar="P1,P2,...",
                   help="comma-separated per-link thresholds to use instead "
                   "of the computed ones")
    p.add_argument("--dot", metavar="FILE",
                   help="also write the restricted transition graph as DOT")

    p = sub.add_parser("simulate", help="Monte-Carlo co-simulation under a schedule")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--schedule", required=True, help="schedule JSON from 'synthesize'")
    p.add_argument("--seed", required=True, type=int, help="64-bit RNG seed")
    p.add_argument("--trials", required=True, type=int, help="Monte-Carlo trials")
    p.add_argument("--horizon", required=True, type=int, help="fast steps to simulate")

    return parser


def _outdir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV, "."))


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return "%s (= %.10g)" % (x, float(x))
    xf = float(x)
    if xf.is_integer():
        return str(int(xf))
    return "%.10g" % xf


def _states(seq) -> str:
    return "[" + ", ".join(str(a) for a in sorted(seq)) + "]"


def _warn(message: str):
    print("warning: %s" % message, file=sys.stderr)


def _emit_warnings(scn: Scenario):
    for w in scn.warnings:
        _warn(w)


def _label(plant) -> str:
    return " (%s)" % plant.name if plant.name else ""


def _thresholds(scn: Scenario, override_arg):
    """(per-plant computed thresholds or None, effective thresholds).

    An override below its link's computed threshold, or on a plant whose
    threshold cannot be computed, is used as given with a warning: the
    decay bound is not certified for that link.
    """
    override = None
    if override_arg:
        parts = [p for p in override_arg.split(",") if p.strip()]
        if len(parts) != scn.wcs.link_count:
            raise ParseError(
                "--s-override needs %d comma-separated values" % scn.wcs.link_count
            )
        override = tuple(Fraction(p.strip()) for p in parts)
        if any(not 0 <= s <= 1 for s in override):
            raise ParseError("--s-override values must lie in [0, 1]")
    elif scn.s_override is not None:
        override = scn.s_override
    if override is None:
        computed = tuple(decay_threshold(p) for p in scn.wcs.plants)
        return computed, computed
    for i, (plant, s) in enumerate(zip(scn.wcs.plants, override)):
        link = "link %d%s: threshold override %.10g" % (i + 1, _label(plant), s)
        try:
            certified = decay_threshold(plant)
        except ToolkitError as e:
            _warn("%s is uncertified: no computed threshold (%s)" % (link, e))
            continue
        if s < certified:
            _warn("%s is below the computed threshold %.10g; the decay bound "
                  "is not certified" % (link, certified))
    return None, override


def cmd_thresholds(args) -> int:
    scn = load_scenario(args.scenario)
    _emit_warnings(scn)
    print("delivery-probability thresholds for %s" % args.scenario)
    for i, plant in enumerate(scn.wcs.plants):
        s = decay_threshold(plant)
        print("  link %d%s: s = %.10g   [decay rate %.6g]"
              % (i + 1, _label(plant), s, float(plant.rho)))
    return 0


def _analysis_report(scn, computed, effective, stab: Stabilization) -> list:
    lines = []
    lines.append("links: %d, agent states: %d, admissible: %d"
                 % (scn.wcs.link_count, scn.mas.state_count, len(scn.constraints.state_set)))
    lines.append("thresholds:")
    tag = "  [override]" if computed is None else ""
    for i, plant in enumerate(scn.wcs.plants):
        lines.append("  link %d%s: s = %s%s" % (i + 1, _label(plant), _fmt(effective[i]), tag))
    lines.append("performance region: %s" % _states(stab.region.omega))
    lines.append("invariant core:     %s" % _states(stab.invariant))
    lines.append("reachable from %d:   %s (max depth %d)"
                 % (scn.alpha0, _states(stab.layers.union), len(stab.layers.layers) - 1))
    lines.append("feasible: %s, usable states: %s"
                 % ("yes" if stab.feasible else "no", _states(stab.phi)))
    return lines


def cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    _emit_warnings(scn)
    computed, effective = _thresholds(scn, args.s_override)
    stab = stabilize(scn, effective)
    print("feasibility check for %s" % args.scenario)
    for line in _analysis_report(scn, computed, effective, stab):
        print(line)
    return 0 if stab.feasible else 2


def _synthesis_report(scn, result: SynthesisResult, head: int = 12) -> list:
    lines = []
    cyc = " -> ".join(str(a) for a in result.cycle_states)
    lines.append("optimal cycle: %s" % cyc)
    lines.append("mean cycle weight: %s" % _fmt(result.mean_weight))
    lines.append("long-run average cost per fast step: %s" % _fmt(result.optimal_cost))
    if result.prefix_states:
        lines.append("prefix states: %s" % " -> ".join(str(a) for a in result.prefix_states))
        lines.append("prefix inputs: %s" % " ".join(str(u) for u in result.prefix_inputs))
    else:
        lines.append("prefix: (start state lies on the cycle)")
    lines.append("schedule head (inputs, slow steps 0..%d): %s"
                 % (head - 1, " ".join(str(u) for u in result.schedule(head))))
    lines.append("trajectory head (states, slow steps 0..%d): %s"
                 % (head - 1, " ".join(str(a) for a in result.trajectory(head))))
    return lines


def cmd_synthesize(args) -> int:
    scn = load_scenario(args.scenario)
    _emit_warnings(scn)
    computed, effective = _thresholds(scn, args.s_override)
    stab = stabilize(scn, effective)
    report = ["schedule synthesis for %s" % args.scenario]
    report += _analysis_report(scn, computed, effective, stab)
    if not stab.feasible:
        report.append("no schedule exists for these thresholds")
        print("\n".join(report))
        return 2
    result = synthesize(scn, stab)
    report += _synthesis_report(scn, result)
    text = "\n".join(report) + "\n"
    print(text, end="")

    outdir = _outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    (outdir / (stem + ".report.txt")).write_text(text)
    schedule = Schedule.from_synthesis(result)
    with open(outdir / (stem + ".schedule.json"), "w") as fh:
        json.dump(schedule.to_dict(), fh, indent=2)
        fh.write("\n")
    if args.dot:
        dot_path = Path(args.dot)
        if not dot_path.is_absolute():
            dot_path = outdir / dot_path
        dot_path.write_text(
            to_dot(result.graph, scn.mas.state_count, result.cycle_states)
        )
    print("artifacts: %s.report.txt, %s.schedule.json%s in %s"
          % (stem, stem, (", " + args.dot) if args.dot else "", outdir),
          file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    _emit_warnings(scn)
    try:
        with open(args.schedule) as fh:
            schedule = Schedule.from_dict(json.load(fh))
    except OSError as e:
        raise ParseError("cannot read schedule %s: %s" % (args.schedule, e)) from e
    except (json.JSONDecodeError, ParseError) as e:
        raise ParseError("schedule %s is not valid: %s" % (args.schedule, e)) from e
    config = SimConfig(horizon_fast=args.horizon, trials=args.trials,
                       seed=args.seed, x0=scn.x0)
    trace = simulate(scn, schedule, config)

    report = ["co-simulation of %s" % args.scenario]
    report.append("seed %d, trials %d, horizon %d fast steps (tau = %d)"
                  % (args.seed, args.trials, args.horizon, trace.tau))
    report.append("final running average cost: %.10g" % trace.running_cost[-1])
    if args.trials < 100:
        report.append("decay check skipped (needs >= 100 trials)")
    elif trace.entry_fast >= args.horizon:
        report.append("decay check skipped (horizon %d ends at or before the cycle "
                      "entry at fast step %d)" % (args.horizon, trace.entry_fast))
    else:
        check = empirical_lyapunov_check(trace)
        for pc in check.plants:
            name = scn.wcs.plants[pc.plant].name or "plant %d" % (pc.plant + 1)
            report.append(
                "decay check %s: %s (worst margin %.4g at fast step %d)"
                % (name, "PASS" if pc.passed else "FAIL", pc.worst_margin, pc.worst_step)
            )
        report.append("decay check overall: %s" % ("PASS" if check.passed else "FAIL"))
    text = "\n".join(report) + "\n"
    print(text, end="")

    outdir = _outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    with open(outdir / (stem + ".trace.csv"), "w", newline="") as fh:
        write_trace_csv(trace, fh)
    (outdir / (stem + ".simreport.txt")).write_text(text)
    print("artifacts: %s.trace.csv, %s.simreport.txt in %s" % (stem, stem, outdir),
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = create_parser().parse_args(argv)
    handlers = {
        "thresholds": cmd_thresholds,
        "check": cmd_check,
        "synthesize": cmd_synthesize,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except Infeasible as e:
        print("infeasible: %s" % e, file=sys.stderr)
        return 2
    except ToolkitError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
