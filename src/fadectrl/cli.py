"""Command-line front end.

Subcommands:
  thresholds  per-plant delivery-probability thresholds
  check       performance region, invariant core, reachability, verdict
  synthesize  optimal schedule (writes report, schedule JSON, optional DOT)
  simulate    Monte-Carlo rollout under a schedule (writes CSV trace)

Artifacts land in the directory named by FADECTRL_OUTDIR (default: the
current directory).  Exit status: 0 on success, 2 when the scenario is
infeasible for the requested thresholds, 1 on any input or usage error
(a run too large to allocate, or an artifact that cannot be written,
included), and 1 when stdout closes before the report is written.
A run that exits nonzero writes no artifact: a command writes all or none.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

# before numpy's first import (through `scenario`): OpenBLAS then starts no
# threads, which shortens every command's start-up, and no matrix here is
# large enough to gain from them; a count the user set stands
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import Infeasible, InsufficientTrials, ParseError, ToolkitError, ValueOutOfRange
from .scenario import load_scenario
from .stabilization import Stabilization, link_name, link_threshold, stabilize

OUTDIR_ENV = "FADECTRL_OUTDIR"
REPORT_HEAD = 12  # slow steps of schedule and trajectory the synthesis report lists


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, as any input error; argparse's 2 reads as infeasible
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def create_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fadectrl",
        description="Schedule mobile agents so every wireless control loop "
        "keeps its expected decay guarantee at minimum long-run cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, text in (
            ("thresholds", "compute per-plant delivery thresholds"),
            ("check", "region/invariance/reachability feasibility check"),
            ("synthesize", "synthesize the optimal schedule"),
            ("simulate", "Monte-Carlo co-simulation under a schedule")):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].add_argument("scenario", help="scenario YAML file")
    for name in ("check", "synthesize"):
        commands[name].add_argument(
            "--s-override", metavar="P1,P2,...",
            help="comma-separated per-link thresholds to use instead of the computed ones")

    p = commands["synthesize"]
    p.add_argument("--dot", metavar="FILE",
                   help="also write the restricted transition graph as DOT")

    p = commands["simulate"]
    p.add_argument("--schedule", required=True, help="schedule JSON from 'synthesize'")
    p.add_argument("--seed", required=True, type=int, help="64-bit RNG seed")
    p.add_argument("--trials", required=True, type=int, help="Monte-Carlo trials")
    p.add_argument("--horizon", required=True, type=int, help="fast steps to simulate")

    return parser


def _cannot_write(path, e: OSError) -> ToolkitError:
    return ToolkitError("cannot write %s: %s" % (path, e.strerror or e))


def _outdir() -> Path:
    """The artifact directory, created if missing."""
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _cannot_write(outdir, e) from e
    return outdir


def _write_artifacts(artifacts: dict):
    """Write every artifact or none.  Each path maps to its text or to a
    function that streams it to a file; each goes to a temporary file beside
    its path, and all are renamed into place once all are written."""
    temps = {}
    try:
        for path, content in artifacts.items():
            if path.is_dir():  # a rename onto it would fail after others landed
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temps[path] = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
            with open(temps[path], "w", newline="") as fh:
                if callable(content):
                    content(fh)
                else:
                    fh.write(content)
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as e:
        raise _cannot_write(path, e) from e
    finally:  # a temporary file is left only when something failed
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _fmt(x) -> str:
    """An exact number as its fraction and float; a computed threshold, a
    float in [0, 1], as its float."""
    if not isinstance(x, Fraction):
        return "%.10g" % x
    if x.denominator == 1:
        return str(x.numerator)
    exact = "%d/%d" % (x.numerator, x.denominator)
    try:
        return "%s (= %.10g)" % (exact, x)
    except OverflowError:  # its float64 image is past float64's range
        return exact


def _states(seq) -> str:
    return "[" + ", ".join(str(a) for a in sorted(seq)) + "]"


def _emit_warnings(warnings):
    for w in warnings:
        print("warning: %s" % w, file=sys.stderr)


def cmd_thresholds(args) -> int:
    scn = load_scenario(args.scenario)
    _emit_warnings(scn.warnings)
    print("delivery-probability thresholds for %s" % args.scenario)
    for i, plant in enumerate(scn.plants):
        print("  %s: s = %.10g   [decay rate %.6g]"
              % (link_name(plant, i), link_threshold(scn, i), float(plant.rho)))
    return 0


def _stabilized(args):
    """(scenario, stabilization) of check and synthesize, warnings printed.
    `stabilize` picks the thresholds; --s-override's values are read here."""
    scn = load_scenario(args.scenario)
    _emit_warnings(scn.warnings)
    override = None
    if args.s_override is not None:  # "" is a malformed override, not none
        parts = [p.strip() for p in args.s_override.split(",")]
        if len(parts) != len(scn.plants):
            raise ParseError("--s-override needs %d comma-separated values" % len(scn.plants))
        override = []
        for p in parts:
            try:
                override.append(Fraction(p))
            except (ValueError, ZeroDivisionError):
                raise ParseError("--s-override value %r is not a number" % p) from None
        if any(not 0 <= s <= 1 for s in override):
            raise ParseError("--s-override values must lie in [0, 1]")
    stab = stabilize(scn, override)
    _emit_warnings(stab.warnings)
    return scn, stab


def _analysis_report(title: str, args, scn, stab: Stabilization) -> list:
    lines = ["%s for %s" % (title, args.scenario),
             "links: %d, agent states: %d, admissible: %d"
             % (len(scn.plants), scn.mas.state_count, len(scn.constraints.state_set)),
             "thresholds:"]
    tag = "  [override]" if stab.overridden else ""
    for i, (plant, s) in enumerate(zip(scn.plants, stab.region.thresholds)):
        lines.append("  %s: s = %s%s" % (link_name(plant, i), _fmt(s), tag))
    lines.append("performance region: %s" % _states(stab.region.omega))
    lines.append("invariant core:     %s" % _states(stab.invariant))
    lines.append("reachable from %d:   %s (max depth %d)"
                 % (scn.alpha0, _states(stab.layers.union), len(stab.layers.layers) - 1))
    lines.append("feasible: %s, usable states: %s"
                 % ("yes" if stab.feasible else "no", _states(stab.phi)))
    return lines


def cmd_check(args) -> int:
    scn, stab = _stabilized(args)
    print("\n".join(_analysis_report("feasibility check", args, scn, stab)))
    return 0 if stab.feasible else 2


def _synthesis_report(scn, result) -> list:
    # imported here, not at the top: importing `mas` ahead of `scenario`
    # raised each CLI child's peak RSS by about 1 MB
    from .mas import _replay_slow

    states, inputs = _replay_slow(scn, result.schedule, REPORT_HEAD)
    lines = ["optimal cycle: %s" % " -> ".join(str(a) for a in result.cycle_states)]
    lines.append("mean cycle weight: %s" % _fmt(result.mean_weight))
    lines.append("long-run average cost per fast step: %s" % _fmt(result.optimal_cost))
    if result.prefix_states:
        lines.append("prefix states: %s" % " -> ".join(str(a) for a in result.prefix_states))
        lines.append("prefix inputs: %s"
                     % " ".join(str(u) for u in result.schedule.prefix_inputs))
    else:
        lines.append("prefix: (start state lies on the cycle)")
    lines.append("schedule head (inputs, slow steps 0..%d): %s"
                 % (REPORT_HEAD - 1, " ".join(str(u) for u in inputs)))
    lines.append("trajectory head (states, slow steps 0..%d): %s"
                 % (REPORT_HEAD - 1, " ".join(str(a) for a in states)))
    return lines


def cmd_synthesize(args) -> int:
    if args.dot == "":  # an empty name is a malformed --dot, not none
        raise ParseError("--dot needs a file name")
    scn, stab = _stabilized(args)
    report = _analysis_report("schedule synthesis", args, scn, stab)
    if not stab.feasible:
        report.append("no schedule exists for these thresholds")
        print("\n".join(report))
        return 2
    from .synthesis import synthesize, to_dot

    result = synthesize(scn, stab)
    report += _synthesis_report(scn, result)
    text = "\n".join(report) + "\n"
    print(text, end="", flush=True)  # a closed stdout fails here, before any artifact

    outdir = _outdir()
    stem = Path(args.scenario).stem
    artifacts = {outdir / (stem + ".report.txt"): text,
                 outdir / (stem + ".schedule.json"):
                     json.dumps(result.schedule.to_dict(), indent=2) + "\n"}
    if args.dot:  # an absolute --dot replaces outdir
        dot = outdir / args.dot
        if dot.resolve() in {p.resolve() for p in (Path(args.scenario), *artifacts)}:
            raise ParseError("--dot %s names the scenario or another artifact" % args.dot)
        artifacts[dot] = to_dot(result.graph, scn.mas.state_count, result.cycle_states)
    _write_artifacts(artifacts)
    print("artifacts: %s.report.txt, %s.schedule.json%s in %s"
          % (stem, stem, (", " + args.dot) if args.dot else "", outdir),
          file=sys.stderr)
    return 0


def _unique_keys(pairs) -> dict:
    """A JSON object's members, refusing a key given twice (json.load keeps
    the last one silently)."""
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError("schedule has a repeated key %r" % key)
        seen[key] = value
    return seen


def cmd_simulate(args) -> int:
    from .cosim import SimConfig, empirical_lyapunov_check, simulate, write_trace_csv
    from .mas import Schedule

    scn = load_scenario(args.scenario)
    _emit_warnings(scn.warnings)
    try:
        with open(args.schedule) as fh:
            schedule = Schedule.from_dict(json.load(fh, object_pairs_hook=_unique_keys))
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError("cannot read schedule %s: %s" % (args.schedule, e)) from e
    except (json.JSONDecodeError, ParseError) as e:
        raise ParseError("schedule %s is not valid: %s" % (args.schedule, e)) from e
    trace = simulate(scn, schedule,
                     SimConfig(horizon_fast=args.horizon, trials=args.trials, seed=args.seed))

    report = ["co-simulation of %s" % args.scenario]
    report.append("seed %d, trials %d, horizon %d fast steps (tau = %d)"
                  % (args.seed, args.trials, args.horizon, trace.tau))
    report.append("final running average cost: %.10g" % trace.running_cost[-1])
    try:
        check = empirical_lyapunov_check(trace)
    except (InsufficientTrials, ValueOutOfRange) as e:
        report.append("decay check skipped (%s)" % e)
    else:
        for pc in check.plants:
            name = scn.plants[pc.plant].name or "plant %d" % (pc.plant + 1)
            report.append(
                "decay check %s: %s (worst margin %.4g at fast step %d)"
                % (name, "PASS" if pc.passed else "FAIL", pc.worst_margin, pc.worst_step)
            )
        report.append("decay check overall: %s" % ("PASS" if check.passed else "FAIL"))
    text = "\n".join(report) + "\n"
    print(text, end="", flush=True)  # a closed stdout fails here, before any artifact

    outdir = _outdir()
    stem = Path(args.scenario).stem
    _write_artifacts({outdir / (stem + ".trace.csv"): lambda fh: write_trace_csv(trace, fh),
                      outdir / (stem + ".simreport.txt"): text})
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
    except (ToolkitError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's message names the allocation that failed
        print("error: %s" % (str(e) or "out of memory"), file=sys.stderr)
        return 1


def run(argv=None) -> int:
    """`main` for a process that ends when it returns: the `fadectrl`
    script and `python -m fadectrl.cli`.  A reader that closes stdout early
    gets exit status 1, with no traceback.  Every object left is then
    frozen out of the collector, so the interpreter's teardown collections
    skip the loaded modules; `main` itself keeps nothing frozen, since
    tests and the benchmark call it again and again."""
    try:
        status = main(argv)
        if sys.stdout is not None:  # None in a process started with no fd 1
            sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: stdout goes to devnull, so the
        # exit-time flush of what is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
