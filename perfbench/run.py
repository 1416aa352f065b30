"""Benchmark of the fadectrl CLI pipeline: thresholds -> synthesize -> simulate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With ``--trace 0`` each round runs the three CLI commands as child
processes, one at a time, with PYTHONPATH set to this tree's ``src``, and
reports the end-to-end metrics.  With ``--trace 1`` each round calls
``fadectrl.cli.main`` in-process with the same arguments, once untraced and
once with spans around the layers' public functions (see tracing.py), and
reports the per-layer metrics.  Rounds repeat until ``--seconds`` have
passed; times are means over rounds, scaled by a speed probe (see
REF_S).  Every CLI call's output is checked
(checks.py).  The last line of standard output is the result JSON; the
full record, with provenance, lands in ``.perfbench/<run>/result.json``
and a traced run's spans next to it in ``spans.json``.

Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
from genscenario import make_spec, to_yaml
from tracing import Tracer, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BUNDLED = Path("scenarios") / "assembly_cell.yaml"
PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())
MIN_ROUNDS = 3
# Times are averaged over all of a run's rounds: on a shared 2-core VM
# the machine's speed drifts by up to 40 % in phases of seconds, and the
# mean over the whole run cancels that drift better than a median of a few
# rounds does (measured IQR/median over 5 seeds: 0.08-0.13 against 0.12-0.19).
center = statistics.fmean
# The speed also drifts over minutes, by up to 2x, which no run of 40 s
# averages away: raw setup_s medians over ten seeds moved by 38 % between
# two sets of runs of the same code.  So times are scaled to a reference
# speed: a fixed piece of Python work like the program's (dict updates and
# Fraction sums) is timed after each child, and the run's mean child times
# are multiplied by REF_S over the mean of all the run's probes.  One probe
# is too short to track a single child (consecutive probes differ by 2x),
# but their mean tracks the run's speed: over two sets of ten seeds the
# largest IQR/median fell from 0.22 (raw) to 0.19, and the medians of the
# two sets agree within 9 %.
REF_LOOPS = 15_000
REF_S = 0.06  # the probe's median time on the 2-core VM the bounds were set on


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kappa: int          # 0: the bundled scenario; else a generated kappa^4 grid
    thresholds: tuple = ()
    healthy: int = 0    # generated states that clear both thresholds
    trials: int = 100
    horizon: int = 400


WORKLOADS = {w.name: w for w in (
    Workload("grid256_synth",
             "N=256, 200 of 204 admissible states healthy: Karp's min-mean cycle "
             "search does most of synthesize; loading is small",
             kappa=4, thresholds=("0.29", "0.10"), healthy=200),
    Workload("grid625_load",
             "N=625, ~115 sparse usable states: YAML parse and N^2 cost table dominate "
             "setup and synthesize; 100 trials x 4000 steps: per-step RNG keys dominate "
             "simulate",
             kappa=5, thresholds=("0.55", "0.45"), healthy=120, horizon=4000),
    Workload("cell_mc_wide",
             "bundled N=9 cell, 1000 trials x 2000 fast steps: trial-vectorized "
             "co-simulation bound by arithmetic and memory; load and synthesis trivial",
             kappa=0, trials=1000, horizon=2000),
)}

# end-to-end metric of each command's child process wall time
COMMANDS = {"thresholds": "setup_s", "synthesize": "synthesize_s",
            "simulate": "simulate_s"}
END_TO_END = {"setup_s": "s", "synthesize_s": "s", "simulate_s": "s",
              "peak_rss_mb": "MB"}
# per-layer metrics that are exact counts; the rest are times or ratios
COUNTS = {
    "scenario.yaml_bytes": "bytes", "scenario.cost_entries": "count",
    "mas.successor_calls": "count", "mas.one_step_reach_calls": "count",
    "channel.expected_power_calls": "count",
    "stabilization.n_states": "count", "stabilization.omega_size": "count",
    "stabilization.invariant_size": "count", "stabilization.phi_size": "count",
    "stabilization.reach_depth": "count", "synthesis.edges": "count",
    "synthesis.scc_count": "count", "synthesis.largest_scc": "count",
    "synthesis.karp_calls": "count", "synthesis.karp_relaxations": "count",
    "synthesis.cycle_len": "count", "synthesis.prefix_len": "count",
    "cosim.rng_calls": "count", "cosim.trace_bytes": "bytes",
    "cosim.csv_bytes": "bytes",
}
# per-layer self times: metric -> span name
SELF_TIMES = {
    "scenario.load_s": "scenario.load", "wcs.threshold_s": "wcs.threshold",
    "mas.successor_s": "mas.successor", "mas.one_step_reach_s": "mas.one_step_reach",
    "channel.expected_power_s": "channel.expected_power",
    "stabilization.omega_s": "stabilization.omega",
    "stabilization.invariant_s": "stabilization.invariant",
    "stabilization.reach_s": "stabilization.reach",
    "synthesis.build_graph_s": "synthesis.build_graph", "synthesis.scc_s": "synthesis.scc",
    "synthesis.karp_s": "synthesis.karp", "synthesis.self_s": "synthesis",
    "cosim.simulate_s": "cosim.simulate", "cosim.rng_s": "cosim.rng",
    "cosim.check_s": "cosim.check", "cosim.csv_s": "cosim.csv", "cli.self_s": "cli",
}
RATIOS = {"cosim.ns_per_trial_step": "ns", "trace.overhead_ratio": "ratio"}


class Refused(Exception):
    """The tree under test is not usable; no result is printed."""


def provenance(workload: Workload, seed: int) -> dict:
    """Where the numbers come from.  Refuses a fadectrl outside ./src."""
    init = SRC / "fadectrl" / "__init__.py"
    if not init.is_file():
        raise Refused("no fadectrl package at %s" % init)
    probe = ("import json, sys, numpy, yaml, fadectrl.cli, fadectrl; print(json.dumps("
             "{'fadectrl': fadectrl.__file__, 'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'pyyaml': yaml.__version__, "
             "'libyaml': yaml.__with_libyaml__}))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(WORK),
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise Refused("cannot import fadectrl from %s: %s" % (SRC, out.stderr.strip()))
    info = json.loads(out.stdout)
    if Path(info["fadectrl"]).resolve() != init.resolve():
        raise Refused("fadectrl resolves to %s, not %s" % (info["fadectrl"], init))
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    info.update(commit=commit, nproc=len(os.sched_getaffinity(0)),
                cpu_count=os.cpu_count(), workload=workload.name, seed=seed,
                why=workload.why)
    return info


def child_env(outdir: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), FADECTRL_OUTDIR=str(outdir))


class Case:
    """One workload at one seed: its input files, commands and checks."""

    def __init__(self, workload: Workload, seed: int, outdir: Path):
        self.workload, self.seed, self.outdir = workload, seed, outdir
        if workload.kappa:
            spec = make_spec(workload.kappa, seed, workload.thresholds, workload.healthy)
            self.scenario = outdir / ("%s.yaml" % workload.name)
            self.scenario.write_text(to_yaml(spec))
            self.pin_key = "%s/seed%d" % (workload.name, seed)
        else:
            self.scenario = ROOT / BUNDLED
            self.pin_key = BUNDLED.stem
        self.text = self.scenario.read_text()
        self.model = checks.load_model(self.text)
        stem = self.scenario.stem
        self.schedule = outdir / (stem + ".schedule.json")
        self.trace_csv = outdir / (stem + ".trace.csv")
        self.argv = {
            "thresholds": ["thresholds", str(self.scenario)],
            "synthesize": ["synthesize", str(self.scenario)],
            "simulate": ["simulate", str(self.scenario), "--schedule", str(self.schedule),
                         "--seed", str(seed % 2**64), "--trials", str(workload.trials),
                         "--horizon", str(workload.horizon)],
        }
        self.records = []

    def clear(self):
        for path in (self.schedule, self.trace_csv):
            path.unlink(missing_ok=True)

    def check(self, command: str, status, stdout: str) -> list:
        """Problems with one CLI call's exit status (or exception) and outputs."""
        if status != 0:
            return ["%s exited with %r" % (command, status)]
        try:
            if command == "thresholds":
                return checks.check_thresholds(stdout, PINNED["thresholds"])
            schedule = json.loads(self.schedule.read_text())
            if command == "synthesize":
                return checks.check_synthesis(
                    self.model, checks.parse_synthesis(stdout, schedule),
                    PINNED["synthesis"].get(self.pin_key))
            problems, record = checks.check_simulation(
                self.model, schedule, stdout, self.trace_csv.read_bytes(),
                self.workload.horizon)
            self.records.append(record)
            return problems
        except (OSError, ValueError, KeyError, IndexError) as e:
            return ["%s output unreadable: %r" % (command, e)]


def run_child(case: Case, command: str):
    """(wall seconds, max RSS in MB, exit status, stdout) of one CLI child."""
    out_path = case.outdir / (command + ".out")
    with open(out_path, "wb") as out, open(case.outdir / (command + ".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fadectrl.cli", *case.argv[command]],
                                cwd=ROOT, env=child_env(case.outdir), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()


def run_in_process(main, argv):
    """(wall seconds, exit status, stdout) of one in-process CLI call.

    An exception escaping ``main`` is the status, so that it counts as a
    failed call, as a traceback in a child process would."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            status = main(argv)
        except Exception as e:  # reported as a failed call
            status = e
        wall = time.perf_counter() - start
    return wall, status, buf.getvalue()


def rounds(seconds: float, one_round):
    """Call one_round until `seconds` have passed (at least MIN_ROUNDS times),
    stopping early when the next round would likely overrun."""
    start = time.perf_counter()
    count = 0
    while True:
        t = time.perf_counter()
        one_round()
        count += 1
        now = time.perf_counter()
        if count >= MIN_ROUNDS and now - start + (now - t) > seconds:
            return count


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.problems.append(problems)

    @property
    def failed(self) -> int:
        return len(self.problems)


def reference_s() -> float:
    """Time of a fixed piece of Python work: a probe of the machine's speed now."""
    start = time.perf_counter()
    table = {}
    for i in range(REF_LOOPS):
        table[i % 61] = table.get(i % 59, Fraction(1, 3)) + Fraction(i, 7)
    return time.perf_counter() - start


def measure_end_to_end(case: Case, seconds: float, tally: Tally):
    samples = {"wall_s": {metric: [] for metric in COMMANDS.values()},
               "reference_s": [], "peak_rss_mb": []}
    reference_s()  # the first call runs cold
    samples["reference_s"].append(reference_s())

    def one_round():
        case.clear()
        for command, metric in COMMANDS.items():
            wall, rss, status, stdout = run_child(case, command)
            samples["reference_s"].append(reference_s())
            samples["wall_s"][metric].append(wall)
            samples["peak_rss_mb"].append(rss)
            tally.add(case.check(command, status, stdout))

    rounds(seconds, one_round)
    speed = statistics.fmean(samples["reference_s"]) / REF_S
    metrics = {metric: center(walls) / speed for metric, walls in samples["wall_s"].items()}
    metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return metrics, samples


def layer_metrics(tracer: Tracer, case: Case) -> dict:
    """Per-layer metrics of one traced round (one call of each command)."""
    totals = tracer.totals()
    notes = tracer.notes
    scn = notes["scenario.load"][-1]
    synth = notes["synthesis"][-1]
    sim = notes["cosim.simulate"][-1]
    comps = notes["synthesis.scc"][-1]
    relax = 0
    for graph, comp in notes["synthesis.karp"]:
        relax += len(comp) * sum(1 for a, b in graph.edges if a in comp and b in comp)
    m = {metric: totals.get(span, (0, 0.0, 0.0))[2] for metric, span in SELF_TIMES.items()}
    m.update({
        "scenario.yaml_bytes": len(case.text.encode()),
        "scenario.cost_entries": sum(len(row) for row in scn.cost.g),
        "mas.successor_calls": totals["mas.successor"][0],
        "mas.one_step_reach_calls": totals["mas.one_step_reach"][0],
        "channel.expected_power_calls": totals["channel.expected_power"][0],
        "stabilization.n_states": scn.mas.state_count,
        "stabilization.omega_size": len(synth.region.omega),
        "stabilization.invariant_size": len(synth.invariant),
        "stabilization.phi_size": len(synth.phi),
        "stabilization.reach_depth": len(synth.layers.layers) - 1,
        "synthesis.edges": len(synth.graph.edges),
        "synthesis.scc_count": len(comps),
        "synthesis.largest_scc": max(len(c) for c in comps),
        "synthesis.karp_calls": totals["synthesis.karp"][0],
        "synthesis.karp_relaxations": relax,
        "synthesis.cycle_len": len(synth.cycle_states) - 1,
        "synthesis.prefix_len": len(synth.prefix_states),
        "cosim.ns_per_trial_step": totals["cosim.simulate"][1] * 1e9
        / (case.workload.trials * case.workload.horizon),
        "cosim.rng_calls": totals["cosim.rng"][0],
        "cosim.trace_bytes": sum(x.nbytes for x in sim.states) + sim.deliveries.nbytes,
        "cosim.csv_bytes": case.trace_csv.stat().st_size,
    })
    return m


def import_tree():
    """Import fadectrl.cli from this tree's src (provenance() has checked it)."""
    sys.path.insert(0, str(SRC))
    import fadectrl.cli
    return fadectrl.cli


def measure_layers(case: Case, seconds: float, tally: Tally):
    cli = import_tree()
    os.environ["FADECTRL_OUTDIR"] = str(case.outdir)
    plain, traced_walls, per_round, tracers = [], [], [], []

    def pipeline(main) -> float:
        case.clear()
        total = 0.0
        for command in COMMANDS:
            wall, status, stdout = run_in_process(main, case.argv[command])
            total += wall
            tally.add(case.check(command, status, stdout))
        return total

    def one_round():
        plain.append(pipeline(cli.main))
        tracer = Tracer()
        failed = tally.failed
        with traced(tracer):
            traced_walls.append(pipeline(tracer.wrap("cli", cli.main)))
        if tally.failed == failed:  # a failed call may leave layers unvisited
            per_round.append(layer_metrics(tracer, case))
        tracers[:] = [tracer]

    rounds(seconds, one_round)
    metrics, drift = {}, []
    for name in per_round[0] if per_round else ():
        values = [m[name] for m in per_round]
        if name in COUNTS:
            if len(set(values)) != 1:
                drift.append("count %s differs across rounds: %s" % (name, values))
            metrics[name] = values[0]
        else:
            metrics[name] = center(values)
    if drift:  # a failure of the run, not of one CLI call
        tally.problems.append(drift)
    if per_round:
        metrics["trace.overhead_ratio"] = center(traced_walls) / center(plain)
    samples = {"plain_s": plain, "traced_s": traced_walls, "rounds": per_round}
    return metrics, samples, tracers[0]


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or COUNTS.get(name) or RATIOS.get(name) or "s"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    info = provenance(workload, seed)
    outdir = WORK / ("%s-seed%d-trace%d" % (workload.name, seed, trace))
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    case = Case(workload, seed, outdir)
    tally = Tally()
    if trace:
        metrics, samples, tracer = measure_layers(case, seconds, tally)
        (outdir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}))
    else:
        metrics, samples = measure_end_to_end(case, seconds, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = dict(result, provenance=info, fail_ratio=tally.failed / tally.attempted,
                  problems=tally.problems, samples=samples,
                  simulations=case.records)
    (outdir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result, record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace))
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print("%-14s %-28s %14.6g %s" % (name, metric, m["value"], m["unit"]))
                print("%-14s %-28s %14.6g %s" % (name, "fail_ratio", record["fail_ratio"],
                                                 "ratio"))
            for problems in record["problems"]:
                print("%s failed: %s" % (name, "; ".join(problems)), file=sys.stderr)
    except Refused as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps({"provenance": record["provenance"]}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
