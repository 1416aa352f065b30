"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line so
the whole gate can be read at a glance:

  1  per-link delivery thresholds (0.104167 / 0.29), under 1 s
  2  performance region, invariant core, reachability, feasibility
  3  exhaustive simple-cycle enumeration of the restricted graph
  4  optimal cycle mean 24, long-run cost 0.6, schedule pattern
  5  minimum-mean-cycle search vs brute force, 500 random graphs, <10 s
  6  largest invariant subset vs brute force, 200 random cases, <10 s
  7  Monte-Carlo delivery frequencies + decay check, 10^4 trials, <60 s
  8  running-average cost convergence (0.6 vs 0.675), <5 s
  9  same-seed CLI simulations produce byte-identical traces
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

import fadectrl
import oracles
from fadectrl.cosim import (
    Schedule,
    SimConfig,
    _replay_slow,
    empirical_lyapunov_check,
    simulate,
)
from fadectrl.stabilization import PerformanceRegion, largest_invariant, stabilize
from fadectrl.synthesis import build_graph, karp_min_mean_cycle
from fadectrl.wcs import decay_threshold

PHI = frozenset({2, 4, 5, 6})
OPTIMAL = Schedule((), (7, 7, 4, 7), 4)


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("acceptance %s: FAIL" % label)
        raise
    with capsys.disabled():
        print("acceptance %s: PASS" % label)


def test_acceptance_1_thresholds(scenario, capsys):
    with verdict(capsys, "1 (delivery thresholds)"):
        t0 = time.perf_counter()
        s1 = decay_threshold(scenario.plants[0])
        s2 = decay_threshold(scenario.plants[1])
        elapsed = time.perf_counter() - t0
        assert abs(s2 - 0.104167) <= 1e-6
        assert abs(s1 - 0.29) <= 0.01
        assert elapsed < 1.0


def test_acceptance_2_region_invariance_reachability(scenario, capsys):
    with verdict(capsys, "2 (region / invariance / reachability)"):
        stab = stabilize(scenario, (Fraction("0.29"), Fraction("0.10")))
        assert stab.region.omega == frozenset({2, 4, 5, 6})
        assert stab.invariant == stab.region.omega
        assert stab.layers.union == frozenset({1, 2, 3, 4, 5, 6})
        assert stab.feasible is True


def _restricted_graph(scenario):
    return build_graph(scenario, PHI)


def test_acceptance_3_cycle_enumeration(scenario, capsys):
    with verdict(capsys, "3 (simple-cycle enumeration)"):
        graph = _restricted_graph(scenario)
        expected = {
            (2, 2): Fraction(27),
            (2, 6, 2): Fraction(65, 2),
            (5, 6, 5): Fraction(29),
            (2, 6, 4, 2): Fraction(26),
            (2, 5, 6, 2): Fraction(83, 3),
            (2, 5, 4, 2): Fraction(26),
            (2, 6, 5, 4, 2): Fraction(59, 2),
            (2, 5, 6, 4, 2): Fraction(24),
        }
        cycles = oracles.simple_cycles(graph)
        assert cycles == set(expected)
        for cycle, mean in expected.items():
            assert oracles.cycle_mean(graph, cycle) == mean


def test_acceptance_4_optimal_synthesis(scenario, synthesis, capsys):
    with verdict(capsys, "4 (optimal synthesis)"):
        graph = _restricted_graph(scenario)
        mean, cycle = karp_min_mean_cycle(graph, PHI)
        assert mean == Fraction(24)
        assert cycle == (2, 5, 6, 4, 2)
        weights = [graph.weight(cycle[i], cycle[i + 1]) for i in range(4)]
        assert weights == [23, 26, 24, 23]

        assert synthesis.optimal_cost == Fraction(3, 5)
        for k in range(12):
            expect = 4 if k % 4 == 2 else 7
            assert synthesis.schedule.input_at(k) == expect
        states, _ = _replay_slow(scenario, synthesis.schedule, 9)
        assert states == (4, 2, 5, 6, 4, 2, 5, 6, 4)


def test_acceptance_5_karp_vs_brute_force(capsys):
    with verdict(capsys, "5 (cycle search vs brute force)"):
        rng = random.Random(55)
        t0 = time.perf_counter()
        for _ in range(500):
            graph = oracles.random_scc_graph(rng, max_vertices=9, max_weight=50)
            mean, cycle = karp_min_mean_cycle(graph, frozenset(graph.vertices))
            assert mean == oracles.brute_min_mean(graph)
            assert oracles.cycle_mean(graph, cycle) == mean
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_6_invariant_vs_brute_force(capsys):
    with verdict(capsys, "6 (invariant subset vs brute force)"):
        rng = random.Random(66)
        t0 = time.perf_counter()
        for _ in range(200):
            model, constraints, omega = oracles.random_mas_instance(rng)
            region = PerformanceRegion(omega, ())
            got = largest_invariant(region, model, constraints)
            assert got == oracles.brute_invariant(model, constraints, omega)
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_7_monte_carlo_verification(scenario, capsys):
    with verdict(capsys, "7 (Monte-Carlo verification)"):
        t0 = time.perf_counter()
        config = SimConfig(horizon_fast=160, trials=10_000, seed=2026)
        trace = simulate(scenario, OPTIMAL, config)
        for slow, a in enumerate(trace.alpha_slow):
            window = trace.delivery_counts[slow * 40 : (slow + 1) * 40, :]
            count = trace.trials * window.shape[0]
            for link in range(2):
                p = float(scenario.success[a][link])
                bound = 3.0 * np.sqrt(p * (1.0 - p) / count)
                assert abs(window[:, link].sum() / count - p) <= bound
        check = empirical_lyapunov_check(trace)
        assert check.passed
        assert all(p.passed for p in check.plants)
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_8_cost_convergence(scenario, capsys):
    with verdict(capsys, "8 (cost convergence)"):
        t0 = time.perf_counter()
        optimal = oracles.average_cost_trace(scenario, OPTIMAL, 40_000)
        self_loop = oracles.average_cost_trace(
            scenario, Schedule((7,), (4,), 4), 40_000
        )
        elapsed = time.perf_counter() - t0
        assert abs(optimal[-1] - 0.6) <= 0.006
        assert abs(self_loop[-1] - 0.675) <= 0.00675
        assert optimal[-1] < self_loop[-1]
        assert elapsed < 5.0


def test_acceptance_9_deterministic_traces(scenario_path, tmp_path, capsys):
    with verdict(capsys, "9 (same-seed determinism)"):
        schedule_file = tmp_path / "schedule.json"
        schedule_file.write_text(json.dumps(OPTIMAL.to_dict()))
        src = str(Path(fadectrl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        blobs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            child = subprocess.run([
                sys.executable, "-W", "error", "-m", "fadectrl.cli",
                "simulate", str(scenario_path),
                "--schedule", str(schedule_file),
                "--seed", "1", "--trials", "1000", "--horizon", "160",
            ], capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=path, FADECTRL_OUTDIR=str(outdir)))
            assert child.returncode == 0, child.stderr
            blobs.append((outdir / "assembly_cell.trace.csv").read_bytes())
        assert blobs[0] == blobs[1]
