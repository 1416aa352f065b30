"""Scenario loading and validation.

Proves:
 Group 1 - the bundled scenario loads into exact, fully wired objects
 Group 2 - malformed documents are rejected with located messages, each
           violation reported exactly once (an agent count past the index
           range before any per-agent check), and every violation in a
           document is reported at once; a mapping shown in a message
           shows only its data; an unknown key in any fixed-key mapping
           is a violation at the key's own line; a float is read exactly
           from its spelling, once, and quoted as the float it spells; an
           int past float64's range reads as inf, and every number, matrix
           entries and state indices included, is checked at its own path
 Group 3 - parse failures (invalid YAML, a key written twice, a tuple
           mapping key, a float, int, bool or timestamp with no reading, a
           tag of the wrong kind) and unreadable paths raise ParseError, on
           both parsers' builders; the one-pass
           builder reads every document (the line of every mapping and key
           included) and raises every error as the reference loader does,
           on libyaml's parser and on the pure-Python one, and loads the
           625-state grid with a traced peak under 2 MB; an undecodable file
           is named
 Group 4 - small synthetic documents exercise the alternate spellings
           (per-state input maps, scalar plants, no direct table, a
           Lyapunov weight for a slow-but-stable loop) and every check of
           the cost section
 Group 5 - any one edit of the bundled document (a value replaced, a key
           deleted or a key added) is rejected, or loads to a complete
           scenario that maps every admissible state to one success
           probability per link, and whose thresholds, stabilization and
           synthesis end in a result or a ToolkitError
"""

import copy
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadectrl.errors import ParseError, ToolkitError, ValidationError
from fadectrl import scenario as scenario_module
from fadectrl.scenario import (_LOADER, _SHORT, _Builder, _Collector, load_scenario,
                               load_scenario_text)
from fadectrl.stabilization import stabilize
from fadectrl.synthesis import synthesize
from oracles import LineLoader, PythonLineLoader, fading_tables, grid_text

ROOT = Path(__file__).resolve().parents[1]
BUNDLED_TEXT = (ROOT / "scenarios" / "assembly_cell.yaml").read_text()
BUNDLED_DOC = yaml.safe_load(BUNDLED_TEXT)

MINIMAL = """\
name: single loop probe
fast_steps_per_slow: 4

plants:
  - a_closed: 0.5
    a_open: 2.0
    quality_weight: 1.0
    decay_rate: 0.9
    noise_cov: 0.0
    power_price: 0.25

agents:
  count: 1
  kappa: 2
  weights:
    1: {1: 1}
  initial_state: [0]

constraints:
  states: [1, 2]
  inputs:
    1: [[0], [1]]
    2: [[1]]

channel:
  local_states: 1
  transmit_policy:
    - [1]
  fading:
    1: {decode: [1.0], dist: [[1.0]]}
    2: {decode: [0.5], dist: [[1.0]]}

cost:
  input_weight: 0
  input_costs: [3, 3]
"""


def _reject(text):
    with pytest.raises(ValidationError) as ei:
        load_scenario_text(text)
    return ei.value.violations


def _reject_once(text, old, new, field, message):
    """Editing old to new in text gives exactly one located violation."""
    broken = text.replace(old, new)
    assert broken != text
    violations = _reject(broken)
    assert len(violations) == 1
    assert re.match(r"^<string>:\d+: ", violations[0])
    assert ": %s: %s" % (field, message) in violations[0]


# ── Group 1: the bundled document ────────────────────────────────────────────

def test_bundled_scenario_identity(scenario):
    assert scenario.name == "assembly cell"
    assert scenario.alpha0 == 4
    assert scenario.mas.n == 2 and scenario.mas.kappa == 3
    assert scenario.constraints.state_set == frozenset({1, 2, 3, 4, 5, 6})
    assert scenario.constraints.inputs_for(4) == frozenset({4, 5, 7, 8})
    assert len(scenario.plants) == 2
    # link 1 transmits in local states 0..2 of state 2's row [0.1, 0.1, 0.3, 0.5]
    assert scenario.transmit[2] == (Fraction("0.5"), Fraction("0.4"))


def test_bundled_cost_and_thresholds_are_exact(scenario):
    assert scenario.cost.tau == 40
    assert scenario.cost.lam == Fraction(1)
    assert scenario.cost.input_cost(2, 5) == Fraction(20)
    assert scenario.s_override == (Fraction("0.29"), Fraction("0.10"))
    assert all(isinstance(s, Fraction) for s in scenario.s_override)


def test_bundled_success_precedence(scenario):
    # measured 0.10 wins over the derived 0.25 (decode) * 0.3 (transmit)
    assert scenario.success[5][1] == Fraction("0.10")
    assert scenario.transmit[5][1] == Fraction("0.3")


def test_bundled_warning_text(scenario):
    assert scenario.warnings == (
        "measured success table overrides derived value at link 2, "
        "state 5: measured 0.1 vs derived 0.075",
    )


def test_bundled_simulation_defaults(scenario, scenario_path):
    assert scenario.x0 == ((1.0, 1.0), (1.0,))
    assert scenario.source == str(scenario_path)


# ── Group 2: validation ──────────────────────────────────────────────────────

@pytest.fixture(scope="module")
def bundled_text(scenario_path):
    return scenario_path.read_text()


def test_dist_row_mass_is_checked(bundled_text):
    broken = bundled_text.replace(
        "dist: [[0.0, 0.2, 0.1, 0.7], [0.2, 0.1, 0.5, 0.2]]}\n"
        "    2:",
        "dist: [[0.0, 0.2, 0.1, 0.6], [0.2, 0.1, 0.5, 0.2]]}\n"
        "    2:",
    )
    assert broken != bundled_text
    violations = _reject(broken)
    assert len(violations) == 1
    assert "sum to 0.9, expected 1" in violations[0]
    assert re.match(r"^<string>:\d+: channel\.fading\[1\]\.dist\[0\]: ", violations[0])


def test_dist_row_transmitting_mass_above_one_is_located(bundled_text):
    # a row 1e-10 over 1 passes the mass tolerance; only when every local
    # state transmits does its transmit probability exceed 1
    over = bundled_text.replace(
        "2: {decode: [0.66, 0.37], dist: [[0.1, 0.1, 0.3, 0.5],",
        "2: {decode: [0.66, 0.37], dist: [[0.1, 0.1, 0.3000000001, 0.5],",
    )
    assert over != bundled_text
    load_scenario_text(over)
    everywhere = over.replace("    - [1, 1, 1, 0]\n", "    - [1, 1, 1, 1]\n")
    violations = _reject(everywhere)
    assert len(violations) == 1
    assert re.match(r"^<string>:\d+: channel\.fading\[2\]\.dist\[0\]: transmitting "
                    r"probabilities sum to 1\.0000000001, above 1$", violations[0])


def test_initial_state_must_be_admissible(bundled_text):
    broken = bundled_text.replace("initial_state: [1, 0]", "initial_state: [2, 2]")
    violations = _reject(broken)
    assert len(violations) == 1
    assert "agents.initial_state: state 9 is not in the admissible state set" \
        in violations[0]


def test_missing_section_is_reported(bundled_text):
    lines = [
        ln for ln in bundled_text.splitlines()
        if not ln.startswith("constraints:")
        and not ln.startswith("  states:")
        and not ln.startswith("  inputs:")
    ]
    violations = _reject("\n".join(lines))
    assert len(violations) == 1
    assert "missing required section 'constraints'" in violations[0]


def test_cost_spellings_are_exclusive(bundled_text):
    broken = bundled_text.replace(
        "  input_weight: 1", "  input_weight: 1\n  table: []"
    )
    violations = _reject(broken)
    assert len(violations) == 1
    assert "give either input_costs or table, not both" in violations[0]


def test_admissible_states_must_be_covered(bundled_text):
    broken = bundled_text.replace(
        "  success_direct:            # measured per-link success probabilities\n"
        "    - [0.05, 0.33, 0.09, 0.33, 0.38, 0.32, 0.09, 0.32, 0.11]\n"
        "    - [0.35, 0.15, 0.25, 0.15, 0.10, 0.12, 0.25, 0.12, 0.20]\n",
        "",
    )
    broken = "\n".join(
        ln for ln in broken.splitlines() if not ln.startswith("    2: {decode:")
    )
    violations = _reject(broken)
    assert len(violations) == 1
    assert "state 2 is admissible but not covered" in violations[0]


def test_all_violations_are_collected_at_once(bundled_text):
    broken = bundled_text.replace("initial_state: [1, 0]", "initial_state: [2, 2]")
    broken = broken.replace(
        "dist: [[0.0, 0.2, 0.1, 0.7],", "dist: [[0.0, 0.2, 0.1, 0.6],"
    )
    violations = _reject(broken)
    assert len(violations) == 2
    joined = "\n".join(violations)
    assert "sum to 0.9, expected 1" in joined
    assert "state 9 is not in the admissible state set" in joined
    for v in violations:
        assert re.match(r"^<string>:\d+: ", v)


def test_rejection_produces_no_object(bundled_text):
    with pytest.raises(ValidationError):
        load_scenario_text(bundled_text.replace("count: 2", "count: 0"))


PAST_RANGE_INT = "1" + "0" * 400  # float64's image of it is inf


@pytest.mark.parametrize("old, new, field, message", [
    ("    a_closed: 0.2\n", "    a_closed: .nan\n",
     "plants[1].a_closed", "must be a finite number, got nan"),
    ("    a_open: 1.0\n", "    a_open: -.inf\n",
     "plants[1].a_open", "must be a finite number, got -inf"),
    ("a_closed: [[-0.1, -0.1], [0.1, 0.2]]", "a_closed: [[-0.1, .nan], [0.1, 0.2]]",
     "plants[0].a_closed[0][1]", "must be a finite number, got nan"),
    ("    noise_cov: 1.0\n", "    noise_cov: .inf\n",
     "plants[1].noise_cov", "must be a finite number, got inf"),
    ("    decay_rate: 0.9\n", "    decay_rate: .inf\n",
     "plants[1].decay_rate", "must be a finite number"),
    ("initial_plant_states: [[1.0, 1.0], [1.0]]",
     "initial_plant_states: [[1.0, .nan], [1.0]]",
     "simulation.initial_plant_states[0][1]", "must be a finite number, got nan"),
    # an integer whose float64 image is not finite is read as that float
    ("    a_closed: 0.2\n", "    a_closed: %s\n" % PAST_RANGE_INT,
     "plants[1].a_closed", "must be a finite number, got inf"),
    ("    decay_rate: 0.9\n", "    decay_rate: %s\n" % PAST_RANGE_INT,
     "plants[1].decay_rate", "must be a finite number, got inf"),
    ("  input_weight: 1\n", "  input_weight: %s\n" % PAST_RANGE_INT,
     "cost.input_weight", "must be a finite number, got inf"),
    ("fast_steps_per_slow: 40\n", "fast_steps_per_slow: -%s\n" % PAST_RANGE_INT,
     "fast_steps_per_slow", "expected an integer, got -inf"),
] + [
    # a spelling whose float64 image is not finite is read as that float
    case for spelling, shown in (("1.0e+400", "inf"), (".inf", "inf"), (".nan", "nan"),
                                 (PAST_RANGE_INT, "inf"))
    for case in (
        ("    power_price: 0.5\n", "    power_price: %s\n" % spelling,
         "plants[1].power_price", "must be a finite number, got %s" % shown),
        ("a_closed: [[-0.1, -0.1],", "a_closed: [[-0.1, %s]," % spelling,
         "plants[0].a_closed[0][1]", "must be a finite number, got %s" % shown),
        ("initial_plant_states: [[1.0, 1.0], [1.0]]",
         "initial_plant_states: [[1.0, 1.0], [%s]]" % spelling,
         "simulation.initial_plant_states[1][0]", "must be a finite number, got %s" % shown),
        ("    - [0.05, 0.33,", "    - [%s, 0.33," % spelling,
         "channel.success_direct[0][0]", "must be a finite number, got %s" % shown),
    )
])
def test_non_finite_numbers_are_rejected(bundled_text, old, new, field, message):
    _reject_once(bundled_text, old, new, field, message)


@pytest.mark.parametrize("old, new, field, message", [
    ("1: {decode: [0.18, 0.44]", "1: {decode: [1.5, 0.44]",
     "channel.fading[1].decode[0]", "must be <= 1, got 1.5"),
    ("1: {decode: [0.18, 0.44]", "1: {decode: [0.18]",
     "channel.fading[1]", "decode/dist must carry one entry per link (2)"),
    ("dist: [[0.0, 0.2, 0.1, 0.7], [0.2, 0.1, 0.5, 0.2]]}\n    2:",
     "dist: [[-0.1, 0.3, 0.1, 0.7], [0.2, 0.1, 0.5, 0.2]]}\n    2:",
     "channel.fading[1].dist[0][0]", "must be >= 0"),
    ("dist: [[0.0, 0.2, 0.1, 0.7], [0.2, 0.1, 0.5, 0.2]]}\n    2:",
     "dist: [[0.0, 0.3, 0.7], [0.2, 0.1, 0.5, 0.2]]}\n    2:",
     "channel.fading[1].dist[0]", "must list 4 probabilities"),
    ("    - [1, 1, 1, 0]\n    - [1, 1, 1, 0]\n", "    - [1, 1, 1, 0]\n    - [1, 2, 1, 0]\n",
     "channel.transmit_policy[1]", "must be a list of 4 zero/one flags"),
    ("    - [1, 1, 1, 0]\n    - [1, 1, 1, 0]\n", "    - [1, 1, 1, 0]\n    - [1, 1, 1]\n",
     "channel.transmit_policy[1]", "must be a list of 4 zero/one flags"),
    ("local_states: 4", "local_states: 0", "channel.local_states", "must be >= 1"),
    ("    - [0.05, 0.33,", "    - [1.2, 0.33,",
     "channel.success_direct[0][0]", "must be <= 1"),
], ids=["decode", "decode_links", "dist_entry", "dist_length", "policy_flag",
        "policy_length", "local_states", "success_direct"])
def test_channel_facts_are_located(bundled_text, old, new, field, message):
    _reject_once(bundled_text, old, new, field, message)


@pytest.mark.parametrize("old, new, field, message", [
    ("simulation:\n  initial_plant_states: [[1.0, 1.0], [1.0]]",
     "simulation: [[1.0, 1.0], [1.0]]",
     "simulation", "'simulation' must be a mapping"),
    ("  initial_plant_states: [[1.0, 1.0], [1.0]]",
     "  initial_plant_state: [[1.0, 1.0], [1.0]]",
     "simulation", "unknown key 'initial_plant_state'"),
] + [
    # `simulate` reads the initial states the loader checked here
    ("initial_plant_states: [[1.0, 1.0], [1.0]]", "initial_plant_states: " + states,
     "simulation.initial_plant_states" + index, message)
    for states, index, message in (
        ("[[1.0, 1.0, 1.0], [1.0]]", "[0]", "must list 2 numbers"),
        ("[[1.0, 1.0], [1.0, 2.0]]", "[1]", "must list 1 numbers"),
        ("[[1.0, 1.0], []]", "[1]", "must list 1 numbers"),
        ("[[1.0, 1.0]]", "", "must list 2 vectors"),
    )
], ids=["not_a_mapping", "misspelt_key", "arm_long", "conveyor_long", "conveyor_empty",
        "one_vector"])
def test_simulation_section_is_checked(bundled_text, old, new, field, message):
    # the first two edits used to load with the plants silently starting at zero
    _reject_once(bundled_text, old, new, field, message)


@pytest.mark.parametrize("old, new, field, key", [
    ("thresholds_override:", "thresholds_overide:", "top level", "thresholds_overide"),
    ("    noise_cov: identity\n", "    noise_covariance: [[4.0, 0], [0, 4.0]]\n",
     "plants[0]", "noise_covariance"),
    ("  kappa: 3\n", "  kappa: 3\n  kapa: 3\n", "agents", "kapa"),
    ("constraints:\n", "constraints:\n  input: [1]\n", "constraints", "input"),
    ("  local_states: 4\n", "  local_states: 4\n  local_state: 4\n", "channel", "local_state"),
    ("    9: {decode:", "    9: {decoded: [1], decode:", "channel.fading[9]", "decoded"),
    ("  input_weight: 1\n", "  input_weight: 1\n  input_wieght: 2\n", "cost", "input_wieght"),
], ids=["top_level", "plant", "agents", "constraints", "channel", "fading_row", "cost"])
def test_unknown_keys_are_located(bundled_text, old, new, field, key):
    # each edit used to load with the misspelt key silently ignored
    _reject_once(bundled_text, old, new, field, "unknown key %r; the section takes only" % key)
    # located at the key's own line, not at its mapping's first line
    broken = bundled_text.replace(old, new)
    line = next(i for i, text in enumerate(broken.splitlines(), 1)
                if re.search(r"\b%s:" % key, text))
    assert _reject(broken)[0].startswith("<string>:%d: " % line)


@pytest.mark.parametrize("old, new, field, message", [
    # used to load with agent 1's weight on neighbour 5 dropped, and no model
    ("1: {1: 1, 2: 2}", "1: {1: 1, 2: 2, 5: 1}",
     "agents.weights[1] neighbor 5", "must be <= 2, got 5"),
    ("    2: {1: 1, 2: 1}\n", "    2: {1: 1, 2: 1}\n    x: {1: 1}\n",
     "agents.weights key 'x'", "expected an integer, got 'x'"),
    ("    2: {1: 1, 2: 1}\n", "    2: {1: 1, 2: 1}\n    3: {3: 1}\n",
     "agents.weights key 3", "must be <= 2, got 3"),
    ("1: {1: 1, 2: 2}", "1: {1: 1, 2: 3}", "agents.weights[1][2]", "must be <= 2, got 3"),
    ("2: {1: 1, 2: 1}", "2: {1: 1}", "agents.weights[2]", "missing the agent's own weight"),
    ("    2: {1: 1, 2: 1}\n", "", "agents.weights", "agent 2 has no weight map"),
], ids=["neighbour_past_count", "agent_key_not_an_integer", "agent_key_past_count",
        "weight_past_kappa", "own_weight_missing", "weight_map_missing"])
def test_agent_weight_violations_are_reported_once(bundled_text, old, new, field, message):
    _reject_once(bundled_text, old, new, field, message)


def test_agent_count_past_the_index_range_is_one_violation(bundled_text, monkeypatch):
    # the bound is checked before the per-agent checks walk 1..count; a
    # loader that walks them anyway stops at its second violation here
    # instead of filling memory
    record = _Collector.err

    def record_one(ctx, *args):
        assert not ctx.errors, "second violation %s after %s" % (args, ctx.errors)
        record(ctx, *args)

    monkeypatch.setattr(_Collector, "err", record_one)
    t0 = time.perf_counter()
    _reject_once(bundled_text, "  count: 2\n", "  count: 1000000000\n", "agents",
                 "1000000000 agents over 3 values overflow 64-bit index arithmetic")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("old, new, message", [
    ("1: {1: 1, 2: 2}", "1: {1: 1, 2: 2, 3: {}}",
     "agents.weights[1][3]: expected an integer, got {}"),
    ("    decay_rate: 0.9\n", "    decay_rate: {}\n",
     "plants[1].decay_rate: expected a number, got {}"),
    ("  local_states: 4\n", "  local_states: {x: 1}\n",
     "channel.local_states: expected an integer, got {'x': 1}"),
], ids=["weight", "decay_rate", "local_states"])
def test_a_mapping_in_a_message_shows_only_its_data(bundled_text, old, new, message):
    violations = _reject(bundled_text.replace(old, new))
    assert any(v.endswith(message) for v in violations)
    assert not any("__line__" in v for v in violations)


def test_bad_tau_is_reported_with_bad_agent_weights(bundled_text):
    # tau does not depend on the agent model, so a broken agents section
    # does not hide it: every violation of the document is reported at once
    broken = (bundled_text.replace("1: {1: 1, 2: 2}", "1: {1: 1, 2: 2, 3: {}}")
              .replace("fast_steps_per_slow: 40\n", "fast_steps_per_slow: {a: 1}\n"))
    violations = _reject(broken)
    assert [v.split(": ", 1)[1] for v in violations] == [
        "agents.weights[1] neighbor 3: must be <= 2, got 3",
        "agents.weights[1][3]: expected an integer, got {}",
        "fast_steps_per_slow: expected an integer, got {'a': 1}",
    ]


def test_per_state_input_key_is_reported_once():
    _reject_once(MINIMAL, "    2: [[1]]\n", "    2: [[1]]\n    3: [[1]]\n",
                 "constraints.inputs key 3", "must be <= 2, got 3")


def test_repeated_numbers_are_range_checked_each_time(bundled_text):
    # 1.5 is a valid power price, read first; as a decode probability it
    # must still fail its own bound
    broken = bundled_text.replace("    power_price: 0.5\n", "    power_price: 1.5\n")
    _reject_once(broken, "1: {decode: [0.18, 0.44]", "1: {decode: [1.5, 0.44]",
                 "channel.fading[1].decode[0]", "must be <= 1")


@pytest.mark.parametrize("old, new, field, message", [
    ("fast_steps_per_slow: 40\n", "fast_steps_per_slow: 40.0\n",
     "fast_steps_per_slow", "expected an integer, got 40.0"),
    ("  kappa: 3\n", "  kappa: {x: 2.50}\n",
     "agents.kappa", "expected an integer, got {'x': 2.5}"),
    ("1: {decode: [0.18, 0.44]", "1: {decode: [1_000.25, 0.44]",
     "channel.fading[1].decode[0]", "must be <= 1, got 1000.25"),
], ids=["integer", "nested", "underscores"])
def test_a_quoted_float_reads_as_written(bundled_text, old, new, field, message):
    # the exact value of a float prints as the float it spells
    _reject_once(bundled_text, old, new, field, message)


def test_decimals_past_float64_precision_are_exact(bundled_text):
    scn = load_scenario_text(bundled_text.replace(
        "0.15, 0.10, 0.12", "0.15, 0.10000000000000000001, 0.12"))
    assert scn.success[5][1] == Fraction("0.10000000000000000001")  # not 1/10


def test_each_spelling_is_one_object(scenario):
    # 0.33 is written twice in the measured table; both entries share it
    assert scenario.success[2][0] == Fraction("0.33")
    assert scenario.success[2][0] is scenario.success[4][0]


@pytest.mark.parametrize("spelling, text", [
    ("!!float sNaN", "sNaN"), ("!!float abc", "abc"), ("!!float ''", ""),
    ("!!float 1/3", "1/3"), ("1:30.5", "1:30.5"), ("!!int abc", "abc"), ("!!int ''", ""),
    ("1:30", "1:30")])
def test_a_float_without_an_exact_reading_is_a_located_parse_error(bundled_text, spelling,
                                                                  text):
    # these used to raise a bare ValueError or IndexError, or read 1/3 or a
    # base-60 float; an int is read the same way, and a base-60 int no longer
    # reads as its value (1:30 as 90)
    broken = bundled_text.replace("    power_price: 0.5\n", "    power_price: %s\n" % spelling)
    with pytest.raises(ParseError, match=r"(?s)cannot read '%s' as a number: .*line 32, "
                       % re.escape(text)):
        load_scenario_text(broken)


BAD_BOOLS_AND_TIMESTAMPS = [
    ("!!bool maybe", "cannot read 'maybe' as a boolean\n"),
    ("!!bool ''", "cannot read '' as a boolean\n"),
    ("!!timestamp x", "cannot read 'x' as a timestamp\n"),
    ("!!timestamp 2020-13-45", "cannot read '2020-13-45' as a timestamp: month must be in"),
    ("2020-13-45", "cannot read '2020-13-45' as a timestamp: month must be in"),
]


@pytest.mark.parametrize("loader", [_LOADER, yaml.SafeLoader], ids=["libyaml", "python"])
@pytest.mark.parametrize("spelling, message", BAD_BOOLS_AND_TIMESTAMPS)
def test_a_bool_or_timestamp_without_a_reading_is_a_located_error(bundled_text, loader,
                                                                  spelling, message):
    # these used to raise a bare KeyError, AttributeError or ValueError
    broken = bundled_text.replace("    power_price: 0.5\n", "    power_price: %s\n" % spelling)
    with pytest.raises(yaml.constructor.ConstructorError) as e:
        _build(broken, loader)
    assert message in str(e.value) and "line 32, column 18" in str(e.value)
    with pytest.raises(ParseError, match=r"(?s)%s.*line 32, column 18" % re.escape(message)):
        load_scenario_text(broken)


def test_a_float_below_float64_range_reads_as_zero():
    # its exact value would need a power of ten as long as its exponent
    t0 = time.perf_counter()
    scn = load_scenario_text(MINIMAL.replace("input_weight: 0", "input_weight: 1.0e-99999999"))
    assert scn.cost.lam == 0
    assert time.perf_counter() - t0 < 1.0


def test_equal_int_and_float_keep_their_own_spelling():
    # 2**60 == 1.152921504606847e+18 in Python, but the float's decimal
    # spelling is 24 larger; each is read exactly as written
    scn = load_scenario_text(MINIMAL.replace(
        "input_costs: [3, 3]", "input_costs: [1152921504606846976, 1.152921504606847e+18]"))
    assert scn.cost.input_cost(1, 1) == 2**60
    assert scn.cost.input_cost(1, 2) == 1152921504606847000


# ── Group 3: parse errors ────────────────────────────────────────────────────

def test_invalid_yaml():
    with pytest.raises(ParseError, match="not valid YAML"):
        load_scenario_text("plants: [unclosed\n  - nope: {")


@pytest.mark.parametrize("text", ["", "# a comment alone\n", "---\n", "--- 1\n...\n"])
def test_an_empty_or_scalar_stream_is_not_a_scenario(text):
    assert isinstance(_read_alike(text)[0][0], (type(None), int))
    with pytest.raises(ParseError, match="document must be a key-value mapping"):
        load_scenario_text(text)


def test_document_must_be_a_mapping():
    with pytest.raises(ParseError, match="must be a key-value mapping"):
        load_scenario_text("- 1\n- 2\n")


@pytest.mark.parametrize("old, new, key, line", [
    # a second row for state 2 used to replace its derived success by 99/100
    ("    3: {decode", "    2: {decode: [0.99, 0.99], dist: [[1, 0, 0, 0], [1, 0, 0, 0]]}\n"
     "    3: {decode", "2", 54),
    # a second tau used to win silently
    ("fast_steps_per_slow: 40\n", "fast_steps_per_slow: 40\nfast_steps_per_slow: 4\n",
     "'fast_steps_per_slow'", 17),
], ids=["fading_row", "tau"])
def test_duplicate_keys_are_rejected(bundled_text, old, new, key, line):
    broken = bundled_text.replace(old, new)
    assert broken != bundled_text
    with pytest.raises(ParseError, match="duplicate key %s at line %d," % (key, line)):
        load_scenario_text(broken)


def test_merge_keys_may_be_overridden():
    text = MINIMAL.replace(
        "    1: {decode: [1.0], dist: [[1.0]]}\n"
        "    2: {decode: [0.5], dist: [[1.0]]}\n",
        "    1: &row1 {decode: [1.0], dist: [[1.0]]}\n"
        "    2: {<<: *row1, decode: [0.5]}\n")
    assert text != MINIMAL
    assert load_scenario_text(text).success == {1: (1,), 2: (Fraction(1, 2),)}


# the scenario builder on each parser, with the reference loader on the same one
PARSERS = [(_LOADER, LineLoader), (yaml.SafeLoader, PythonLineLoader)]


def _build(text, loader=_LOADER):
    return _Builder(loader(text)).document()


def test_line_loader_uses_libyaml_when_present(bundled_text, monkeypatch):
    # the scenario reads the events of libyaml's parser when PyYAML has it
    assert _LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    used = []

    class Spy(_LOADER):
        def __init__(self, stream):
            used.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(scenario_module, "_LOADER", Spy)
    load_scenario_text(bundled_text)
    assert used == [bundled_text]


def _mapping_lines(node):
    """Source line of every mapping and of each of its keys in a loaded
    document, in document order."""
    if isinstance(node, dict):
        yield node.line, node.lines
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _mapping_lines(child)


def _read_alike(text):
    """The document that text reads to, or the error it raises, the same for
    the builder on each parser as for the reference loader on that parser;
    the two parsers give the same documents."""
    outcomes = []
    for loader, reference in PARSERS:
        read = []
        for load in (lambda: _build(text, loader), lambda: yaml.load(text, Loader=reference)):
            try:
                doc = load()
            except yaml.YAMLError as e:
                read.append((type(e), str(e)))
            else:
                read.append((doc, repr(doc), list(_mapping_lines(doc))))
        assert read[0] == read[1]
        outcomes.append(read[0])
    if not isinstance(outcomes[0][0], type):
        assert outcomes[0] == outcomes[1]
    return outcomes


def test_libyaml_and_python_loaders_give_equal_documents(bundled_text):
    for text in (bundled_text, grid_text()):
        doc = _read_alike(text)[0][0]
        assert doc["channel"].line > 1


@pytest.mark.parametrize("kappa", [4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_grids_read_as_the_reference_loader_reads_them(kappa, seed):
    assert isinstance(_read_alike(grid_text(kappa, seed))[0][0], dict)


@pytest.mark.parametrize("old, new, message", [
    ("fast_steps_per_slow: 40\n", "fast_steps_per_slow: 40\nfast_steps_per_slow: 4\n",
     "duplicate key 'fast_steps_per_slow' at line 17, first written at line 16"),
    ("    2: {decode", "    [0, 1]: {decode", "mapping key [0, 1] at line 53 is not a scalar"),
    # two integers past float64's range both read as inf
    ("    1: {decode", "    %s: {}\n    2%s: {decode" % (PAST_RANGE_INT, PAST_RANGE_INT[1:]),
     "duplicate key inf at line 53, first written at line 52"),
    ("    power_price: 0.5\n", "    power_price: !!int abc\n",
     "cannot read 'abc' as a number: invalid literal for int()"),
    ("    power_price: 0.5\n", "    power_price: !!float abc\n",
     "cannot read 'abc' as a number: "),
    ("    power_price: 0.5\n", "    power_price: 1:30\n",
     "cannot read '1:30' as a number: invalid literal for int() with base 10: '1:30'"),
], ids=["duplicate", "tuple_key", "past_range_int", "junk_int", "junk_float", "base60_int"])
def test_libyaml_and_python_loaders_raise_equal_errors(bundled_text, old, new, message):
    broken = bundled_text.replace(old, new)
    assert broken != bundled_text
    errors = [error for _, error in _read_alike(broken)]
    assert errors[0] == errors[1]
    assert message in errors[0]


ROWS_1_TO_3 = """\
    1: {decode: [0.18, 0.44], dist: [[0.0, 0.2, 0.1, 0.7], [0.2, 0.1, 0.5, 0.2]]}
    2: {decode: [0.66, 0.37], dist: [[0.1, 0.1, 0.3, 0.5], [0.2, 0.1, 0.1, 0.6]]}
    3: {decode: [0.18, 0.31], dist: [[0.2, 0.1, 0.2, 0.5], [0.2, 0.1, 0.5, 0.2]]}
"""
# row 3 merges rows 2 and 1, the first named winning, and overrides decode
MERGED_ROWS = """\
    1: &one {decode: [0.18, 0.44], dist: [[0.0, 0.2, 0.1, 0.7], [0.2, 0.1, 0.5, 0.2]]}
    2: &two {decode: [0.66, 0.37], dist: [[0.1, 0.1, 0.3, 0.5], [0.2, 0.1, 0.1, 0.6]]}
    3: {<<: [*two, *one], decode: [0.18, 0.31]}
"""
PLOTS = "  initial_plant_states: [[1.0, 1.0], [1.0]]\n"


@pytest.mark.parametrize("old, new, message", [
    ("    power_price: 0.5\n", "    power_price: *price\n", "found undefined alias"),
    ("  count: 2\n  kappa: 3\n", "  count: &n 2\n  kappa: &n 3\n",
     "found duplicate anchor"),
    (PLOTS, PLOTS + "---\nname: again\n", "expected a single document in the stream"),
    ("    noise_cov: identity\n", "    noise_cov: !foo identity\n",
     "could not determine a constructor for the tag '!foo'"),
    ("    a_closed: 0.2\n", "    a_closed: !foo [0.2]\n",
     "could not determine a constructor for the tag '!foo'"),
    ("name: assembly cell\n", "name: <<\n",
     "could not determine a constructor for the tag 'tag:yaml.org,2002:merge'"),
    # an anchored mapping as a key inside itself: the reference shows it filled
    # with its entries, the collections in them made but not yet filled
    ("  count: 2\n", "  count: &n {a: 1, b: {*n: 2}}\n",
     "mapping key {'a': 1, 'b': {}} at line 35 is not a scalar"),
    ("  count: 2\n", "  count: &n {a: 1, b: {*n: 2}, c: [3]}\n",
     "mapping key {'a': 1, 'b': {}, 'c': []} at line 35 is not a scalar"),
    # no YAML error: these read to the reference loader's documents
    ("  states: [1, 2, 3, 4, 5, 6]\n", "  states: !!set {1, 2, 3, 4, 5, 6}\n", None),
    ("name: assembly cell\n", "name: !!omap [{a: 1}, {b: [2]}]\n", None),
    ("name: assembly cell\n", "name: !!pairs [{a: 1}, {a: 2}]\n", None),
    ("  count: 2\n  kappa: 3\n", "  count: &n 2\n  kappa: *n\n", None),
    (ROWS_1_TO_3, MERGED_ROWS, None),
], ids=["undefined_alias", "duplicate_anchor", "second_document", "tag", "collection_tag",
        "merge_value", "alias_key_inside_itself", "alias_key_before_a_list", "set", "omap", "pairs", "alias", "merged_list"])
def test_anchors_tags_and_merges_read_as_the_reference_loader_reads_them(
        bundled_text, old, new, message):
    broken = bundled_text.replace(old, new)
    assert broken != bundled_text
    for outcome in _read_alike(broken):
        if message is None:
            assert isinstance(outcome[0], dict)
        else:
            assert message in outcome[1]


@pytest.mark.parametrize("value, message", [
    # `!!map abc` and `!!map [1]` used to end in a ValueError or TypeError traceback
    ("!!map abc", "could not determine a constructor for the tag 'tag:yaml.org,2002:map'"),
    ("!!map [1]", "could not determine a constructor for the tag 'tag:yaml.org,2002:map'"),
    ("!!seq abc", "could not determine a constructor for the tag 'tag:yaml.org,2002:seq'"),
    ("!!set [1]", "could not determine a constructor for the tag 'tag:yaml.org,2002:set'"),
    ("!!omap {a: 1}", "could not determine a constructor for the tag 'tag:yaml.org,2002:omap'"),
    ("!!omap [{a: 1, b: 2}]", "expected a one-item mapping"),
    ("!!pairs [1]", "expected a one-item mapping"),
    ("{<<: [{a: 1}, 2]}", "<< merges only mappings"),
], ids=["map_scalar", "map_list", "seq_scalar", "set_list", "omap_mapping", "omap_two_items",
        "pairs_scalar", "merge_scalar"])
def test_a_tag_or_merge_of_the_wrong_kind_is_a_located_parse_error(bundled_text, value,
                                                                   message):
    broken = bundled_text.replace("name: assembly cell\n", "name: %s\n" % value)
    for loader, _ in PARSERS:
        with pytest.raises(yaml.YAMLError, match=r"(?s)" + re.escape(message) + ".*line 15, "):
            _build(broken, loader)
    with pytest.raises(ParseError, match=r"(?s)not valid YAML: .*" + re.escape(message)):
        load_scenario_text(broken)


def test_a_merged_list_of_mappings_keeps_the_first_named(bundled_text):
    scn = load_scenario_text(bundled_text.replace(ROWS_1_TO_3, MERGED_ROWS))
    assert scn.transmit[3] == scn.transmit[2] == (Fraction(1, 2), Fraction(2, 5))
    with pytest.raises(ValidationError, match="constraints.states: 'states' must be a list"):
        load_scenario_text(bundled_text.replace("  states: [1, 2, 3, 4, 5, 6]\n",
                                                "  states: !!set {1, 2, 3, 4, 5, 6}\n"))


def test_a_pair_list_rejects_a_scalar_read_before(bundled_text):
    # the document reads 1 before the pair list, whose item is then a memo hit
    broken = "x: 1\n" + bundled_text.replace("name: assembly cell\n", "name: !!pairs [1]\n")
    for loader, _ in PARSERS:
        with pytest.raises(yaml.YAMLError, match="expected a one-item mapping"):
            _build(broken, loader)


NUMBERS = st.from_regex(r"[-+]?[0-9][0-9_]{0,20}(\.[0-9_]{0,20})?([eE][-+]?[0-9]{1,3})?",
                        fullmatch=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(number=NUMBERS)
@example(number="0." + "0" * 149 + "1")
@example(number="9" * 150 + "." + "9" * 150)
@example(number="1" * 19)
@example(number="0.00")
def test_plain_numbers_read_as_the_reference_loader_reads_them(number):
    # the second sighting is a lookup of the first one's object
    _read_alike("a: [%s, %s]\n" % (number, number))


def _without_direct_table(text):
    return text[: text.index("  success_direct:")] + text[text.index("\ncost:") + 1:]


@pytest.mark.parametrize("text", [
    pytest.param(BUNDLED_TEXT, id="bundled"),
    pytest.param(_without_direct_table(BUNDLED_TEXT), id="bundled_fading_only"),
    *(pytest.param(grid_text(kappa, seed), id="grid%d_seed%d" % (kappa ** 4, seed))
      for kappa in (4, 5) for seed in (1, 2, 3))])
def test_fading_tables_equal_the_oracle(text):
    scn = load_scenario_text(text)
    transmit, success, violations = fading_tables(yaml.load(text, Loader=LineLoader))
    assert violations == []
    assert scn.transmit == transmit
    tables = [scn.transmit]
    if "success_direct" not in text:  # else success is the measured table
        assert scn.success == success
        tables.append(scn.success)
    assert {type(x) for table in tables for row in table.values() for x in row} == {Fraction}


ROW_UNIT = 10 ** 10  # a drawn entry is a whole number of 1e-10


def _spelled(n):
    return "%s%d.%010d" % ("-" if n < 0 else "", *divmod(abs(n), ROW_UNIT))


# four entries of whole hundredths that sum to 1, cut at three drawn points,
# and then one entry nudged by a multiple of 1e-10: within the 1e-9 tolerance
# (5, 10), just past it (11, 20), or far off (1e-2, 2); a nudge below 0 of an
# entry of 0, or the largest one, leaves [0, 1].  A cut at 100 leaves the
# untransmitted last entry 0, where a nudge within the tolerance takes the
# transmitting mass past 1
DISTS = st.builds(
    lambda cuts, j, nudge: [_spelled((b - a) * ROW_UNIT // 100 + nudge * (i == j))
                            for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, 100]))],
    st.lists(st.just(100) | st.integers(0, 100), min_size=3, max_size=3).map(sorted),
    st.integers(0, 3), st.just(0) | st.sampled_from([5, -5, 10, -10, 11, -11, 20, -20,
                                                     10 ** 8, 2 * ROW_UNIT]))
DECODES = (st.integers(0, 100) | st.integers(-5, 105)).map(
    lambda c: _spelled(c * ROW_UNIT // 100))
HEALTHY = ["0.1", "0.2", "0.3", "0.4"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(row=st.tuples(DECODES, DECODES, DISTS, DISTS))
# inside the tolerance; past it; a transmitting mass past 1 within it; entries out of [0, 1]
@example(row=("0.5", "0.5", ["0.5", "0.2", "0.3000000010", "0"], HEALTHY))
@example(row=("0.5", "0.5", ["0.5", "0.2", "0.3000000011", "0"], HEALTHY))
@example(row=("0.5", "0.5", ["0.5", "0.2", "0.3000000005", "0"], HEALTHY))
@example(row=("1.01", "-0.01", ["-0.1", "0.2", "0.3", "0.6"], ["0.1", "1.2", "0.3", "0.4"]))
# numbers past 18 decimal places, summed over their own link's scale
@example(row=("0.5" + "0" * 20 + "1", "0.5", ["0.5", "0.2", "0.3" + "0" * 25 + "1", "0"], HEALTHY))
@example(row=("0.5", "0.5", ["0.5", "0.2", "0.3000000011" + "0" * 25 + "1", "0"], HEALTHY))
@example(row=("0.5", "0.5", HEALTHY, ["0.1", "0.2", "0.3", "0.4" + "0" * 30 + "1"]))
def test_drawn_fading_rows_give_the_oracle_tables_and_messages(row):
    # the drawn row is state 1's; the bundled rows of states 2 and 3 stay
    rows = ROWS_1_TO_3.split("\n", 1)
    drawn = "    1: {decode: [%s, %s], dist: [[%s], [%s]]}\n" % (
        row[0], row[1], ", ".join(row[2]), ", ".join(row[3]))
    text = _without_direct_table(BUNDLED_TEXT).replace(ROWS_1_TO_3, drawn + rows[1])
    transmit, success, violations = fading_tables(yaml.load(text, Loader=LineLoader))
    if violations:
        assert _reject(text) == ["<string>:%d: %s: %s" % v for v in violations]
    else:
        scn = load_scenario_text(text)
        assert (scn.transmit, scn.success) == (transmit, success)


def _fading_of(text):
    """(fading rows, transmit policy, agent model, the load's scalar memo)."""
    builder = _Builder(_LOADER(text))
    channel = builder.document()["channel"]
    return (channel["fading"], channel["transmit_policy"], load_scenario_text(text).mas,
            builder.scalars)


def test_fading_numbers_outside_the_scalar_memo_are_read_by_their_value():
    # rows built by hand: each number a new object the load's memo does not hold
    fading, flags, model, scalars = _fading_of(BUNDLED_TEXT)
    fresh = {a: {k: [[scenario_module._Number(x) for x in v] if isinstance(v, list) else
                     scenario_module._Number(v) for v in row[k]] for k in row}
             for a, row in fading.items()}
    assert [id(x) for row in fresh.values() for x in row["decode"]
            if id(x) in _Collector("<string>", scalars).units] == []
    want = scenario_module._fading_rows(fading, flags, model, _Collector("<string>", scalars), 1)
    got = scenario_module._fading_rows(fresh, flags, model, _Collector("<string>", scalars), 1)
    assert got == want
    assert {len(shares) for table in got for shares in table.values()} == {len(flags)}


@pytest.mark.parametrize("number", ["0.3000000000000000444089209850062616", "4.9e-324", "1.0e-300"])
def test_a_long_decimal_outside_the_fading_rows_leaves_their_scale(number):
    # the rows are summed over short numbers only, whatever the cost section holds
    text = _without_direct_table(BUNDLED_TEXT)
    long = text.replace("input_weight: 1\n", "input_weight: %s\n" % number)
    assert long != text
    scales = [_Collector("<string>", _fading_of(t)[3]).scale for t in (text, long)]
    assert scales[0] == scales[1] and _SHORT % scales[0] == 0
    assert load_scenario_text(long).success == load_scenario_text(text).success


def test_loading_a_625_state_grid_peaks_under_2_mb():
    # libyaml's node graph and PyYAML's constructor peaked at 5.96 MB here
    text = grid_text(5, 1)
    tracemalloc.start()
    try:
        load_scenario_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read scenario"):
        load_scenario(tmp_path / "absent.yaml")


def test_undecodable_file_is_named(tmp_path):
    path = tmp_path / "utf16.yaml"
    path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    with pytest.raises(ParseError, match="cannot read scenario %s: 'utf-8' codec can't decode"
                       % re.escape(str(path))):
        load_scenario(path)


# ── Group 4: synthetic documents ─────────────────────────────────────────────

def test_minimal_scenario_loads_clean():
    scn = load_scenario_text(MINIMAL, source="probe.yaml")
    assert scn.name == "single loop probe"
    assert scn.warnings == ()
    assert scn.alpha0 == 1
    assert scn.cost.tau == 4
    assert scn.source == "probe.yaml"
    assert scn.s_override is None and scn.x0 is None
    assert scn.transmit == {1: (1,), 2: (1,)}
    assert scn.success == {1: (1,), 2: (Fraction(1, 2),)}


def test_cost_table_checks_every_row():
    scn = load_scenario_text(MINIMAL.replace("input_costs: [3, 3]", "table: [[3, 3], [1, 2]]"))
    assert scn.cost.g == ((3, 3), (1, 2))
    # the loader is the only check of the cost section
    for old, new, field, message in [
        ("input_costs: [3, 3]", "table: [[3, 3], [3, -1]]", "cost.table[1][1]", "must be >= 0"),
        ("input_costs: [3, 3]", "table: [[3, 3], [3]]", "cost.table[1]", "must list 2 entries"),
        ("input_costs: [3, 3]", "input_costs: [0, -1]", "cost.input_costs[1]",
         "must be >= 0, got -1"),
        ("input_costs: [3, 3]", "input_costs: [3]", "cost.input_costs", "must list 2 entries"),
        ("input_weight: 0", "input_weight: -1", "cost.input_weight", "must be >= 0, got -1"),
        ("fast_steps_per_slow: 4", "fast_steps_per_slow: 0", "fast_steps_per_slow",
         "must be >= 1, got 0"),
        ("fast_steps_per_slow: 4", "fast_steps_per_slow: 2.0", "fast_steps_per_slow",
         "expected an integer, got 2.0"),
    ]:
        _reject_once(MINIMAL, old, new, field, message)


def test_per_state_input_maps():
    scn = load_scenario_text(MINIMAL)
    assert scn.constraints.inputs_for(1) == frozenset({1, 2})
    assert scn.constraints.inputs_for(2) == frozenset({2})


def test_per_state_input_map_must_cover_all_states():
    broken = MINIMAL.replace("    2: [[1]]\n", "")
    violations = _reject(broken)
    assert any("no input set for admissible states [2]" in v for v in violations)


def test_direct_table_alone_suffices():
    text = MINIMAL.replace(
        "  fading:\n"
        "    1: {decode: [1.0], dist: [[1.0]]}\n"
        "    2: {decode: [0.5], dist: [[1.0]]}\n",
        "  success_direct:\n"
        "    - [1.0, 0.5]\n",
    )
    scn = load_scenario_text(text)
    assert scn.transmit is None
    assert scn.success == {1: (1,), 2: (Fraction(1, 2),)}


def test_lyapunov_weight_for_slow_stable_loop():
    text = MINIMAL.replace("  - a_closed: 0.5\n", "  - a_closed: 0.999\n").replace(
        "    quality_weight: 1.0\n", "    quality_weight: lyapunov\n")
    scn = load_scenario_text(text)
    q = scn.plants[0].q
    assert abs(q[0, 0] - 1.0 / (1.0 - 0.999 ** 2)) < 1e-9


def test_channel_needs_some_success_source():
    broken = MINIMAL.replace(
        "  fading:\n"
        "    1: {decode: [1.0], dist: [[1.0]]}\n"
        "    2: {decode: [0.5], dist: [[1.0]]}\n",
        "",
    )
    violations = _reject(broken)
    assert any(
        "needs fading tables, a direct success table, or both" in v
        for v in violations
    )


# ── Group 5: single edits of the bundled document ────────────────────────────

def _node_paths(node, path=()):
    """Path of every node of a YAML document below its root, and whether
    the node is a mapping."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), isinstance(child, dict)
        yield from _node_paths(child, path + (key,))


NODES = [p for p, _ in _node_paths(BUNDLED_DOC)]
MAPPINGS = [()] + [p for p, is_map in _node_paths(BUNDLED_DOC) if is_map]
VALUES = st.sampled_from([
    None, True, 0, 1, 2, 3, 5, -1, 0.5, 1.5, float("nan"), float("inf"), "x",
    "lyapunov", "identity", [], {}, [0], [1, 0], [[1.0]], [[0.5, 0.1], [0.1, 0.5]]])
KEYS = st.sampled_from([
    0, 1, 2, 3, 5, "x", "name", "inputs", "table", "fading", "success_direct",
    "initial_state", "thresholds_override", "simulation", "quality_weight", "noise_cov"])
EDITS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(NODES), VALUES),
    st.tuples(st.just("delete"), st.sampled_from(NODES)),
    st.tuples(st.just("add"), st.sampled_from(MAPPINGS), KEYS, VALUES),
)


def _edited(edit):
    """The bundled document with one edit applied, as YAML text."""
    doc = copy.deepcopy(BUNDLED_DOC)
    op, path, *args = edit
    if op == "add":  # a new key and its value in the mapping at path
        path += (args[0],)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if op == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(args[-1])
    return yaml.safe_dump(doc, sort_keys=False)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(edit=EDITS)
@example(edit=("add", ("agents", "weights", 1), 5, 1))
def test_one_edit_is_rejected_or_runs_to_a_result(edit):
    text = _edited(edit)
    _read_alike(text)
    try:
        scn = load_scenario_text(text)
    except (ParseError, ValidationError):
        return
    for name in ("mas", "constraints", "plants", "success", "cost", "alpha0"):
        assert getattr(scn, name) is not None, name
    # every admissible state has a success probability on each link, and
    # every transmit entry a share on each link
    links = len(scn.plants)
    for a in scn.constraints.state_set:
        assert len(scn.success[a]) == links, a
    for shares in (scn.transmit or {}).values():
        assert len(shares) == links
    try:  # the document's override, else the computed thresholds
        synthesize(scn, stabilize(scn))
    except ToolkitError:
        pass
