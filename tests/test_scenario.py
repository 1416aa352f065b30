"""Scenario loading and validation.

Proves:
 Group 1 - the bundled scenario loads into exact, fully wired objects
 Group 2 - malformed documents are rejected with located messages, and
           every violation in a document is reported at once
 Group 3 - parse failures (invalid YAML, a key written twice) and
           unreadable paths raise ParseError
 Group 4 - small synthetic documents exercise the alternate spellings
           (per-state input maps, scalar plants, no direct table, a
           Lyapunov weight for a slow-but-stable loop)
"""

import re
from fractions import Fraction

import pytest

from fadectrl.errors import ParseError, ValidationError
from fadectrl.scenario import load_scenario, load_scenario_text

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
    assert scenario.wcs.link_count == 2
    # link 1 transmits in local states 0..2 of state 2's row [0.1, 0.1, 0.3, 0.5]
    assert scenario.transmit.prob(0, 2) == Fraction("0.5")
    assert scenario.transmit.prob(1, 2) == Fraction("0.4")


def test_bundled_cost_and_thresholds_are_exact(scenario):
    assert scenario.cost.tau == 40
    assert scenario.cost.lam == Fraction(1)
    assert scenario.cost.input_cost(2, 5) == Fraction(20)
    assert scenario.s_override == (Fraction("0.29"), Fraction("0.10"))
    assert all(isinstance(s, Fraction) for s in scenario.s_override)


def test_bundled_success_precedence(scenario):
    # measured 0.10 wins over the derived 0.25 (decode) * 0.3 (transmit)
    assert scenario.success.prob(1, 5) == Fraction("0.10")
    assert scenario.transmit.prob(1, 5) == Fraction("0.3")


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


@pytest.mark.parametrize("old, new, field, message", [
    ("    a_closed: 0.2\n", "    a_closed: .nan\n",
     "plants[1].a_closed", "matrix entries must be finite"),
    ("    a_open: 1.0\n", "    a_open: -.inf\n",
     "plants[1].a_open", "matrix entries must be finite"),
    ("a_closed: [[-0.1, -0.1], [0.1, 0.2]]", "a_closed: [[-0.1, .nan], [0.1, 0.2]]",
     "plants[0].a_closed", "matrix entries must be finite"),
    ("    noise_cov: 1.0\n", "    noise_cov: .inf\n",
     "plants[1].noise_cov", "matrix entries must be finite"),
    ("    decay_rate: 0.9\n", "    decay_rate: .inf\n",
     "plants[1].decay_rate", "must be a finite number"),
    ("initial_plant_states: [[1.0, 1.0], [1.0]]",
     "initial_plant_states: [[1.0, .nan], [1.0]]",
     "simulation.initial_plant_states[0]", "must list 2 finite numbers"),
])
def test_non_finite_numbers_are_rejected(bundled_text, old, new, field, message):
    _reject_once(bundled_text, old, new, field, message)


@pytest.mark.parametrize("old, new, field, message", [
    ("1: {decode: [0.18, 0.44]", "1: {decode: [1.5, 0.44]",
     "channel.fading[1].decode[0]", "must be <= 1"),
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


# ── Group 3: parse errors ────────────────────────────────────────────────────

def test_invalid_yaml():
    with pytest.raises(ParseError, match="not valid YAML"):
        load_scenario_text("plants: [unclosed\n  - nope: {")


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
    text = MINIMAL.replace("  - a_closed: 0.5\n", "  - &loop\n    a_closed: 0.5\n") + (
        "spare: {<<: *loop, a_closed: 0.25}\n")
    assert load_scenario_text(text).wcs.plants[0].a_c[0, 0] == 0.5


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read scenario"):
        load_scenario(tmp_path / "absent.yaml")


# ── Group 4: synthetic documents ─────────────────────────────────────────────

def test_minimal_scenario_loads_clean():
    scn = load_scenario_text(MINIMAL, source="probe.yaml")
    assert scn.name == "single loop probe"
    assert scn.warnings == ()
    assert scn.alpha0 == 1
    assert scn.cost.tau == 4
    assert scn.source == "probe.yaml"
    assert scn.s_override is None and scn.x0 is None
    assert scn.transmit.prob(0, 2) == 1
    assert scn.success.prob(0, 2) == Fraction(1, 2)


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
    assert scn.success.prob(0, 1) == Fraction(1)


def test_lyapunov_weight_for_slow_stable_loop():
    text = MINIMAL.replace("  - a_closed: 0.5\n", "  - a_closed: 0.999\n").replace(
        "    quality_weight: 1.0\n", "    quality_weight: lyapunov\n")
    scn = load_scenario_text(text)
    q = scn.wcs.plants[0].q
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
