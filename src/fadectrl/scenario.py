"""Scenario documents: one YAML file describing the whole co-design problem.

Sections: plants (the control loops), agents (the finite-field mobile
system), constraints (admissible agent states and inputs), channel
(transmit policy plus either fading tables, a measured success table,
or both), cost (input prices and the power/input weighting), optional
thresholds_override and simulation defaults.

Agent states and inputs may be written as 1-based basis indices; list
entries may also be value tuples, mapping keys may not.  Probabilities
and costs are re-read as exact fractions of their decimal spelling so
downstream comparisons and cycle means are exact.  Validation collects
every violation (with file line numbers) before rejecting, and a
rejected scenario produces no objects at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from .channel import SuccessTable, consistency_gaps, derive_tables
from .errors import ParseError, ToolkitError, ValidationError
from .mas import ConstraintSets, MasModel, to_index
from .synthesis import StageCost
from .wcs import Plant, WcsModel, default_lyapunov_weight

ROW_MASS_TOL = 1e-9


class _LineMixin:
    """Loader mixin that stamps each mapping with its 1-based source line
    and rejects a key written twice in one mapping (a merged ``<<`` key
    may still be overridden) or a key that cannot be hashed."""

    def construct_mapping(self, node, deep=False):
        lines = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            # deep, so a sequence key is filled in before an error shows it
            key = self.construct_object(key_node, deep=True)
            line = key_node.start_mark.line + 1
            try:
                duplicate = key in lines
            except TypeError:
                raise yaml.constructor.ConstructorError(
                    problem="mapping key %r at line %d is not a scalar; agent-state "
                    "mapping keys must be 1-based basis indices" % (key, line)) from None
            if duplicate:
                raise yaml.constructor.ConstructorError(
                    problem="duplicate key %r at line %d, first written at line %d"
                    % (key, line, lines[key]))
            lines[key] = line
        mapping = super().construct_mapping(node, deep=deep)
        mapping["__line__"] = node.start_mark.line + 1
        return mapping


class _LineLoader(_LineMixin, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The line-stamping loader on libyaml's parser when PyYAML was built
    with it, else on the pure-Python one; both give equal documents."""


def _line(obj, default=0):
    if isinstance(obj, dict):
        return obj.get("__line__", default)
    return default


def _keys(mapping):
    return [k for k in mapping if k != "__line__"]


@dataclass
class Scenario:
    source: str
    mas: MasModel
    constraints: ConstraintSets
    wcs: WcsModel
    success: SuccessTable     # measured if given, else derived
    transmit: object          # SuccessTable, or None without fading tables
    cost: StageCost
    alpha0: int
    s_override: tuple = None
    x0: tuple = None
    warnings: tuple = ()
    name: str = ""


class _Collector:
    def __init__(self, source):
        self.source = source
        self.errors = []
        # (type, YAML number) -> its exact Fraction, for this document only;
        # the type is part of the key since 2**60 == 1.152921504606847e18
        # while their decimal spellings differ
        self.fractions = {}

    def err(self, line, path, msg):
        where = "%s:%s" % (self.source, line) if line else self.source
        self.errors.append("%s: %s: %s" % (where, path, msg))

    def raise_if_any(self):
        if self.errors:
            raise ValidationError(self.errors)


def _as_map(doc, key, ctx, path, required=True):
    v = doc.get(key)
    if v is None:
        if required:
            ctx.err(_line(doc), path, "missing required section '%s'" % key)
        return None
    if not isinstance(v, dict):
        ctx.err(_line(doc), path, "'%s' must be a mapping" % key)
        return None
    return v


def _as_list(container, key, ctx, path, required=True):
    v = container.get(key)
    if v is None:
        if required:
            ctx.err(_line(container), path, "missing required key '%s'" % key)
        return None
    if not isinstance(v, list):
        ctx.err(_line(container), path, "'%s' must be a list" % key)
        return None
    return v


def _as_int(v, ctx, line, path, lo=None):
    if not isinstance(v, int) or isinstance(v, bool):
        ctx.err(line, path, "expected an integer, got %r" % (v,))
        return None
    if lo is not None and v < lo:
        ctx.err(line, path, "must be >= %d, got %d" % (lo, v))
        return None
    return v


def _exact(v, ctx, line, path, lo=None, hi=None):
    """Exact rational from a YAML number (decimal spelling preserved)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        ctx.err(line, path, "expected a number, got %r" % (v,))
        return None
    if isinstance(v, float) and not math.isfinite(v):
        ctx.err(line, path, "must be a finite number, got %s" % (v,))
        return None
    key = (type(v), v)
    f = ctx.fractions.get(key)
    if f is None:
        if isinstance(v, int):
            f = Fraction(v)
        else:
            try:
                f = Fraction(str(v))
            except ValueError:
                f = Fraction(v)
        ctx.fractions[key] = f
    if lo is not None and f < lo:
        ctx.err(line, path, "must be >= %s, got %s" % (lo, v))
        return None
    if hi is not None and f > hi:
        ctx.err(line, path, "must be <= %s, got %s" % (hi, v))
        return None
    return f


def _exact_list(v, n, ctx, line, path, what, lo=None, hi=None):
    """Tuple of n exact numbers, or None once the list or its bad entries
    are reported."""
    if not isinstance(v, list) or len(v) != n:
        ctx.err(line, path, "must list %d %s" % (n, what))
        return None
    errors = len(ctx.errors)  # _exact reports every entry it rejects
    row = tuple([_exact(x, ctx, line, "%s[%d]" % (path, j), lo, hi) for j, x in enumerate(v)])
    return row if len(ctx.errors) == errors else None


def _matrix(v, ctx, line, path):
    """Scalar or list-of-lists to a square float matrix of finite entries."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        v = [[v]]
    if not (isinstance(v, list) and v and all(isinstance(r, list) for r in v)):
        ctx.err(line, path, "expected a scalar or a square list-of-lists matrix")
        return None
    if any(len(r) != len(v) for r in v):
        ctx.err(line, path, "matrix must be square")
        return None
    try:
        m = np.array(v, dtype=float)
    except (TypeError, ValueError):
        ctx.err(line, path, "matrix entries must be numbers")
        return None
    if not np.isfinite(m).all():
        ctx.err(line, path, "matrix entries must be finite")
        return None
    return m


def _state_index(v, model: MasModel, ctx, line, path):
    """Basis index (1-based int) or value tuple -> basis index."""
    nn = model.state_count
    if isinstance(v, int) and not isinstance(v, bool):
        if 1 <= v <= nn:
            return v
        ctx.err(line, path, "index %d outside 1..%d" % (v, nn))
        return None
    if isinstance(v, list):
        if len(v) != model.n:
            ctx.err(line, path, "tuple must have %d coordinates" % model.n)
            return None
        if not all(isinstance(c, int) and not isinstance(c, bool)
                   and 0 <= c < model.kappa for c in v):
            ctx.err(line, path, "coordinates must be integers in 0..%d" % (model.kappa - 1))
            return None
        return int(to_index(model, v))
    ctx.err(line, path, "expected a basis index or a value tuple")
    return None


def _parse_agents(doc, ctx):
    sec = _as_map(doc, "agents", ctx, "agents")
    if sec is None:
        return None, None
    ln = _line(sec)
    n = _as_int(sec.get("count"), ctx, ln, "agents.count", lo=1)
    kappa = _as_int(sec.get("kappa"), ctx, ln, "agents.kappa", lo=2)
    weights_sec = sec.get("weights")
    if n is None or kappa is None or not isinstance(weights_sec, dict):
        if not isinstance(weights_sec, dict):
            ctx.err(ln, "agents.weights", "must map agent id -> {neighbor: weight}")
        return None, None
    wln = _line(weights_sec, ln)
    maps = [dict() for _ in range(n)]
    ok = True
    declared = set(_keys(weights_sec))
    for j in range(1, n + 1):
        if j not in declared:
            ctx.err(wln, "agents.weights", "agent %d has no weight map" % j)
            ok = False
    for j in sorted(declared, key=str):
        row = weights_sec[j]
        jid = _as_int(j, ctx, wln, "agents.weights key %r" % (j,), lo=1)
        if jid is None or jid > n:
            ctx.err(wln, "agents.weights", "agent id %r outside 1..%d" % (j, n))
            ok = False
            continue
        if not isinstance(row, dict):
            ctx.err(wln, "agents.weights[%d]" % jid, "must be a mapping")
            ok = False
            continue
        rln = _line(row, wln)
        for l in sorted(_keys(row), key=str):
            lid = _as_int(l, ctx, rln, "agents.weights[%d] neighbor %r" % (jid, l), lo=1)
            a = _as_int(row[l], ctx, rln, "agents.weights[%d][%r]" % (jid, l), lo=0)
            if lid is None or a is None or lid > n:
                ok = False
                continue
            if a >= kappa:
                ctx.err(rln, "agents.weights[%d][%d]" % (jid, lid),
                        "weight %d outside 0..%d" % (a, kappa - 1))
                ok = False
                continue
            maps[jid - 1][lid - 1] = a
    for j in range(n):
        if ok and j not in maps[j]:
            ctx.err(wln, "agents.weights[%d]" % (j + 1),
                    "missing the agent's own weight")
            ok = False
    if not ok:
        return None, None
    try:
        model = MasModel(n, kappa, tuple(maps))
    except ToolkitError as e:
        ctx.err(ln, "agents", str(e))
        return None, None
    alpha0 = None
    if "initial_state" not in sec:
        ctx.err(ln, "agents.initial_state", "missing required key")
    else:
        alpha0 = _state_index(sec["initial_state"], model, ctx, ln, "agents.initial_state")
    return model, alpha0


def _parse_constraints(doc, model, ctx):
    sec = _as_map(doc, "constraints", ctx, "constraints")
    if sec is None or model is None:
        return None
    ln = _line(sec)
    states_raw = _as_list(sec, "states", ctx, "constraints.states")
    if states_raw is None:
        return None
    states = []
    for i, s in enumerate(states_raw):
        idx = _state_index(s, model, ctx, ln, "constraints.states[%d]" % i)
        if idx is not None:
            states.append(idx)
    if not states:
        ctx.err(ln, "constraints.states", "admissible state set is empty")
        return None
    inputs_raw = sec.get("inputs")
    input_map = {}
    if isinstance(inputs_raw, list):
        inputs = []
        for i, u in enumerate(inputs_raw):
            idx = _state_index(u, model, ctx, ln, "constraints.inputs[%d]" % i)
            if idx is not None:
                inputs.append(idx)
        if not inputs:
            ctx.err(ln, "constraints.inputs", "admissible input set is empty")
            return None
        input_map = {a: frozenset(inputs) for a in states}
    elif isinstance(inputs_raw, dict):
        iln = _line(inputs_raw, ln)
        for key in _keys(inputs_raw):
            a = _state_index(key, model, ctx, iln, "constraints.inputs key %r" % (key,))
            lst = inputs_raw[key]
            if a is None or not isinstance(lst, list):
                ctx.err(iln, "constraints.inputs[%r]" % (key,), "must be a list")
                continue
            got = []
            for i, u in enumerate(lst):
                idx = _state_index(u, model, ctx, iln,
                                   "constraints.inputs[%r][%d]" % (key, i))
                if idx is not None:
                    got.append(idx)
            input_map[a] = frozenset(got)
        missing = [a for a in states if a not in input_map]
        if missing:
            ctx.err(iln, "constraints.inputs",
                    "no input set for admissible states %s" % missing)
            return None
    else:
        ctx.err(ln, "constraints.inputs", "must be a list or a per-state mapping")
        return None
    try:
        cons = ConstraintSets(frozenset(states), input_map)
        cons.validate_against(model)
    except ToolkitError as e:
        ctx.err(ln, "constraints", str(e))
        return None
    return cons


def _parse_plants(doc, ctx):
    plants_raw = doc.get("plants")
    if not isinstance(plants_raw, list) or not plants_raw:
        ctx.err(_line(doc), "plants", "must be a nonempty list")
        return None
    plants = []
    broken = False
    for i, sec in enumerate(plants_raw):
        path = "plants[%d]" % i
        if not isinstance(sec, dict):
            ctx.err(_line(doc), path, "each plant must be a mapping")
            broken = True
            continue
        ln = _line(sec)
        a_c = _matrix(sec.get("a_closed"), ctx, ln, path + ".a_closed")
        a_o = _matrix(sec.get("a_open"), ctx, ln, path + ".a_open")
        rho = _exact(sec.get("decay_rate"), ctx, ln, path + ".decay_rate")
        mu = _exact(sec.get("power_price"), ctx, ln, path + ".power_price")
        if a_c is None or a_o is None or rho is None or mu is None:
            broken = True
            continue
        qspec = sec.get("quality_weight", "lyapunov")
        if qspec == "lyapunov":
            try:
                qw = default_lyapunov_weight(a_c)
            except ToolkitError as e:
                ctx.err(ln, path + ".quality_weight", str(e))
                broken = True
                continue
        elif qspec == "identity":
            qw = np.eye(a_c.shape[0])
        else:
            qw = _matrix(qspec, ctx, ln, path + ".quality_weight")
            if qw is None:
                broken = True
                continue
        xspec = sec.get("noise_cov", "identity")
        if xspec == "identity":
            xi = np.eye(a_c.shape[0])
        else:
            xi = _matrix(xspec, ctx, ln, path + ".noise_cov")
            if xi is None:
                broken = True
                continue
        try:
            plants.append(Plant(a_c, a_o, qw, float(rho), xi, mu,
                                name=str(sec.get("name", "plant%d" % (i + 1)))))
        except ToolkitError as e:
            ctx.err(ln, path, str(e))
            broken = True
    if broken:
        return None
    return WcsModel(tuple(plants))


def _parse_channel(doc, model, constraints, wcs_model, ctx):
    """(transmit table or None, success table to use, warnings)."""
    sec = _as_map(doc, "channel", ctx, "channel")
    if sec is None or model is None or wcs_model is None:
        return None, None, ()
    ln = _line(sec)
    q = wcs_model.link_count
    nn = model.state_count
    r = _as_int(sec.get("local_states"), ctx, ln, "channel.local_states", lo=1)
    pol_raw = _as_list(sec, "transmit_policy", ctx, "channel.transmit_policy")
    flags = None
    if r is not None and pol_raw is not None:
        if len(pol_raw) != q:
            ctx.err(ln, "channel.transmit_policy",
                    "%d rows for %d links" % (len(pol_raw), q))
        else:
            ok = True
            for i, row in enumerate(pol_raw):
                if (not isinstance(row, list) or len(row) != r
                        or any(b not in (0, 1) for b in row)):
                    ctx.err(ln, "channel.transmit_policy[%d]" % i,
                            "must be a list of %d zero/one flags" % r)
                    ok = False
            if ok:
                flags = [[int(b) for b in row] for row in pol_raw]

    fading_raw = sec.get("fading")
    transmit = derived = None
    if fading_raw is not None and flags is not None:
        if not isinstance(fading_raw, dict):
            ctx.err(ln, "channel.fading", "must map agent state -> row")
        else:
            gamma = [[None] * nn for _ in range(q)]
            eta = [[None] * nn for _ in range(q)]
            ok = True
            for key in _keys(fading_raw):
                row = fading_raw[key]
                rln = _line(row, _line(fading_raw, ln))
                a = _state_index(key, model, ctx, rln, "channel.fading key %r" % (key,))
                if a is None or not isinstance(row, dict):
                    if a is not None:
                        ctx.err(rln, "channel.fading[%r]" % (key,), "must be a mapping")
                    ok = False
                    continue
                path = "channel.fading[%r]" % (key,)
                decode = _as_list(row, "decode", ctx, path + ".decode")
                dist = _as_list(row, "dist", ctx, path + ".dist")
                if decode is None or dist is None:
                    ok = False
                    continue
                if len(decode) != q or len(dist) != q:
                    ctx.err(rln, path, "decode/dist must carry one entry per link (%d)" % q)
                    ok = False
                    continue
                for i in range(q):
                    e = _exact(decode[i], ctx, rln, path + ".decode[%d]" % i, lo=0, hi=1)
                    if e is None:
                        ok = False
                        continue
                    probs = _exact_list(dist[i], r, ctx, rln, path + ".dist[%d]" % i,
                                        "probabilities", lo=0, hi=1)
                    if probs is None:
                        ok = False
                        continue
                    mass = sum(probs)
                    # within the tolerance a row may sum past 1, but the share
                    # its radio transmits in is a probability
                    sent = sum(p for p, b in zip(probs, flags[i]) if b) if mass > 1 else 0
                    if abs(mass - 1) > ROW_MASS_TOL:
                        ctx.err(rln, path + ".dist[%d]" % i,
                                "probabilities sum to %s, expected 1" % float(mass))
                        ok = False
                    elif sent > 1:
                        ctx.err(rln, path + ".dist[%d]" % i,
                                "transmitting probabilities sum to %s, above 1" % float(sent))
                        ok = False
                    else:
                        gamma[i][a - 1] = probs
                        eta[i][a - 1] = e
            if ok:
                transmit, derived = derive_tables(flags, gamma, eta)

    direct_raw = sec.get("success_direct")
    direct = None
    if direct_raw is not None:
        if not isinstance(direct_raw, list) or len(direct_raw) != q:
            ctx.err(ln, "channel.success_direct", "must list %d rows (one per link)" % q)
        else:
            rows = [_exact_list(row, nn, ctx, ln, "channel.success_direct[%d]" % i,
                                "probabilities", lo=0, hi=1)
                    for i, row in enumerate(direct_raw)]
            if None not in rows:
                direct = SuccessTable(nn, rows)

    if derived is None and direct is None and flags is not None:
        ctx.err(ln, "channel", "needs fading tables, a direct success table, or both")
    # every admissible state must have a usable success probability
    if constraints is not None and flags is not None:
        for a in sorted(constraints.state_set):
            have = direct is not None or (derived is not None and
                                          all(row[a - 1] is not None for row in derived.values))
            if not have:
                ctx.err(ln, "channel", "state %d is admissible but not covered" % a)
    if direct is None or derived is None:
        return transmit, direct if direct is not None else derived, ()
    warnings = tuple(
        "measured success table overrides derived value at link %d, "
        "state %d: measured %s vs derived %s" % (i + 1, a, float(d), float(e))
        for i, a, d, e in consistency_gaps(direct, derived)
    )
    return transmit, direct, warnings


def _parse_cost(doc, model, ctx):
    sec = _as_map(doc, "cost", ctx, "cost")
    if sec is None or model is None:
        return None
    ln = _line(sec)
    tau = _as_int(doc.get("fast_steps_per_slow"), ctx, _line(doc),
                  "fast_steps_per_slow", lo=1)
    lam = _exact(sec.get("input_weight"), ctx, ln, "cost.input_weight", lo=0)
    nn = model.state_count
    g = None
    if "input_costs" in sec and "table" in sec:
        ctx.err(ln, "cost", "give either input_costs or table, not both")
        return None
    if "input_costs" in sec:
        row_raw = _as_list(sec, "input_costs", ctx, "cost.input_costs")
        if row_raw is None:
            return None
        row = _exact_list(row_raw, nn, ctx, ln, "cost.input_costs", "entries", lo=0)
        if row is None:
            return None
        g = (row,) * nn  # one row object, shared by every state
    elif "table" in sec:
        tab_raw = _as_list(sec, "table", ctx, "cost.table")
        if tab_raw is None or len(tab_raw) != nn:
            ctx.err(ln, "cost.table", "must list %d rows (one per state)" % nn)
            return None
        rows = []
        for a, rrow in enumerate(tab_raw):
            row = _exact_list(rrow, nn, ctx, ln, "cost.table[%d]" % a, "entries", lo=0)
            if row is None:
                return None
            rows.append(row)
        g = tuple(rows)
    else:
        ctx.err(ln, "cost", "missing input_costs or table")
        return None
    if tau is None or lam is None:
        return None
    try:
        return StageCost(tau, lam, g)
    except ToolkitError as e:
        ctx.err(ln, "cost", str(e))
        return None


def load_scenario_text(text: str, source: str = "<string>") -> Scenario:
    try:
        doc = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as e:
        raise ParseError("%s: not valid YAML: %s" % (source, e)) from e
    if not isinstance(doc, dict):
        raise ParseError("%s: document must be a key-value mapping" % source)

    ctx = _Collector(source)
    model, alpha0 = _parse_agents(doc, ctx)
    constraints = _parse_constraints(doc, model, ctx)
    wcs_model = _parse_plants(doc, ctx)
    transmit, success, warnings = _parse_channel(doc, model, constraints, wcs_model, ctx)
    cost = _parse_cost(doc, model, ctx)

    if alpha0 is not None and constraints is not None and alpha0 not in constraints.state_set:
        ctx.err(_line(doc), "agents.initial_state",
                "state %d is not in the admissible state set" % alpha0)

    s_override = None
    if "thresholds_override" in doc and wcs_model is not None:
        s_override = _exact_list(doc["thresholds_override"], wcs_model.link_count, ctx,
                                 _line(doc), "thresholds_override", "probabilities",
                                 lo=0, hi=1)

    x0 = None
    sim_sec = _as_map(doc, "simulation", ctx, "simulation", required=False)
    if sim_sec is not None:
        sln = _line(sim_sec)
        for key in _keys(sim_sec):
            if key != "initial_plant_states":
                ctx.err(sln, "simulation", "unknown key %r; the section takes only "
                        "'initial_plant_states'" % (key,))
        raw = sim_sec.get("initial_plant_states")
        if raw is not None and wcs_model is not None:
            if not isinstance(raw, list) or len(raw) != wcs_model.link_count:
                ctx.err(sln, "simulation.initial_plant_states",
                        "must list %d vectors" % wcs_model.link_count)
            else:
                vecs = []
                for i, v in enumerate(raw):
                    vec = v if isinstance(v, list) else [v]
                    plant = wcs_model.plants[i]
                    if len(vec) != plant.dim or not all(
                            isinstance(c, (int, float)) and not isinstance(c, bool)
                            and math.isfinite(c) for c in vec):
                        ctx.err(sln, "simulation.initial_plant_states[%d]" % i,
                                "must list %d finite numbers" % plant.dim)
                    else:
                        vecs.append(tuple(float(c) for c in vec))
                if len(vecs) == wcs_model.link_count:
                    x0 = tuple(vecs)

    ctx.raise_if_any()

    return Scenario(
        source=source,
        mas=model,
        constraints=constraints,
        wcs=wcs_model,
        success=success,
        transmit=transmit,
        cost=cost,
        alpha0=alpha0,
        s_override=s_override,
        x0=x0,
        warnings=warnings,
        name=str(doc.get("name", "")),
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ParseError("cannot read scenario %s: %s" % (p, e)) from e
    return load_scenario_text(text, str(p))
