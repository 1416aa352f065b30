"""Scenario documents: one YAML file describing the whole co-design problem.

Sections: plants (the control loops), agents (the finite-field mobile
system), constraints (admissible agent states and inputs), channel
(transmit policy plus either fading tables, a measured success table,
or both), cost (input prices and the power/input weighting), optional
thresholds_override and simulation defaults.

Agent states and inputs may be written as 1-based basis indices; list
entries may also be value tuples, mapping keys may not.  Each float is
read once, as the exact fraction of its own decimal spelling, so
downstream comparisons and cycle means are exact.  Validation collects
every violation (with file line numbers) before rejecting, a mapping
with fixed keys takes no other key, and a rejected scenario produces no
objects at all.  Each section parser returns its object exactly when it
reported no violation since it began, so a check that needs an earlier
value runs only on a clean one and reports nothing twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from numbers import Real
from pathlib import Path

import numpy as np
import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor

from .channel import consistency_gaps
from .errors import ParseError, ToolkitError, ValidationError
from .mas import ConstraintSets, MasModel, require_index_range, to_index
from .wcs import Plant, default_lyapunov_weight

ROW_MASS_TOL = Fraction(1e-9)  # the float's exact value, for integer comparisons
_TOL = ROW_MASS_TOL.as_integer_ratio()
_SHORT = 10 ** 18  # a number with at most 18 decimal places is a whole number of 1/_SHORT


class _Map(dict):
    """A YAML mapping; `line` is its 1-based source line and `lines` maps
    each key written on another line to that line, or is None: a dict for
    every flow-style row cost a 625-row document 2 MB of peak RSS."""

    __slots__ = ("line", "lines")


class _Number(Fraction):
    """The exact value of a YAML float.  It prints as the float64 it spells
    (`1.5`, `40.0`), so messages and names quote it as they quote a float."""

    __slots__ = ()

    def __repr__(self):
        return repr(float(self))

    __str__ = __repr__


def _unreadable(node, what, e=None):
    """The located parse error of a scalar with no reading as `what`; its
    mark has no source snippet, which only the pure-Python parser keeps."""
    m = node.start_mark
    text = node.value.replace("_", "") if what == "a number" else node.value  # numbers drop "_"
    return ConstructorError(
        None, None, "cannot read %r as %s%s" % (text, what, "" if e is None else ": %s" % e),
        yaml.Mark(m.name, m.index, m.line, m.column, None, None))


def _exact_float(loader, node):
    """The exact `_Number` of a float's text, underscores dropped, or its float64
    image if not finite; an image of 0 reads as 0 (1e-99999999 needs 10**99999999)."""
    number = loader.construct_yaml_float(node)
    return _Number(node.value.replace("_", "") if number else 0) \
        if math.isfinite(number) else number


def _exact_int(loader, node):
    """An int, or as for a float the infinity that is its float64 image; a
    base-60 int (`1:30`) has no reading, as a base-60 float has none."""
    if ":" in node.value:
        int(node.value)  # raises the ValueError that names the literal
    n = loader.construct_yaml_int(node)
    try:
        float(n)
    except OverflowError:  # past float64's range
        return math.inf if n > 0 else -math.inf
    return n


_TAG = "tag:yaml.org,2002:"
_MERGE = object()  # what a `<<` key reads as; only a mapping key may be one
_UNSEEN = object()  # a text the scalar memo has no object for
_COLLECTIONS = {_TAG + "seq": list, _TAG + "omap": list, _TAG + "pairs": list,
                _TAG + "map": _Map, _TAG + "set": set}
# a scalar with a collection's tag has no constructor, as a collection with a scalar's has none
_CONSTRUCTORS = {_TAG + "int": _exact_int, _TAG + "float": _exact_float,
                 _TAG + "merge": lambda loader, node: _MERGE,
                 **dict.fromkeys(_COLLECTIONS, SafeConstructor.construct_undefined)}
# what a text with no reading under the tag fails to be: PyYAML's constructors raise
# KeyError or AttributeError for no spelling, ValueError or IndexError naming the fault
_READINGS = {_TAG + "int": "a number", _TAG + "float": "a number",
             _TAG + "bool": "a boolean", _TAG + "timestamp": "a timestamp"}
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser if built
_SCALAR, _SEQ_START = yaml.ScalarEvent, yaml.SequenceStartEvent
_SEQ_END, _MAP_END = yaml.SequenceEndEvent, yaml.MappingEndEvent
_LIST_TAGS = (None, "!", _TAG + "seq")


class _Builder:
    """A loader's one document, built from its events with no node graph: each
    mapping a `_Map` that knows its lines and repeats no key unless merged in
    with ``<<``, each scalar constructed once per distinct text and tag.  A
    list's or mapping's loop reads a plain, unanchored scalar seen before by
    one lookup of its text, and any other node by `read`."""

    def __init__(self, loader):
        self.loader, self.get = loader, loader.get_event
        self.constructors = {**loader.yaml_constructors, **_CONSTRUCTORS}
        # name -> (object, mark); a plain scalar's text, else (text, tag) -> object
        self.anchors, self.scalars = {}, {}
        self.named = isinstance(loader, yaml.composer.Composer)  # libyaml's errors don't
        # the first key that is not a scalar, (key, line, its mapping, the mapping
        # whose keys were being read), and the outermost mapping reading a key
        self.unhashable, self.keyed = None, None

    def document(self):
        self.get()  # stream start
        if type(self.get()) is yaml.StreamEndEvent:  # else a document start
            return None
        data = None
        try:
            data = self.node(root := self.get())[0]
            self.get()  # document end
            if not self.loader.check_event(yaml.StreamEndEvent):
                raise ComposerError("expected a single document in the stream", root.start_mark,
                                    "but found another document", self.get().start_mark)
        except yaml.YAMLError:
            if self.unhashable is None:
                raise
        if self.unhashable is not None:  # the first error read wins
            raise self.unhashable_key(data)
        return data

    def unhashable_key(self, root):
        """The error of the first mapping key that is not a scalar, with the
        key as the reference loader shows it.  PyYAML makes a collection
        empty when it reaches it in its parent and fills it in turn, breadth
        first, checking a mapping's keys before it fills it; a key is built
        whole when it is checked, if not made before.  So when the checking
        mapping's turn comes, the collections before it in that order are
        filled, the ones their parents made are empty, it is empty, and the
        key's others are whole, as this builder has them."""
        key, line, mapping, checking = self.unhashable
        # id -> (turn, its parent's turn), breadth first, each collection once
        queue, order = [(root, -1)] if isinstance(root, (dict, list)) else [], {}
        for obj, parent in queue:
            if id(obj) not in order:
                turn = len(order)
                order[id(obj)] = turn, parent
                queue += [(v, turn) for v in (obj.values() if isinstance(obj, dict) else obj)
                          if isinstance(v, (dict, list))]
        now = order.get(id(checking), (len(order),))[0]

        def shown(obj, open_=frozenset()):
            if not isinstance(obj, (dict, list)):
                return repr(obj)
            empty = "{}" if isinstance(obj, dict) else "[]"
            if id(obj) in open_:  # a collection inside itself, as repr shows it
                return empty[0] + "..." + empty[1]
            turn, parent = order.get(id(obj), (-1, -1))
            if obj is mapping or obj is checking or turn >= now > parent:
                return empty
            open_ |= {id(obj)}
            if isinstance(obj, dict):
                return "{%s}" % ", ".join("%r: %s" % (k, shown(v, open_)) for k, v in obj.items())
            return "[%s]" % ", ".join(shown(v, open_) for v in obj)

        return ConstructorError(problem="mapping key %s at line %d is not a scalar; agent-state "
                                "mapping keys must be 1-based basis indices" % (shown(key), line))

    def node(self, event, key=False):
        """(object, start mark) of the node that event begins."""
        anchor, mark = event.anchor, event.start_mark
        name = " %r" % (anchor,) if self.named else ""
        if type(event) is yaml.AliasEvent:
            if anchor not in self.anchors:
                raise ComposerError(None, None, "found undefined alias" + name, mark)
            data, mark = self.anchors[anchor]
        elif anchor in self.anchors:
            raise ComposerError("found duplicate anchor%s; first occurrence" % name,
                                self.anchors[anchor][1], "second occurrence", mark)
        else:  # a collection names itself under its anchor before its entries
            data = (self.scalar if type(event) is _SCALAR else self.collection)(event)
            if anchor is not None:
                self.anchors[anchor] = data, mark
        if data is _MERGE and not key:
            self.loader.construct_undefined(yaml.ScalarNode(_TAG + "merge", "<<", mark, mark))
        return data, mark

    def read(self, event):
        """The object of any node but a plain scalar seen before: an alias's or
        an anchored node's from `node`, any other's from `scalar` or `collection`."""
        if event.anchor is not None:
            return self.node(event)[0]
        data = (self.scalar if type(event) is _SCALAR else self.collection)(event)
        if data is _MERGE:  # `node` rejects a `<<` that is not a key
            self.node(event)
        return data

    def scalar(self, event):
        value, tag = event.value, event.tag
        memo = value if event.implicit[0] else (value, tag)  # `!` resolves as no tag does
        if memo in self.scalars:
            return self.scalars[memo]
        if tag is None or tag == "!":
            tag = self.loader.resolve(yaml.ScalarNode, value, event.implicit)
        node = yaml.ScalarNode(tag, value, event.start_mark, event.end_mark)
        try:
            data = self.constructors.get(tag, self.constructors[None])(self.loader, node)
        except (KeyError, AttributeError, ValueError, IndexError) as e:
            if tag not in _READINGS:
                raise
            raise _unreadable(node, _READINGS[tag], e if isinstance(
                e, (ValueError, IndexError)) else None) from None
        if data is not _MERGE:  # never remembered, so that `node` sees every `<<`
            self.scalars[memo] = data
        return data

    def collection(self, event):
        """A list or `_Map`, or what PyYAML builds for `!!set`, `!!omap`, `!!pairs`."""
        seq, start, tag = type(event) is _SEQ_START, event.start_mark, event.tag
        if tag is None or tag == "!":
            data = [] if seq else _Map()
        elif tag in _COLLECTIONS and (_COLLECTIONS[tag] is list) == seq:
            data = _COLLECTIONS[tag]()
        else:
            self.loader.construct_undefined(yaml.ScalarNode(tag, "", start, start))
        if event.anchor is not None:
            self.anchors[event.anchor] = data, start
        get, scalars = self.get, self.scalars
        if seq and tag not in _LIST_TAGS:  # one (key, value) pair per one-item mapping
            while type(event := get()) is not _SEQ_END:
                item, mark = self.node(event)
                if not isinstance(item, dict) or len(item) != 1:
                    raise ConstructorError(tag, start, "expected a one-item mapping", mark)
                data.extend(item.items())
            return data
        if seq:
            while type(event := get()) is not _SEQ_END:
                if type(event) is _SCALAR and event.anchor is None and event.implicit[0] \
                        and (item := scalars.get(event.value, _UNSEEN)) is not _UNSEEN:
                    data.append(item)
                else:
                    data.append(self.read(event))
            return data
        # a `_Map` no alias can reach before its end takes its keys as they come;
        # an anchored one and a `!!set` take them at the end, as merged ones
        body = data if type(data) is _Map and event.anchor is None else {}
        lines, merged = {}, []
        while type(event := get()) is not _MAP_END:
            if type(event) is _SCALAR and event.anchor is None and event.implicit[0] \
                    and (key := scalars.get(event.value, _UNSEEN)) is not _UNSEEN:
                mark = event.start_mark
            else:
                keyed = self.keyed
                self.keyed = data if keyed is None else keyed
                key, mark = self.node(event, key=True)
                self.keyed = keyed
            if key is _MERGE:
                value, mark = self.node(get())
                sources = value if isinstance(value, list) else [value]
                if not all(isinstance(source, dict) for source in sources):
                    raise ConstructorError(None, None, "<< merges only mappings", mark)
                merged += sources[::-1]  # the first one named wins
                continue
            try:
                written = key in body
            except TypeError:  # reported once the document is read (`unhashable_key`)
                if self.unhashable is None:
                    self.unhashable = key, mark.line + 1, data, (data if self.keyed is None
                                                                  else self.keyed)
                self.read(get())
                continue
            if written and type(data) is _Map:
                raise ConstructorError(problem="duplicate key %r at line %d, first written "
                                       "at line %d" % (key, mark.line + 1,
                                                       lines.get(key, start.line + 1)))
            if mark.line != start.line:
                lines[key] = mark.line + 1
            if type(event := get()) is _SCALAR and event.anchor is None and event.implicit[0] \
                    and (value := scalars.get(event.value, _UNSEEN)) is not _UNSEEN:
                body[key] = value
            else:
                body[key] = self.read(event)
        if merged or body is not data:  # merged keys first, each overridden explicitly
            explicit = body.copy()
            data.clear()
            for source in merged + [explicit]:
                data.update(source)
        if type(data) is _Map:
            data.line, data.lines = start.line + 1, lines or None
        return data


def _line(obj, default=0):
    return obj.line if isinstance(obj, _Map) else default


@dataclass(frozen=True)
class StageCost:
    """Slow-step cost data: fast steps per slow step, input price weight,
    and the (state, input)-indexed input cost table, as the scenario
    loader validated them."""

    tau: int
    lam: object
    g: tuple  # g[a-1][u-1] >= 0

    def input_cost(self, a: int, u: int):
        return self.g[a - 1][u - 1]


@dataclass
class Scenario:
    source: str
    mas: MasModel
    constraints: ConstraintSets
    plants: tuple             # one Plant per link; link i carries plant i's packets
    success: dict             # {agent state: per-link success}, measured if given
    transmit: object          # {agent state: per-link transmit share}, or None
    cost: StageCost
    alpha0: int
    s_override: tuple = None
    x0: tuple = None
    warnings: tuple = ()
    name: str = ""


class _Collector:
    """One load's violations, and its short numbers in [0, 1]: each distinct
    scalar object in [0, 1] with at most 18 decimal places, keyed by its id
    (held valid by scalars, the build's memo), as an integer over one scale,
    the lcm of their denominators, which divides 10**18 whatever else the
    document holds."""

    def __init__(self, source, scalars):
        self.source, self.errors, self.scalars = source, [], scalars
        units = [v for v in scalars.values() if (type(v) is int or type(v) is _Number)
                 and 0 <= v.numerator <= v.denominator and _SHORT % v.denominator == 0]
        self.scale = math.lcm(*[v.denominator for v in units])
        self.units = {id(v): v.numerator * (self.scale // v.denominator) for v in units}

    def err(self, line, path, msg):
        path = _path(path)
        where = "%s:%s" % (self.source, line) if line else self.source
        self.errors.append("%s: %s: %s" % (where, path, msg))

    def raise_if_any(self):
        if self.errors:
            raise ValidationError(self.errors)


def _path(path):
    """A path, or a (format, *values) tuple formatted only once it is reported."""
    return path[0] % path[1:] if type(path) is tuple else path


def _known_keys(sec, keys, ctx, path):
    """Report each key of the mapping sec that is not one of keys, at its line."""
    for key in sec:
        if key not in keys:
            ctx.err((sec.lines or {}).get(key, sec.line), path, "unknown key %r; the "
                    "section takes only %s" % (key, ", ".join(map(repr, keys))))


def _as_map(doc, key, ctx, path, keys, required=True):
    """The mapping doc[key], its unknown keys reported, or None once
    reported missing or not a mapping."""
    v = doc.get(key)
    if v is None:
        if required:
            ctx.err(_line(doc), path, "missing required section '%s'" % key)
        return None
    if not isinstance(v, dict):
        return ctx.err(_line(doc), path, "'%s' must be a mapping" % key)
    _known_keys(v, keys, ctx, path)
    return v


def _as_list(container, key, ctx, path):
    v = container.get(key)
    if v is None:
        return ctx.err(_line(container), path, "missing required key '%s'" % key)
    if not isinstance(v, list):
        return ctx.err(_line(container), path, "'%s' must be a list" % key)
    return v


def _as_int(v, ctx, line, path, lo=None, hi=None):
    if not isinstance(v, int) or isinstance(v, bool):
        return ctx.err(line, path, "expected an integer, got %r" % (v,))
    return _exact(v, ctx, line, path, lo, hi)


def _exact(v, ctx, line, path, lo=None, hi=None):
    """A YAML number as the loader read it: an int, or a float's exact value."""
    if type(v) is not int and type(v) is not _Number:  # the common cases skip the ABC
        if isinstance(v, bool) or not isinstance(v, Real):
            return ctx.err(line, path, "expected a number, got %r" % (v,))
        if isinstance(v, float):  # the loader keeps only a non-finite float
            return ctx.err(line, path, "must be a finite number, got %s" % (v,))
    if lo is not None and v.numerator < lo * v.denominator:
        return ctx.err(line, path, "must be >= %s, got %s" % (lo, v))
    if hi is not None and v.numerator > hi * v.denominator:
        return ctx.err(line, path, "must be <= %s, got %s" % (hi, v))
    return v


def _exact_list(v, n, ctx, line, path, what, lo=None, hi=None):
    """Tuple of n exact numbers, or None once the list or its bad entries
    are reported."""
    if not isinstance(v, list) or len(v) != n:
        return ctx.err(line, path, "must list %d %s" % (n, what))
    errors = len(ctx.errors)  # _exact reports every entry it rejects
    row = tuple([_exact(x, ctx, line, ("%s[%d]", path, j), lo, hi) for j, x in enumerate(v)])
    return row if len(ctx.errors) == errors else None


def _matrix(v, ctx, line, path):
    """Scalar or square list-of-lists of exact numbers to a float matrix,
    or None once reported."""
    errors = len(ctx.errors)
    if isinstance(v, Real):
        rows = [[_exact(v, ctx, line, path)]]
    elif isinstance(v, list) and v:
        rows = [_exact_list(r, len(v), ctx, line, "%s[%d]" % (path, i), "numbers")
                for i, r in enumerate(v)]
    else:
        ctx.err(line, path, "expected a scalar or a square list-of-lists matrix")
    return np.array(rows, dtype=float) if len(ctx.errors) == errors else None


def _state_index(v, model: MasModel, ctx, line, path):
    """Basis index (1-based int) or value tuple -> basis index."""
    if type(v) is int and 0 < v <= model.state_count:  # an index in range, as it is
        return v
    if not isinstance(v, list):
        return _as_int(v, ctx, line, path, lo=1, hi=model.state_count)
    if len(v) != model.n:
        return ctx.err(line, path, "tuple must have %d coordinates" % model.n)
    path = _path(path)
    digits = [_as_int(c, ctx, line, ("%s[%d]", path, j), lo=0, hi=model.kappa - 1)
              for j, c in enumerate(v)]
    return None if None in digits else int(to_index(model, digits))


def _index_set(v, model, ctx, line, path, what):
    """Set of basis indices from a nonempty list of indices or value
    tuples, or None once the list or its bad entries are reported."""
    if not isinstance(v, list):
        return ctx.err(line, path, "must be a list")
    errors = len(ctx.errors)
    got = frozenset([_state_index(x, model, ctx, line, ("%s[%d]", path, i))
                     for i, x in enumerate(v)])
    if len(ctx.errors) > errors:
        return None
    if not got:
        return ctx.err(line, path, "%s is empty" % what)
    return got


def _parse_agents(doc, ctx):
    """(model, initial state); each is None exactly when its part of the
    section reported a violation."""
    sec = _as_map(doc, "agents", ctx, "agents",
                  ("count", "kappa", "weights", "initial_state"))
    if sec is None:
        return None, None
    errors = len(ctx.errors)
    ln = _line(sec)
    n = _as_int(sec.get("count"), ctx, ln, "agents.count", lo=1)
    kappa = _as_int(sec.get("kappa"), ctx, ln, "agents.kappa", lo=2)
    if n is not None and kappa is not None:
        try:  # before the per-agent checks below walk 1..count
            require_index_range(n, kappa)
        except ToolkitError as e:
            ctx.err(ln, "agents", str(e))
    weights_sec = sec.get("weights")
    if not isinstance(weights_sec, dict):
        ctx.err(ln, "agents.weights", "must map agent id -> {neighbor: weight}")
    if len(ctx.errors) > errors:
        return None, None
    wln = _line(weights_sec, ln)
    for j in range(1, n + 1):
        if j not in weights_sec:
            ctx.err(wln, "agents.weights", "agent %d has no weight map" % j)
    for j in sorted(weights_sec, key=str):
        row = weights_sec[j]
        jid = _as_int(j, ctx, wln, "agents.weights key %r" % (j,), lo=1, hi=n)
        if jid is None:
            continue
        if not isinstance(row, dict):
            ctx.err(wln, "agents.weights[%d]" % jid, "must be a mapping")
            continue
        rln = _line(row, wln)
        for l in sorted(row, key=str):
            _as_int(l, ctx, rln, "agents.weights[%d] neighbor %r" % (jid, l), lo=1, hi=n)
            _as_int(row[l], ctx, rln, "agents.weights[%d][%r]" % (jid, l), lo=0, hi=kappa - 1)
        if jid not in row:
            ctx.err(wln, "agents.weights[%d]" % jid, "missing the agent's own weight")
    if len(ctx.errors) > errors:
        return None, None
    rows = [weights_sec[j] for j in range(1, n + 1)]
    try:
        model = MasModel(n, kappa, tuple(
            {l - 1: row[l] for l in sorted(row, key=str)} for row in rows))
    except ToolkitError as e:
        ctx.err(ln, "agents", str(e))
        return None, None
    if "initial_state" not in sec:
        ctx.err(ln, "agents.initial_state", "missing required key")
        return model, None
    return model, _state_index(sec["initial_state"], model, ctx, ln, "agents.initial_state")


def _parse_constraints(doc, model, ctx):
    sec = _as_map(doc, "constraints", ctx, "constraints", ("states", "inputs"))
    if sec is None or model is None:
        return None
    errors = len(ctx.errors)
    ln = _line(sec)
    states = _as_list(sec, "states", ctx, "constraints.states")
    if states is not None:
        states = _index_set(states, model, ctx, ln, "constraints.states",
                            "admissible state set")
    inputs_raw = sec.get("inputs")
    if isinstance(inputs_raw, list):
        inputs = _index_set(inputs_raw, model, ctx, ln, "constraints.inputs",
                            "admissible input set")
        input_map = {a: inputs for a in states or ()}
    elif isinstance(inputs_raw, dict):
        iln = _line(inputs_raw, ln)
        input_map = {
            _state_index(key, model, ctx, iln, "constraints.inputs key %r" % (key,)):
                _index_set(inputs_raw[key], model, ctx, iln, "constraints.inputs[%r]" % (key,),
                           "admissible input set")
            for key in inputs_raw
        }
        missing = sorted(set(states or ()) - set(input_map))
        if missing:
            ctx.err(iln, "constraints.inputs",
                    "no input set for admissible states %s" % missing)
    else:
        ctx.err(ln, "constraints.inputs", "must be a list or a per-state mapping")
    if len(ctx.errors) > errors:
        return None
    try:
        return ConstraintSets(states, input_map)
    except ToolkitError as e:
        return ctx.err(ln, "constraints", str(e))


def _parse_plant(sec, i, doc, ctx):
    """One plant, or None once its violations are reported."""
    path = "plants[%d]" % i
    if not isinstance(sec, dict):
        return ctx.err(_line(doc), path, "each plant must be a mapping")
    _known_keys(sec, ("name", "a_closed", "a_open", "quality_weight", "decay_rate",
                      "noise_cov", "power_price"), ctx, path)
    errors = len(ctx.errors)
    ln = _line(sec)
    a_c = _matrix(sec.get("a_closed"), ctx, ln, path + ".a_closed")
    a_o = _matrix(sec.get("a_open"), ctx, ln, path + ".a_open")
    rho = _exact(sec.get("decay_rate"), ctx, ln, path + ".decay_rate")
    mu = _exact(sec.get("power_price"), ctx, ln, path + ".power_price")
    qspec = sec.get("quality_weight", "lyapunov")
    if qspec not in ("lyapunov", "identity"):
        qw = _matrix(qspec, ctx, ln, path + ".quality_weight")
    xspec = sec.get("noise_cov", "identity")
    if xspec != "identity":
        xi = _matrix(xspec, ctx, ln, path + ".noise_cov")
    if len(ctx.errors) > errors:
        return None
    if qspec == "lyapunov":
        try:
            qw = default_lyapunov_weight(a_c)
        except ToolkitError as e:
            return ctx.err(ln, path + ".quality_weight", str(e))
    elif qspec == "identity":
        qw = np.eye(a_c.shape[0])
    if xspec == "identity":
        xi = np.eye(a_c.shape[0])
    try:
        return Plant(a_c, a_o, qw, float(rho), xi, mu,
                     name=str(sec.get("name", "plant%d" % (i + 1))))
    except ToolkitError as e:
        return ctx.err(ln, path, str(e))


def _parse_plants(doc, ctx):
    plants_raw = doc.get("plants")
    if not isinstance(plants_raw, list) or not plants_raw:
        return ctx.err(_line(doc), "plants", "must be a nonempty list")
    errors = len(ctx.errors)
    plants = tuple([_parse_plant(sec, i, doc, ctx) for i, sec in enumerate(plants_raw)])
    return plants if len(ctx.errors) == errors else None


def _transmit_policy(sec, q, ctx, ln):
    """Per-link rows of zero/one transmit flags, or None once reported."""
    errors = len(ctx.errors)
    r = _as_int(sec.get("local_states"), ctx, ln, "channel.local_states", lo=1)
    rows = _as_list(sec, "transmit_policy", ctx, "channel.transmit_policy")
    if len(ctx.errors) > errors:
        return None
    if len(rows) != q:
        return ctx.err(ln, "channel.transmit_policy", "%d rows for %d links" % (len(rows), q))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != r or any(b not in (0, 1) for b in row):
            ctx.err(ln, "channel.transmit_policy[%d]" % i,
                    "must be a list of %d zero/one flags" % r)
    if len(ctx.errors) > errors:
        return None
    return [[int(b) for b in row] for row in rows]


def _link_units(decode, probs, n, ctx, line, path, i):
    """(decode, dist, scale) of a link whose numbers are not all in `ctx.units`:
    each an integer over the lcm of the link's own denominators, the decode
    None, or the dist None, once `_exact` reported what is wrong with it."""
    e = _exact(decode, ctx, line, "%s.decode[%d]" % (path, i), lo=0, hi=1)
    row = _exact_list(probs, n, ctx, line, "%s.dist[%d]" % (path, i), "probabilities",
                      lo=0, hi=1)
    if row is None:
        return None, None, 1
    scale = math.lcm(*[x.denominator for x in (row if e is None else (e, *row))])
    units = [x.numerator * (scale // x.denominator) for x in row]
    return None if e is None else e.numerator * (scale // e.denominator), units, scale


def _fading_rows(fading_raw, flags, model, ctx, ln):
    """({agent state: transmit shares}, {agent state: derived success}) over
    the states the fading rows cover, or None once a violation is reported.
    A state's share on a link is its distribution's transmitting mass, and
    its success the link's decode probability times that share.  Each
    distribution is summed in integers, over the scale of `ctx.units`, or of
    `_link_units` for a link with a number outside them; the tables get one
    Fraction per distinct share and one per success, and a path is formatted
    only for a violation."""
    if not isinstance(fading_raw, dict):
        return ctx.err(ln, "channel.fading", "must map agent state -> row")
    errors, weight, scale = len(ctx.errors), ctx.units.get, ctx.scale
    transmit, success, share_of = {}, {}, {}  # share_of: transmitting mass -> its share
    fln, path = _line(fading_raw, ln), "channel.fading[%r]"
    for key, row in fading_raw.items():
        line = _line(row, fln)
        a = _state_index(key, model, ctx, line, ("channel.fading key %r", key))
        if not isinstance(row, dict):
            ctx.err(line, path % (key,), "must be a mapping")
            continue
        decode, dist = row.get("decode"), row.get("dist")
        if len(row) != 2 or type(decode) is not list or type(dist) is not list:  # report why
            _known_keys(row, ("decode", "dist"), ctx, path % (key,))
            if None in (_as_list(row, "decode", ctx, (path + ".decode") % (key,)),
                        _as_list(row, "dist", ctx, (path + ".dist") % (key,))):
                continue
        if len(decode) != len(flags) or len(dist) != len(flags):
            ctx.err(line, path % (key,),
                    "decode/dist must carry one entry per link (%d)" % len(flags))
            continue
        shares, successes = [], []
        for i, (d, sends, probs) in enumerate(zip(decode, flags, dist)):
            e, s = weight(id(d)), scale
            w = list(map(weight, map(id, probs))) if type(probs) is list else ()
            if e is None or len(w) != len(sends) or None in w:
                e, w, s = _link_units(d, probs, len(sends), ctx, line, path % (key,), i)
                if w is None:
                    continue
            mass, sent = sum(w), sum(compress(w, sends))
            if abs(mass - s) * _TOL[1] > _TOL[0] * s:
                ctx.err(line, (path + ".dist[%d]") % (key, i),
                        "probabilities sum to %s, expected 1" % (mass / s))
            elif sent > s:  # within the tolerance a row may sum past 1
                ctx.err(line, (path + ".dist[%d]") % (key, i),
                        "transmitting probabilities sum to %s, above 1" % (sent / s))
            elif e is not None:
                unit = sent if s == scale else (sent, s)  # a link's own scale keys apart
                if unit not in share_of:
                    share_of[unit] = Fraction(sent, s)
                shares.append(share_of[unit])
                successes.append(Fraction(e * sent, s * s))
        if a is not None:  # both tables are dropped below once any row reported
            transmit[a], success[a] = tuple(shares), tuple(successes)
    return (transmit, success) if len(ctx.errors) == errors else None


def _parse_channel(doc, model, constraints, plants, ctx):
    """(transmit mapping or None, success mapping to use, warnings), or None
    once a violation is reported.  Every mapping holds only states the
    document lists: the fading rows' states, or all N states of a measured
    table, which then takes precedence."""
    sec = _as_map(doc, "channel", ctx, "channel",
                  ("local_states", "transmit_policy", "fading", "success_direct"))
    if sec is None or model is None or plants is None:
        return None
    errors = len(ctx.errors)
    ln = _line(sec)
    q = len(plants)
    nn = model.state_count
    flags = _transmit_policy(sec, q, ctx, ln)
    transmit = derived = None
    if flags is not None and sec.get("fading") is not None:
        transmit, derived = _fading_rows(sec["fading"], flags, model, ctx, ln) or (None, None)

    direct_raw = sec.get("success_direct")
    direct = None
    if direct_raw is not None:
        if not isinstance(direct_raw, list) or len(direct_raw) != q:
            ctx.err(ln, "channel.success_direct", "must list %d rows (one per link)" % q)
        else:
            measured = [_exact_list(row, nn, ctx, ln, "channel.success_direct[%d]" % i,
                                    "probabilities", lo=0, hi=1)
                        for i, row in enumerate(direct_raw)]
            if None not in measured:
                direct = dict(enumerate(zip(*measured), start=1))
    if len(ctx.errors) > errors:
        return None
    if direct is None:
        if derived is None:
            return ctx.err(ln, "channel", "needs fading tables, a direct success table, or both")
        # every admissible state must have a usable success probability
        for a in sorted(constraints.state_set if constraints is not None else ()):
            if a not in derived:
                ctx.err(ln, "channel", "state %d is admissible but not covered" % a)
        return (transmit, derived, ()) if len(ctx.errors) == errors else None
    warnings = () if derived is None else tuple(
        "measured success table overrides derived value at link %d, "
        "state %d: measured %s vs derived %s" % (i + 1, a, float(d), float(e))
        for i, a, d, e in consistency_gaps(direct, derived))
    return transmit, direct, warnings


def _parse_cost(doc, model, ctx):
    sec = _as_map(doc, "cost", ctx, "cost", ("input_weight", "input_costs", "table"))
    errors = len(ctx.errors)
    # tau does not depend on the agent model, so it is checked without one
    tau = _as_int(doc.get("fast_steps_per_slow"), ctx, _line(doc),
                  "fast_steps_per_slow", lo=1)
    if sec is None or model is None:
        return None
    ln = _line(sec)
    lam = _exact(sec.get("input_weight"), ctx, ln, "cost.input_weight", lo=0)
    nn = model.state_count
    if "input_costs" in sec and "table" in sec:
        ctx.err(ln, "cost", "give either input_costs or table, not both")
    elif "input_costs" in sec:
        row = _exact_list(sec["input_costs"], nn, ctx, ln, "cost.input_costs", "entries", lo=0)
        if row is not None:  # N entries listed, so N is bounded by the document
            g = (row,) * nn  # one row object, shared by every state
    elif "table" in sec:
        table = sec["table"]
        if not isinstance(table, list) or len(table) != nn:
            ctx.err(ln, "cost.table", "must list %d rows (one per state)" % nn)
        else:
            g = tuple([_exact_list(row, nn, ctx, ln, "cost.table[%d]" % a, "entries", lo=0)
                       for a, row in enumerate(table)])
    else:
        ctx.err(ln, "cost", "missing input_costs or table")
    if len(ctx.errors) > errors:
        return None
    return StageCost(tau, lam, g)


def load_scenario_text(text: str, source: str = "<string>") -> Scenario:
    try:
        doc = (builder := _Builder(_LOADER(text))).document()
    except yaml.YAMLError as e:
        raise ParseError("%s: not valid YAML: %s" % (source, e)) from e
    if not isinstance(doc, dict):
        raise ParseError("%s: document must be a key-value mapping" % source)

    ctx = _Collector(source, builder.scalars)
    _known_keys(doc, ("name", "fast_steps_per_slow", "plants", "agents", "constraints",
                      "channel", "cost", "thresholds_override", "simulation"),
                ctx, "top level")
    model, alpha0 = _parse_agents(doc, ctx)
    constraints = _parse_constraints(doc, model, ctx)
    plants = _parse_plants(doc, ctx)
    channel = _parse_channel(doc, model, constraints, plants, ctx)
    cost = _parse_cost(doc, model, ctx)

    if alpha0 is not None and constraints is not None and alpha0 not in constraints.state_set:
        ctx.err(_line(doc), "agents.initial_state",
                "state %d is not in the admissible state set" % alpha0)

    s_override = None
    if "thresholds_override" in doc and plants is not None:
        s_override = _exact_list(doc["thresholds_override"], len(plants), ctx,
                                 _line(doc), "thresholds_override", "probabilities",
                                 lo=0, hi=1)

    x0 = None
    sim_sec = _as_map(doc, "simulation", ctx, "simulation", ("initial_plant_states",),
                      required=False)
    if sim_sec is not None:
        sln = _line(sim_sec)
        raw = sim_sec.get("initial_plant_states")
        if raw is not None and plants is not None:
            if not isinstance(raw, list) or len(raw) != len(plants):
                ctx.err(sln, "simulation.initial_plant_states",
                        "must list %d vectors" % len(plants))
            else:
                vecs = [_exact_list(v if isinstance(v, list) else [v], plant.dim, ctx, sln,
                                    "simulation.initial_plant_states[%d]" % i, "numbers")
                        for i, (v, plant) in enumerate(zip(raw, plants))]
                if None not in vecs:
                    x0 = tuple(tuple(map(float, vec)) for vec in vecs)

    ctx.raise_if_any()
    transmit, success, warnings = channel

    return Scenario(
        source=source,
        mas=model,
        constraints=constraints,
        plants=plants,
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
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError("cannot read scenario %s: %s" % (p, e)) from e
    return load_scenario_text(text, str(p))
