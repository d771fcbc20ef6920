"""Controllability, closed-loop construction and supervisor decomposition.

A specification automaton plays the role of a prefix-closed supervisor
candidate: its generated language is the prefix closure of the target
behavior, and composing it with the plant realizes the closed loop.  The
decomposition checks decide whether a global two-agent supervisor can be
replaced by the parallel composition of its natural projections.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .automata import (
    Automaton,
    BisimResult,
    _operands,
    _path,
    _Product,
    _projection,
    _refine,
    _walk,
    accessible,
    is_bisimilar,
    natural_project,
    parallel_compose,
)
from .errors import (
    AlphabetMismatch,
    CoverageError,
    NondeterministicInput,
    NotControllable,
)

__all__ = [
    "ControllabilityReport",
    "DecomposabilityReport",
    "check_controllability",
    "closed_loop",
    "modular_supervisor",
    "decompose",
    "check_decomposability",
    "verify_decentralized",
    "is_nonblocking",
]


def is_nonblocking(a, *more) -> bool:
    """From every reachable state some marked state must stay reachable.

    The states are the nodes of the operands' product, composed left to
    right as :func:`modular_supervisor` composes its three, marked when
    every member is.  One walk reaches them, never building the product,
    and records their predecessors; a walk back along those moves from
    the marked nodes finds the nodes that can reach one.  An operand
    whose alphabet holds the others' is best passed first: no row of the
    walk is then wider than its own.  Raises :class:`AlphabetConflict`
    where composing would.
    """
    (_, [(_, (rows, _, marks), start)]) = _operands((a, *more))
    row_of = rows.row if isinstance(rows, _Product) else rows.__getitem__
    reached: dict = {}
    predecessors: dict = {}
    for (node, row) in _walk(row_of, (start,), reached):
        for ds in row.values():
            for d in ds:
                predecessors.setdefault(d, []).append(node)
    marked = [node for node in reached if marks(node)]
    can_mark = {q for (q, _) in _walk(lambda q: {None: predecessors.get(q, ())}, marked, {})}
    return len(can_mark) == len(reached)


class ControllabilityReport(NamedTuple):
    witness_string: Optional[tuple] = None
    witness_event: Optional[str] = None

    def __bool__(self):
        return self.witness_event is None


def check_controllability(spec, plant) -> ControllabilityReport:
    """Check that the spec never disables an uncontrollable plant event.

    ``spec`` and ``plant`` are operands over one set of event ids, and the
    uncontrollable events are those the plant's alphabet marks so.  Walks
    the product of the spec (prefix-closed view: its generated language)
    and the plant breadth-first, never building it; fails iff some
    reachable node enables an uncontrollable event in the plant but not in
    the spec.  The witness string s is then a shortest one generated by
    the spec, and the event the smallest failing one at the first failing
    node, so s+event is generated by the plant but not by the spec.  Each
    nondeterministic automaton of the spec is walked as its subset
    construction, which generates the same language, so a node holds
    every spec state that its string reaches.
    """
    operands = _operands(_determinized(spec), plant)
    (labels, [(spec_events, spec_side, qs0), (plant_events, plant_side, qp0)]) = operands
    if spec_events.mask != plant_events.mask:
        difference = spec_events.universe.ids_of(spec_events.mask ^ plant_events.mask)
        raise AlphabetMismatch(f"spec and plant must share an alphabet; difference: {difference}")
    uncontrollable = sum(m for ((c, _), m) in plant_events.kinds.items() if not c)
    e_uc = frozenset(label for (label, m) in labels.items() if m & uncontrollable)
    (spec_rows, plant_rows) = (spec_side[0], plant_side[0])
    parents: dict = {}
    for (node, _) in _walk(_Product(spec_side, plant_side).row, ((qs0, qp0),), parents):
        (qs, qp) = node
        failing = [ev for ev in plant_rows[qp] if ev in e_uc and ev not in spec_rows[qs]]
        if failing:
            return ControllabilityReport(_path(parents, node)[1], min(failing))
    return ControllabilityReport()


def _determinized(operand):
    """``operand`` with each nondeterministic automaton replaced by its
    projection onto its whole alphabet: its subset construction."""
    if isinstance(operand, tuple):
        return tuple(map(_determinized, operand))
    return operand if operand.deterministic else natural_project(operand, operand.event_ids)


def closed_loop(s: Automaton, a: Automaton) -> Automaton:
    """Compose a supervisor realization with the plant.

    Requires all supervisor states marked (prefix-closed language) and the
    supervised language controllable; the marked language of the result is
    the supervisor language intersected with the plant's marked language.
    """
    if s.marked != s.states:
        raise ValueError("supervisor realization must have every state marked")
    report = check_controllability(s, a)
    if not report:
        raise NotControllable(
            f"spec disables uncontrollable {report.witness_event!r} after "
            f"{'.'.join(report.witness_string) or 'the empty string'}"
        )
    return parallel_compose(s, a)


def modular_supervisor(s1: Automaton, s2: Automaton, a: Automaton) -> Automaton:
    """Closed loop of two modular supervisors running in conjunction."""
    return parallel_compose((s1, s2), a)


def _coverage(a: Automaton, e1, e2):
    """The event sets as frozensets and as masks over ``a``'s universe."""
    e1, e2 = frozenset(e1), frozenset(e2)
    (m1, m2) = (a._sigma.within(e1), a._sigma.within(e2))
    if m1 is None or m2 is None:
        unknown = (e1 | e2) - a.event_ids
        raise CoverageError(f"event sets contain unknown events: {sorted(unknown)}")
    missing = a._sigma.mask & ~(m1 | m2)
    if missing:
        missing = a._sigma.universe.ids_of(missing)
        raise CoverageError(f"event sets do not cover the alphabet: {missing}")
    return e1, e2, m1, m2


def decompose(a: Automaton, e1: Iterable[str], e2: Iterable[str]):
    """Project the automaton onto the two local event sets."""
    (e1, e2, _, _) = _coverage(a, e1, e2)
    return natural_project(a, e1), natural_project(a, e2)


class DecomposabilityReport:
    """The decomposability verdict, its projections and one witness per
    condition, None when the condition holds.

    ``bool(report)`` is the verdict, that of ``bisim``, and reads nothing
    else.  ``local1`` and ``local2`` are the projections of the accessible
    automaton that were composed.  A report that
    :func:`check_decomposability` makes holds, in ``_pending``, a
    zero-argument call per witness it has not computed yet.  The first
    read of a witness pops its call, runs it and keeps the value, so what
    that call alone read is let go with it.  One made by the constructor
    holds the witnesses it is given and nothing pending.  Either way it is
    an immutable record of the seven ``_fields``: equal, hashed, shown
    (``DecomposabilityReport(bisim=..., ...)``), copied and pickled by
    their values, so each of these reads every witness.
    """

    _fields = (
        "bisim", "dc1_witness", "dc2_witness", "dc3_witness", "dc4_witness", "local1", "local2"
    )
    __slots__ = (*_fields, "_pending")
    bisim: BisimResult
    dc1_witness: Optional[tuple]
    dc2_witness: Optional[tuple]
    dc3_witness: Optional[tuple]
    dc4_witness: Optional[tuple]
    local1: Optional[Automaton]
    local2: Optional[Automaton]

    def __init__(
        self,
        bisim: BisimResult,
        dc1_witness: Optional[tuple] = None,
        dc2_witness: Optional[tuple] = None,
        dc3_witness: Optional[tuple] = None,
        dc4_witness: Optional[tuple] = None,
        local1: Optional[Automaton] = None,
        local2: Optional[Automaton] = None,
    ):
        values = (bisim, dc1_witness, dc2_witness, dc3_witness, dc4_witness, local1, local2)
        for (name, value) in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_pending", {})

    @classmethod
    def _read_later(cls, bisim: BisimResult, local1: Automaton, local2: Automaton, pending: dict):
        """A report whose witnesses are the calls of ``pending``, keyed by
        field name, as :func:`check_decomposability` gives them."""
        report = object.__new__(cls)
        given = {"bisim": bisim, "local1": local1, "local2": local2, "_pending": pending}
        for (name, value) in given.items():
            object.__setattr__(report, name, value)
        return report

    def __getattr__(self, name):
        # a witness that was not given, on its first read
        if name not in self._pending:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self._pending.pop(name)()
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return (type(self), self._values())

    def _replace(self, **changes) -> "DecomposabilityReport":
        kept = {name: getattr(self, name) for name in self._fields if name not in changes}
        return DecomposabilityReport(**kept, **changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = [f"{name}={value!r}" for (name, value) in zip(self._fields, self._values())]
        return f"{type(self).__name__}({', '.join(shown)})"

    def __bool__(self):
        return bool(self.bisim)

    def summary(self) -> str:
        witnesses = (self.dc1_witness, self.dc2_witness, self.dc3_witness, self.dc4_witness)
        lines = [f"decomposable: {bool(self)}"] + [
            f"dc{k}: {'pass' if w is None else f'fail {w}'}"
            for (k, w) in enumerate(witnesses, start=1)
        ]
        return "\n".join(lines)


def _shared_projection(a: Automaton, keep: int) -> tuple:
    """:func:`_projection`'s result for ``a`` and the mask ``keep``, with
    each subset's row computed once, for a projection and a
    :func:`_dc4_witness` walk of the same construction."""
    (row, init, visible) = _projection(a, keep)
    return (cache(row), init, visible)


def _dc4_witness(a: Automaton, projection: tuple) -> Optional[tuple]:
    """First (q, ev, t1, t2) whose projected successors t1 < t2 differ.

    Two successors of one projected step must generate the same projected
    language.  One walk of the subset construction ``projection`` (as
    :func:`_shared_projection` gives it) from every singleton subset
    reaches the subsets, which are refined once from a single block, so
    equal blocks mean equal languages.  A singleton's row holds the
    projected successors of its state.  A projected class, which the rows
    key by its label in ``a``, is scanned as its smallest kept event.
    """
    (row, _, visible) = projection
    label = a._sigma.universe.label
    rows = dict(_walk(row, [frozenset([q]) for q in a.states], {}))
    block = _refine(dict.fromkeys(rows, 0), rows)
    for q in sorted(a.states):
        after = rows[frozenset([q])]
        for ev, targets in sorted((label(visible[c]), targets) for c, (targets,) in after.items()):
            for t1, t2 in combinations(sorted(targets), 2):
                if block[frozenset([t1])] != block[frozenset([t2])]:
                    return (q, ev, t1, t2)
    return None


def _dc3_witness(moves: dict, e1: frozenset, e2: frozenset) -> Optional[tuple]:
    """First (q, s, t) whose product of p1(s) and p2(t) leaves the automaton.

    ``moves`` maps each state to ``label -> target`` (see
    :func:`check_decomposability`), so s and t are spelled with labels,
    and ``e1`` and ``e2`` are the sets of labels in E1 and in E2.
    Searches the nodes (state after s, state after t, state after their
    interleaving, first shared event seen) breadth-first from every
    (q, q, q, unseen).  s may take an E2-private event alone and t an
    E1-private one; an E1-private event of s or an E2-private event of t
    also moves the interleaving; a shared event enabled after both s and t
    moves all three.  Before the first shared event a node counts only if
    s and t can still reach a common shared event through private events,
    so that they extend to a pair whose first shared events agree.  A
    counted move that the interleaving cannot take fails; s and t are then
    extended to their common first shared event.
    """
    shared = e1 & e2
    private = {q: {ev: (d,) for (ev, d) in moves[q].items() if ev not in shared} for q in moves}
    # shared events enabled somewhere ahead of each state on a private path
    ahead = {}
    for q in moves:
        reached = _walk(private.__getitem__, (q,), {})
        ahead[q] = {ev for (p, _) in reached for ev in moves[p] if ev in shared}

    def counts(qs, qt, seen_shared):
        return seen_shared or not ahead[qs].isdisjoint(ahead[qt])

    def to_shared(q, ev):
        """Shortest private path from q to ev, ev included."""
        parents: dict = {}
        for (p, _) in _walk(private.__getitem__, (q,), parents):
            if ev in moves[p]:
                return _path(parents, p)[1] + (ev,)

    def row(node):
        # label (event of s, event of t); a move the interleaving cannot
        # take reaches a node whose interleaving state is None
        (qs, qt, qi, seen_shared) = node
        if qi is None:
            return {}
        (after_t, after_i) = (moves[qt], moves[qi])
        out = {}
        for (ev, ds) in moves[qs].items():
            if ev in shared:
                dt = after_t.get(ev)
                if dt is not None:
                    out[ev, ev] = ((ds, dt, after_i.get(ev), True),)
            elif counts(ds, qt, seen_shared):
                out[ev, None] = ((ds, qt, after_i.get(ev) if ev in e1 else qi, seen_shared),)
        for (ev, dt) in after_t.items():
            if ev not in shared and counts(qs, dt, seen_shared):
                out[None, ev] = ((qs, dt, after_i.get(ev) if ev in e2 else qi, seen_shared),)
        return out

    parents: dict = {}
    starts = [(q, q, q, False) for q in sorted(moves) if counts(q, q, False)]
    for (node, _) in _walk(row, starts, parents):
        (ds, dt, di, flag) = node
        if di is not None:
            continue
        ((q, _, _, _), labels) = _path(parents, node)
        s = tuple(x for (x, _) in labels if x is not None)
        t = tuple(y for (_, y) in labels if y is not None)
        if not flag:
            first = min(ahead[ds] & ahead[dt])
            (s, t) = (s + to_shared(ds, first), t + to_shared(dt, first))
        return (q, s, t)
    return None


def _dc12_witnesses(a: Automaton, rows: dict, moves: dict, priv1: set, priv2: set) -> tuple:
    """``(dc1, dc2)``: the first (q, x, y) failing each, from one pass.

    ``rows`` and ``moves`` are :func:`check_decomposability`'s label rows
    of ``a`` and their one targets, and ``priv1`` and ``priv2`` the labels
    private to E1 and to E2.  dc1 fails where an enabled x and y are not
    enabled after each other, dc2 where xy and yx reach states that the
    refinement of ``a``, marked and unmarked states as the initial blocks,
    puts in different blocks.
    """
    # states are bisimilar iff they share a block of the refinement of a
    block = _refine({q: q in a.marked for q in a.states}, rows)
    dc1_wit = dc2_wit = None
    for q in sorted(a.states):
        # rows list their labels in sorted order, so witnesses come out
        # in (sorted q, sorted x, sorted y) order
        row = moves[q]
        ys = [(y, qy) for (y, qy) in row.items() if y in priv2]
        for (x, qx) in row.items():
            if x not in priv1:
                continue
            after_x = moves[qx]
            for (y, qy) in ys:
                qxy = after_x.get(y)
                qyx = moves[qy].get(x)
                if qxy is None or qyx is None:
                    dc1_wit = dc1_wit or (q, x, y)
                elif block[qxy] != block[qyx]:
                    dc2_wit = dc2_wit or (q, x, y)
    return dc1_wit, dc2_wit


def check_decomposability(
    a: Automaton, e1: Iterable[str], e2: Iterable[str], *, n: Optional[int] = None
) -> DecomposabilityReport:
    """Decide decomposability; the report explains the verdict when read.

    The verdict is ``bool(report)``, that of ``report.bisim``: the
    accessible automaton is bisimilar to the composition of its
    projections onto both event sets, which the report carries as
    ``local1`` and ``local2``.  The four conditions, named after Karimadini
    and Lin (Automatica 47(5), 2011), locate a failure.  Each is decided
    exactly over the accessible part and holds iff its witness is None.
    Each witness is a call pending in the report until it is first read
    (:class:`DecomposabilityReport`), so a caller pays only for the
    conditions it reads: dc1 and dc2 share one pass over the accessible
    automaton's label rows and targets, dc3 walks the targets, and dc4
    each event set's subset construction, E1's first.

    - dc1: at each state q, an enabled E1-private x and E2-private y stay
      enabled after each other; witness ``(q, x, y)``.
    - dc2: their interleavings xy and yx reach bisimilar states; witness
      ``(q, x, y)``.
    - dc3: for each q and pair s, t from q whose first shared events agree
      (s = t included), every node of the synchronized product of p1(s)
      and p2(t) is generated from q; witness ``(q, s, t)``.
    - dc4: two successors of one step of the projection onto E1 or E2,
      before it is determinized, generate the same projected language;
      witness ``(q, ev, t1, t2)``.

    ``n`` is accepted and ignored.  It was the string-length bound of the
    sampled dc3 search this one replaced; it stays only until the tracer
    test in ``perfbench/tests`` stops passing it.
    """
    if not a.deterministic:
        raise NondeterministicInput("decomposability conditions require a deterministic automaton")
    (e1, e2, m1, m2) = _coverage(a, e1, e2)
    # the conditions quantify over reachable behavior only
    a = accessible(a)
    # one subset construction per event set: dc4's walks reuse the rows
    # that the projections' walks made
    (proj1, proj2) = (_shared_projection(a, m1), _shared_projection(a, m2))
    p1 = natural_project(a, e1, projection=proj1)
    p2 = natural_project(a, e2, projection=proj2)
    bisim = is_bisimilar(a, parallel_compose(p1, p2))

    # the conditions run over labels: a label stands for the events of one
    # class that agree on membership in e1 and in e2, and is the smallest
    # of them; a is deterministic, so every enabled label has one target.
    # The target is read through step1 rather than from the row only
    # because test_tracing_patches_every_binding_and_restores_it in
    # perfbench/tests expects this function to call Automaton.step
    (labels, [(_, (rows, _, _), _)]) = _operands(a, split=(m1, m2))
    (in1, in2) = ({label for (label, m) in labels.items() if m & e} for e in (m1, m2))
    moves = {q: {ev: a.step1(q, ev) for ev in row} for (q, row) in rows.items()}
    # each call holds only what its condition reads
    dc12 = cache(lambda: _dc12_witnesses(a, rows, moves, in1 - in2, in2 - in1))
    pending = {
        "dc1_witness": lambda: dc12()[0],
        "dc2_witness": lambda: dc12()[1],
        "dc3_witness": lambda: _dc3_witness(moves, in1, in2),
        "dc4_witness": lambda: _dc4_witness(a, proj1) or _dc4_witness(a, proj2),
    }
    return DecomposabilityReport._read_later(bisim, p1, p2, pending)


def verify_decentralized(ap1, ap2, local1, local2, a_spec) -> BisimResult:
    """Check that the locally supervised team meets the global spec.

    Every argument is an operand; ``local1`` and ``local2`` are the local
    supervisors, such as the projections that :func:`decompose` gives.
    The team, the product of each plant with its supervisor, is walked,
    never composed, and its states are named ``⟨⟨ap1,local1⟩,⟨ap2,local2⟩⟩``
    as composing names them.
    """
    return is_bisimilar(((ap1, local1), (ap2, local2)), a_spec)
