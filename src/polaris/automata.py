"""Finite automata and the algebraic operations the toolkit builds on.

Automata are immutable values: states are opaque strings, the alphabet is a
set of :class:`Event` records, and the transition relation is stored once,
as a successor index keyed by event class (state -> class id -> set of
targets) that also represents nondeterminism.  A class is a maximal set of
events with one relation, controllability and owners; the models' alphabets
grow with the partition but their class counts do not, so the operations
below run over classes, or over the common refinement of several automata's
classes, and never over single events.  ``Automaton.build`` takes rows
whose middle element may be a group of events, and its per-event work is
to check each member and place it in its class.  The sorted (source,
event id, target) triples are derived from the index on request.  All
operations are pure functions returning new automata.

Every search here and in :mod:`polaris.supervision` is one breadth-first
walk, :func:`_walk`, over rows ``node -> label -> successor nodes`` from
one or several starts; :func:`_path` reads a shortest path back from the
parents it records.  The subset construction is such a row function,
walked only where its subsets are reached, and :func:`_walked` names the
nodes of a walk as the states of a new automaton, for composition and
projection alike.  An operand of the product walks below is an automaton
or a tuple of operands, which stands for the product of its members
composed left to right, its states named ``⟨…,…⟩`` as
:func:`parallel_compose` names them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import AlphabetConflict

__all__ = [
    "Event",
    "Automaton",
    "BisimResult",
    "accessible",
    "parallel_compose",
    "natural_project",
    "is_bisimilar",
]

_NO_ROW: dict = {}
_NO_TARGETS: frozenset = frozenset()


class _EventFields(NamedTuple):
    id: str
    controllable: bool
    owners: frozenset = frozenset()


class Event(_EventFields):
    """An alphabet symbol with its controllability flag and owner tags.

    ``owners`` says which agents' local alphabets the event belongs to
    (a subset of {1, 2}); shared coordination events carry both tags.
    Any iterable of tags is stored as a frozenset.
    """

    __slots__ = ()

    def __new__(cls, id: str, controllable: bool, owners: Iterable[int] = frozenset()):
        return tuple.__new__(cls, (id, controllable, frozenset(owners)))

    @classmethod
    def _make(cls, fields):
        # ``_replace`` builds through here, so it normalizes ``owners`` too
        return cls(*fields)


def _merge_events(groups: Sequence[Iterable[Event]]) -> tuple:
    """Union alphabets by id, checking controllability agreement.

    The union is sorted by id.  Several groups are taken to be alphabets
    of automata, sorted with one record per id, so a group equal to an
    earlier one adds nothing and, when all are equal, the first is kept.
    """
    distinct = [group for (k, group) in enumerate(groups) if group not in groups[:k]]
    if len(distinct) == 1 < len(groups):
        return distinct[0]
    by_id: dict[str, Event] = {}
    for group in distinct:
        for ev in group:
            old = by_id.setdefault(ev.id, ev)
            if old is ev or old == ev:
                continue
            if old.controllable != ev.controllable:
                raise AlphabetConflict(
                    f"event {ev.id!r} is controllable in one alphabet "
                    "and uncontrollable in the other"
                )
            by_id[ev.id] = Event(ev.id, ev.controllable, old.owners | ev.owners)
    return tuple([by_id[ev] for ev in sorted(by_id)])


class Automaton:
    """A finite transition system with marked states.

    ``_succ`` is the only stored transition relation: state -> class id ->
    nonempty frozenset of targets, equal sets shared as one object, rows
    listing their classes in id order.  ``_members[c]`` holds the sorted
    event ids of class ``c`` and ``_class_of`` maps each event id back to
    its class.  Classes are maximal (events share one exactly when they
    have the same relation, controllability and owners) and numbered in the
    order of their smallest members, so equal automata have equal indexes
    however they were built, and equality compares the index.  The hash
    and ``repr`` read the four public fields only.  Instances are
    validated on construction and never mutated afterwards.
    """

    __slots__ = (
        "states", "initial", "alphabet", "marked",
        "_succ", "_members", "_class_of", "_event_ids",
    )

    def __init__(
        self, states: frozenset, initial: str, alphabet: tuple, marked: frozenset,
        _succ: dict, _members: tuple, _class_of: dict, _event_ids: frozenset,
    ):
        set_field = object.__setattr__
        set_field(self, "states", states)
        set_field(self, "initial", initial)
        set_field(self, "alphabet", alphabet)
        set_field(self, "marked", marked)
        set_field(self, "_succ", _succ)
        set_field(self, "_members", _members)
        set_field(self, "_class_of", _class_of)
        set_field(self, "_event_ids", _event_ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return (self.states, self.initial, self.alphabet, self.marked, self._succ, self._members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash((self.states, self.initial, self.alphabet, self.marked))

    def __repr__(self):
        return (
            f"Automaton(states={self.states!r}, initial={self.initial!r}, "
            f"alphabet={self.alphabet!r}, marked={self.marked!r})"
        )

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        initial: str,
        alphabet: Iterable[Event],
        transitions: Iterable[tuple],
        marked: Iterable[str],
    ) -> "Automaton":
        """Validate (source, event, target) rows and index them by class.

        A row's event is an event id or a tuple of event ids (an event
        group), which stands for one triple per member.  Endpoints are
        checked once per row and events once per member.  Each event is
        keyed by the rows it appears in, its controllability and owners,
        and those keys are the groups handed to :meth:`_from_classes`.
        """
        states = frozenset(states)
        marked = frozenset(marked)
        alphabet = _merge_events([alphabet])
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not in state set")
        if not marked <= states:
            raise ValueError("marked states must be a subset of the state set")
        rows_of = {e.id: [] for e in alphabet}
        ends = []
        for (src, group, dst) in transitions:
            if isinstance(group, str):
                group = (group,)
            elif not group:
                continue
            if src not in states or dst not in states:
                raise ValueError(f"transition ({src},{group[0]},{dst}) has unknown endpoint")
            row = len(ends)
            ends.append((src, dst))
            for ev in group:
                rows = rows_of.get(ev)
                if rows is None:
                    raise ValueError(f"transition event {ev!r} not in alphabet")
                rows.append(row)
        members: dict = {}
        for e in alphabet:
            members.setdefault((tuple(rows_of[e.id]), e.controllable, e.owners), []).append(e.id)
        relation = {key: {ends[row] for row in key[0]} for key in members}
        return cls._from_classes(states, initial, alphabet, members, relation, marked)

    @classmethod
    def _from_classes(
        cls,
        states: Iterable[str],
        initial: str,
        alphabet: tuple,
        members: Mapping,
        relation: Mapping,
        marked: Iterable[str],
    ) -> "Automaton":
        """Index a relation given over groups of events, unvalidated.

        ``alphabet`` is sorted by id; ``members`` maps each group key to its
        sorted event ids, the groups partitioning the alphabet, and
        ``relation`` maps a key to its (source, target) pairs (a key may be
        missing when it has none).  The events of one group must agree on
        controllability and owners.  Groups with one relation,
        controllability and owners are merged into one class.
        """
        by_id = {e.id: e for e in alphabet}
        grouped: dict = {}
        for key, evs in members.items():
            first = by_id[evs[0]]
            pairs = frozenset(relation.get(key, ()))
            grouped.setdefault((pairs, first.controllable, first.owners), []).append(evs)
        classes = sorted(
            (sorted(ev for evs in groups for ev in evs), pairs)
            for ((pairs, _, _), groups) in grouped.items()
        )
        # one frozenset per distinct target set, shared by every row using it:
        # a lone target takes its one-element set from ``ones``; a second
        # target turns the entry into a mutable set, frozen and shared below
        succ: dict = {}
        ones: dict = {}
        grown: list = []
        for c, (_, pairs) in enumerate(classes):
            for (src, dst) in pairs:
                row = succ.get(src)
                if row is None:
                    row = succ[src] = {}
                targets = row.get(c)
                if targets is None:
                    one = ones.get(dst)
                    if one is None:
                        one = ones[dst] = frozenset((dst,))
                    row[c] = one
                elif targets.__class__ is set:
                    targets.add(dst)
                else:
                    row[c] = {*targets, dst}
                    grown.append((row, c))
        shared: dict = {}
        for (row, c) in grown:
            targets = frozenset(row[c])
            row[c] = shared.setdefault(targets, targets)
        member_ids = tuple(tuple(evs) for (evs, _) in classes)
        class_of = {ev: c for c, evs in enumerate(member_ids) for ev in evs}
        return cls(
            frozenset(states), initial, alphabet, frozenset(marked), succ, member_ids,
            class_of, frozenset(by_id),
        )

    # -- queries ---------------------------------------------------------

    @property
    def transitions(self) -> tuple:
        """The relation as sorted (source, event id, target) triples."""
        members = self._members
        return tuple(
            sorted(
                (q, ev, d)
                for q, row in self._succ.items()
                for c, ds in row.items()
                for ev in members[c]
                for d in ds
            )
        )

    @property
    def event_ids(self) -> frozenset:
        return self._event_ids

    def enabled(self, state: str) -> tuple:
        """Event ids with at least one transition from ``state``, sorted."""
        members = self._members
        return tuple(sorted(ev for c in self._succ.get(state, _NO_ROW) for ev in members[c]))

    def step(self, state: str, event_id: str) -> frozenset:
        return self._succ.get(state, _NO_ROW).get(self._class_of.get(event_id), _NO_TARGETS)

    def step1(self, state: str, event_id: str) -> Optional[str]:
        """Deterministic step; None when undefined."""
        dsts = self.step(state, event_id)
        if len(dsts) > 1:
            raise ValueError(f"nondeterministic step at ({state!r}, {event_id!r})")
        return next(iter(dsts)) if dsts else None

    @property
    def deterministic(self) -> bool:
        return all(len(dsts) == 1 for row in self._succ.values() for dsts in row.values())

    def _reach(self, string: Sequence[str]) -> set:
        """The states ``string`` leads to; empty iff it is not generated."""
        current = {self.initial}
        for ev in string:
            current = {d for q in current for d in self.step(q, ev)}
            if not current:
                break
        return current

    def accepts(self, string: Sequence[str]) -> bool:
        """Membership of ``string`` in the marked language."""
        return bool(self._reach(string) & self.marked)

    def generates(self, string: Sequence[str]) -> bool:
        """Membership of ``string`` in the generated language."""
        return bool(self._reach(string))

    # -- simple rewrites --------------------------------------------------

    def _restricted(self, keep: Mapping[str, str]) -> "Automaton":
        """The automaton on the states of ``keep``, each renamed to its
        value; the initial state must be kept."""
        relation: dict = {}
        for q, row in self._succ.items():
            src = keep.get(q)
            if src is None:
                continue
            for c, ds in row.items():
                pairs = relation.get(c)
                if pairs is None:
                    pairs = relation[c] = set()
                pairs.update((src, keep[d]) for d in ds)
        return Automaton._from_classes(
            keep.values(),
            keep[self.initial],
            self.alphabet,
            dict(enumerate(self._members)),
            relation,
            {keep[q] for q in self.marked if q in keep},
        )

    def renamed(self, mapping: Mapping[str, str]) -> "Automaton":
        return self._restricted({q: mapping.get(q, q) for q in self.states})


def _walk(row_of, starts: Iterable, parents: dict):
    """Breadth-first over the nodes reachable from ``starts``.

    ``row_of(node)`` is the node's row, ``label -> successor nodes``, as
    :meth:`_Product.row`, a :class:`_Product`'s ``__getitem__`` or a
    subset construction's row function gives it.  The starts are queued
    first, in the given order and each once, with parent None.  Yields
    ``(node, row)`` for each node in the order it is queued, the
    successors of a node in its row's order.  ``parents`` records each
    reached node's ``(parent, label)``: a caller that stops early reads a
    shortest path to the node from it with :func:`_path`, and one that
    walks to the end reads the reached set.
    """
    queue = list(dict.fromkeys(starts))
    parents.update(dict.fromkeys(queue))
    for node in queue:
        row = row_of(node)
        yield node, row
        for (label, ds) in row.items():
            for d in ds:
                if d not in parents:
                    parents[d] = (node, label)
                    queue.append(d)


def _path(parents: dict, node) -> tuple:
    """``(start, labels)``: the start a :func:`_walk` reached ``node`` from
    and the labels of the shortest path to it that ``parents`` records."""
    labels = []
    while parents[node] is not None:
        (node, label) = parents[node]
        labels.append(label)
    return node, tuple(reversed(labels))


def _walked(row_of, start, name, marks, alphabet: tuple, members: Mapping) -> Automaton:
    """The automaton of the nodes a :func:`_walk` from ``start`` reaches.

    Each node is named ``name(node)`` and marked when ``marks(node)`` is
    true; ``members`` maps each label of the rows to its sorted events of
    ``alphabet``, as :meth:`Automaton._from_classes` takes them.  The
    walk keeps no rows.
    """
    names = {start: name(start)}
    relation: dict = {label: [] for label in members}
    for (node, row) in _walk(row_of, (start,), {}):
        src = names[node]
        for (label, ds) in row.items():
            pairs = relation[label]
            for d in ds:
                dst = names.get(d)
                if dst is None:
                    dst = names[d] = name(d)
                pairs.append((src, dst))
    marked = [n for (node, n) in names.items() if marks(node)]
    return Automaton._from_classes(
        names.values(), names[start], alphabet, members, relation, marked
    )


def accessible(a: Automaton) -> Automaton:
    """Trim to the states reachable from the initial state."""
    reach = {q for (q, _) in _walk(lambda q: a._succ.get(q, _NO_ROW), (a.initial,), {})}
    if reach == a.states:
        return a
    return a._restricted({q: q for q in reach})


def _common_classes(events: Sequence[str], autos: Sequence[Automaton], split=()) -> dict:
    """The common refinement of the automata's event classes.

    Two of the sorted ``events`` share a block when every automaton of
    ``autos`` puts them in one class (or has neither) and every set of
    ``split`` holds both or neither.  Returns ``label -> events`` in label
    order, a block's label being its smallest event, so an algorithm that
    runs over labels in order meets each block where a scan of single
    events in sorted order would first meet it.
    """
    columns = [map(a._class_of.get, events) for a in autos]
    columns += [map(s.__contains__, events) for s in split]
    blocks: dict = {}
    for (ev, key) in zip(events, zip(*columns)):
        evs = blocks.get(key)
        if evs is None:
            blocks[key] = [ev]
        else:
            evs.append(ev)
    return {evs[0]: evs for evs in blocks.values()}


def _label_rows(a: Automaton, labels: Iterable[str]) -> dict:
    """``a``'s successor rows over the labels of a common refinement:
    state -> label -> sorted tuple of targets, for every state, rows in
    label order."""
    on: dict = {}
    for label in labels:
        c = a._class_of.get(label)
        if c is not None:
            on.setdefault(c, []).append(label)
    # _succ shares one frozenset per distinct target set: sort each once
    shared = {ds for row in a._succ.values() for ds in row.values()}
    ordered = {ds: tuple(sorted(ds)) for ds in shared}
    rows = {
        q: {label: ordered[ds] for c, ds in a._succ.get(q, _NO_ROW).items() for label in on[c]}
        for q in a.states
    }
    # _succ rows list their classes in id order, so the rows above are in
    # label order already when the labels taken class by class are sorted
    by_class = [label for c in sorted(on) for label in on[c]]
    if by_class != sorted(by_class):
        rows = {q: dict(sorted(row.items())) for q, row in rows.items()}
    return rows


def _pairs(ds1: tuple, ds2: tuple) -> tuple:
    """The pairs of ``ds1`` and ``ds2``, each in its own order."""
    return tuple((d1, d2) for d1 in ds1 for d2 in ds2)


class _Product(dict):
    """The synchronous product of two operands, its rows made on demand.

    An operand is a triple ``(rows, holds, marks)``: ``rows`` maps each of
    its nodes to ``label -> tuple of targets`` over the labels of one common
    refinement, ``holds`` is the set of labels its alphabet holds and
    ``marks`` tells its marked nodes; :func:`_operands` makes them and
    nests products through :meth:`side`.  A node is a pair of the
    operands' nodes.  :meth:`row` builds a node's row, ``label ->
    successor nodes``, and ``self[node]`` builds it on its first read and
    keeps it, for nested products, whose rows are read again.  A shared
    label fires when both operands enable it and a private one moves its
    own operand alone; this is the only statement of those rules.  A row
    lists the first operand's labels in that operand's row order, then the
    second operand's private ones, and a label's successors in the order
    of each operand's (sorted) targets.
    """

    __slots__ = ("_rows1", "_rows2", "_marks1", "_marks2", "_shared", "_only2", "_holds")

    def __init__(self, side1: tuple, side2: tuple):
        super().__init__()
        (self._rows1, holds1, self._marks1) = side1
        (self._rows2, holds2, self._marks2) = side2
        self._shared = holds1 & holds2
        self._only2 = holds2 - holds1
        self._holds = holds1 | holds2

    def side(self) -> tuple:
        return (self, self._holds, self.marks)

    def marks(self, node: tuple) -> bool:
        return self._marks1(node[0]) and self._marks2(node[1])

    def row(self, node: tuple) -> dict:
        """The row of ``node``, built anew and not kept."""
        (q1, q2) = node
        row2 = self._rows2[q2]
        shared = self._shared
        stay1, stay2 = (q1,), (q2,)
        row = {}
        for (label, ds1) in self._rows1[q1].items():
            if label not in shared:
                ds2 = stay2
            else:
                ds2 = row2.get(label)
                if ds2 is None:
                    continue
            row[label] = (ds1 + ds2,) if len(ds1) == 1 == len(ds2) else _pairs(ds1, ds2)
        only2 = self._only2
        if only2:
            for (label, ds2) in row2.items():
                if label in only2:
                    row[label] = (stay1 + ds2,) if len(ds2) == 1 else _pairs(stay1, ds2)
        return row

    def __missing__(self, node: tuple) -> dict:
        row = self[node] = self.row(node)
        return row


def _leaves(operand) -> list:
    """The automata of an operand, left to right."""
    if not isinstance(operand, tuple):
        return [operand]
    return [a for member in operand for a in _leaves(member)]


def _operands(*operands) -> tuple:
    """The operands of one walk as :class:`_Product` operands.

    Returns ``(labels, made)``: ``labels`` is the common refinement of the
    classes of every automaton in the operands, and ``made`` holds each
    operand's ``(alphabet, triple, start node)``.  A tuple's alphabet is
    the union of its members', which must agree on controllability, and
    its node is the nested pair of its members' nodes.
    """
    leaves: dict = {}
    alphabets = []
    for operand in operands:
        mine = _leaves(operand)
        leaves.update((id(a), a) for a in mine)
        alphabets.append(
            mine[0].alphabet if len(mine) == 1 else _merge_events([a.alphabet for a in mine])
        )
    if len(alphabets) == 1:
        events = [e.id for e in alphabets[0]]
    else:
        events = sorted({e.id for alphabet in alphabets for e in alphabet})
    labels = _common_classes(events, list(leaves.values()))
    sides = {}
    for (key, a) in leaves.items():
        holds = frozenset(label for label in labels if label in a._class_of)
        sides[key] = (_label_rows(a, labels), holds, a.marked.__contains__)

    def made(operand) -> tuple:
        if not isinstance(operand, tuple):
            return (sides[id(operand)], operand.initial)
        (side, start) = made(operand[0])
        for member in operand[1:]:
            (other, q) = made(member)
            side = _Product(side, other).side()
            start = (start, q)
        return (side, start)

    return labels, [(alphabet, *made(x)) for (alphabet, x) in zip(alphabets, operands)]


def product_state(q1: str, q2: str) -> str:
    return f"⟨{q1},{q2}⟩"


def _name(node) -> str:
    """The state name of an operand's node: ``⟨q1,q2⟩`` for a pair."""
    if node.__class__ is str:
        return node
    return product_state(_name(node[0]), _name(node[1]))


def parallel_compose(a1, a2) -> Automaton:
    """Synchronous composition: shared events synchronize, private events
    interleave.  The result is trimmed to its accessible part and product
    states are canonically named ⟨q1,q2⟩.  The nodes are those a walk of
    the :class:`_Product` of both operands reaches, by label of their
    common refinement, so a product class is a union of pairs of operand
    classes.  The walk keeps no rows."""
    (labels, [(alphabet, (product, _, marks), init)]) = _operands((a1, a2))
    return _walked(product.row, init, _name, marks, alphabet, labels)


# -- natural projection ---------------------------------------------------


def _projection(a: Automaton, keep: frozenset):
    """The subset construction of ``a`` with events outside ``keep`` erased.

    A class with an event outside ``keep`` moves silently; one with a kept
    event is visible through its kept events.  Returns ``(row, init,
    visible)``: ``row(subset)`` is the subset's row for :func:`_walk`,
    mapping each visible class that a member enables to a one-tuple of the
    subset it reaches by hidden moves, then that class, then hidden moves
    (never the empty subset); ``init`` is the hidden closure of the
    initial state and ``visible[c]`` lists the kept events of each visible
    class, sorted.  Each state's closure and its own row are computed
    once.
    """
    visible = {}
    hidden = set()
    for c, evs in enumerate(a._members):
        kept = [ev for ev in evs if ev in keep]
        if kept:
            visible[c] = kept
        if len(kept) < len(evs):
            hidden.add(c)
    hidden_rows = {
        q: {c: dsts for c, dsts in a._succ.get(q, _NO_ROW).items() if c in hidden}
        for q in a.states
    }
    closure = {
        q: frozenset(p for (p, _) in _walk(hidden_rows.__getitem__, (q,), {})) for q in a.states
    }
    # a state's row first collects the distinct states a visible class
    # reaches, then takes the union of their closures once; a single
    # state's row entry is its closure set itself
    trans = {}
    for q in a.states:
        reached: dict = {}
        for p in closure[q]:
            for c, dsts in a._succ.get(p, _NO_ROW).items():
                if c in visible:
                    ds = reached.get(c)
                    if ds is None:
                        reached[c] = set(dsts)
                    else:
                        ds.update(dsts)
        trans[q] = {
            c: (
                closure[next(iter(ds))]
                if len(ds) == 1
                else frozenset().union(*map(closure.get, ds))
            )
            for c, ds in reached.items()
        }

    def row(subset: frozenset) -> dict:
        # collect each class's member target sets, then take one union
        parts: dict = {}
        for q in subset:
            for c, dsts in trans[q].items():
                parts.setdefault(c, []).append(dsts)
        return {c: (ds[0] if len(ds) == 1 else frozenset().union(*ds),) for c, ds in parts.items()}

    return row, closure[a.initial], visible


def _subset_name(subset: frozenset) -> str:
    return "{" + ",".join(sorted(subset)) + "}"


def natural_project(a: Automaton, keep: Iterable[str]) -> Automaton:
    """Erase events outside ``keep`` to silent moves, then determinize.

    Returns a deterministic automaton over ``keep`` whose generated and
    marked languages are the projections of the originals; a subset state
    is marked iff it contains a marked state.
    """
    keep = frozenset(keep)
    unknown = keep - a.event_ids
    if unknown:
        raise ValueError(f"keep set contains unknown events: {sorted(unknown)}")
    kept_events = tuple(e for e in a.alphabet if e.id in keep)

    row, init, visible = _projection(a, keep)
    return _walked(row, init, _subset_name, a.marked.intersection, kept_events, visible)


# -- bisimulation ----------------------------------------------------------


class BisimResult(NamedTuple):
    relation: Optional[frozenset]  # the matched (state1, state2) pairs, or None

    def __bool__(self):
        return self.relation is not None


def _refine(block_of: dict, succ: dict) -> dict:
    """Coarsest stable refinement of an initial partition.

    ``block_of`` maps every state to its initial block and ``succ`` maps
    every state to ``event -> successor states`` (an event may stand for a
    class of events).  Blocks are split on (event, target-block) signatures
    until stable; the result maps each state to a block id, two states
    sharing one iff they are bisimilar under the initial partition.  Block
    ids are numbered in order of first appearance: callers only compare
    them.
    """
    while True:
        new_ids: dict = {}
        new_block_of = {}
        for q in block_of:
            sig = (
                block_of[q],
                frozenset(
                    (ev, frozenset([block_of[d] for d in dsts]))
                    for ev, dsts in succ[q].items()
                ),
            )
            new_block_of[q] = new_ids.setdefault(sig, len(new_ids))
        if len(new_ids) == len(set(block_of.values())):
            return new_block_of
        block_of = new_block_of


def _equivalent(side1: tuple, side2: tuple, start: tuple) -> Optional[frozenset]:
    """The bisimulation between two :class:`_Product` operands from ``start``.

    The pair walk of J. E. Hopcroft and R. M. Karp ("A linear algorithm
    for testing equivalence of finite automata", Cornell TR 71-114, 1971),
    without its union-find so that it visits every reachable pair, moves
    on the labels both sides enable.  While its rows have one target per
    label, each node it reaches is the only one its string leads to, so a
    pair whose marking or enabled labels differ proves the sides not
    bisimilar (None); a walk with no such pair returns the reached pairs.
    At the first pair whose row has a label with two successors, before
    they are queued, partition refinement of the nodes reachable on each
    side, marked and unmarked ones as the initial blocks, gives the
    maximal bisimulation, or None when it holds no start pair.
    """
    (rows1, holds1, marks1), (rows2, holds2, marks2) = side1, side2
    every = holds1 | holds2
    pairs = _Product((rows1, every, marks1), (rows2, every, marks2))
    parents: dict = {}
    for ((x, y), row) in _walk(pairs.row, (start,), parents):
        if marks1(x) != marks2(y) or not len(row) == len(rows1[x]) == len(rows2[y]):
            return None
        if max(map(len, row.values()), default=1) > 1:
            break
    else:
        return frozenset(parents)
    succ: dict = {}
    block_of: dict = {}
    reached = []
    for (tag, rows, marks, q0) in ((1, rows1, marks1, start[0]), (2, rows2, marks2, start[1])):
        nodes: dict = {}
        for (q, row) in _walk(rows.__getitem__, (q0,), nodes):
            succ[tag, q] = {label: [(tag, d) for d in ds] for (label, ds) in row.items()}
            block_of[tag, q] = marks(q)
        reached.append(nodes)
    block_of = _refine(block_of, succ)
    in_block: dict = {}
    for q2 in reached[1]:
        in_block.setdefault(block_of[2, q2], []).append(q2)
    relation = frozenset((q1, q2) for q1 in reached[0] for q2 in in_block.get(block_of[1, q1], ()))
    return relation if start in relation else None


def is_bisimilar(a1, a2) -> BisimResult:
    """Decide bisimilarity of two operands, marked states matched to marked.

    They move by label of the common refinement of their automata's
    classes; an event missing from one alphabet never fires on that side.
    ``relation`` is None when they are not bisimilar; otherwise it holds
    the reachable state pairs when :func:`_equivalent`'s walk met only
    rows with one target per label, and else the maximal bisimulation
    between the reachable states.
    """
    (_, [(_, side1, start1), (_, side2, start2)]) = _operands(a1, a2)
    pairs = _equivalent(side1, side2, (start1, start2))
    if pairs is None:
        return BisimResult(None)
    return BisimResult(frozenset((_name(x), _name(y)) for (x, y) in pairs))
