"""Finite automata and the algebraic operations the toolkit builds on.

Automata are immutable values: states are opaque strings, the alphabet is a
set of :class:`Event` records, and the transition relation is stored once,
as a successor index keyed by event class (state -> class label -> sorted
tuple of targets) that also represents nondeterminism.  A class is a
maximal set of events with one relation, controllability and owners, and
its label is its smallest event.  Every set of events is a bit mask over a
universe, the sorted event ids of a :class:`_Universe`: bit i stands for
its i-th id, so a mask's lowest set bit is its smallest event, and a
mask's label.  An automaton holds its classes as masks and its
alphabet as one mask per (controllable, owners) kind, an
:class:`_Alphabet`; the models of one partition share one universe.  The
models' alphabets grow with the partition but their class counts do not,
so the operations below refine, merge and build over masks: the common
refinement of several automata's classes is the nonzero ANDs of their
class masks, and automata over universes with the same ids merge
alphabets by their kinds.  Automata over universes with different ids
(files, tests) are all remapped onto one new universe of their events,
once per call; a class keeps its label there, so no result depends on
the universe a walk reads.  The product walks read an automaton's index
as their rows unless the common refinement of their operands splits one
of its classes.
``Automaton.build`` takes rows whose middle element is an event id or a
mask, a group of events.  A class is expanded into its events only
where a reader asks for single events: :meth:`Automaton.step` (through
``_class_of``), ``event_ids``, ``alphabet``,
:func:`polaris.exchange.dumps` (through ``_members``), a projection's keep
set and the rows of ``build`` given as ids.  All operations are pure
functions returning new automata.

Every search here and in :mod:`polaris.supervision` is one breadth-first
walk, :func:`_walk`, over rows ``node -> label -> successor nodes`` from
one or several starts; :func:`_path` reads a shortest path back from the
parents it records.  The subset construction is such a row function,
walked only where its subsets are reached, and :func:`_walked` names the
nodes of a walk as the states of a new automaton: it builds every
composed, projected and trimmed automaton.  An operand of the product
walks below is an automaton or a tuple of operands, which stands for the
product of its members composed left to right, its states named
``⟨…,…⟩`` as :func:`parallel_compose` names them.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
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
# the digits of bin() as the bytes 0 and 1, selectors for itertools.compress
_DIGITS = bytes.maketrans(b"01", b"\0\1")


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


class _Universe:
    """Sorted event ids: bit i of a mask over the universe stands for ``ids[i]``."""

    __slots__ = ("ids", "bit")

    def __init__(self, ids: Iterable[str]):
        self.ids = tuple(sorted(set(ids)))
        self.bit = {ev: 1 << i for i, ev in enumerate(self.ids)}

    def mask(self, ids: Iterable[str]) -> int:
        """The mask of ``ids``; a KeyError names an id outside the universe."""
        return reduce(or_, map(self.bit.__getitem__, ids), 0)

    def ids_of(self, mask: int) -> list:
        """The ids of ``mask``, sorted."""
        return list(compress(self.ids, bin(mask)[:1:-1].encode().translate(_DIGITS)))

    def label(self, mask: int) -> str:
        """The smallest id of a nonzero ``mask``: its lowest set bit."""
        return self.ids[(mask & -mask).bit_length() - 1]

    def same(self, other: "_Universe") -> bool:
        """Whether ``other`` holds the same ids, so that a mask means the
        same events over both."""
        return self is other or self.ids == other.ids


class _Alphabet:
    """An alphabet as masks over a universe.

    ``kinds`` maps each (controllable, owners) pair of the alphabet's events
    to their nonzero mask, and ``mask`` is the union of the kinds.
    ``events`` lists the :class:`Event` records, sorted by id, made when
    first read and kept, so automata that share an alphabet share them.
    """

    __slots__ = ("universe", "kinds", "mask", "_events")

    def __init__(self, universe: _Universe, kinds: dict):
        self.universe = universe
        self.kinds = kinds
        self.mask = reduce(or_, kinds.values(), 0)
        self._events = None

    @classmethod
    def of(cls, events: Iterable[Event]) -> "_Alphabet":
        """The alphabet of ``events`` over the universe of their ids: the
        union (:func:`_merged`) of one alphabet per (controllable, owners)
        kind, so records of one id unite their owners, and conflict when
        their controllability differs."""
        by_kind: dict = {}
        for (ev, *kind) in events:
            by_kind.setdefault(tuple(kind), []).append(ev)
        universe = _Universe(ev for ids in by_kind.values() for ev in ids)
        kinds = [cls(universe, {kind: universe.mask(ids)}) for (kind, ids) in by_kind.items()]
        return _merged(kinds or [cls(universe, {})])

    @property
    def events(self) -> tuple:
        if self._events is None:
            ids_of = self.universe.ids_of
            self._events = tuple(
                sorted(Event(ev, *kind) for kind, m in self.kinds.items() for ev in ids_of(m))
            )
        return self._events

    def restricted(self, mask: int) -> "_Alphabet":
        return _Alphabet(self.universe, {k: m & mask for k, m in self.kinds.items() if m & mask})

    def within(self, ids: Iterable[str]) -> Optional[int]:
        """The mask of ``ids``, or None when one is not in the alphabet."""
        try:
            mask = self.universe.mask(ids)
        except KeyError:
            return None
        return None if mask & ~self.mask else mask


def _merged(alphabets: Sequence[_Alphabet]) -> _Alphabet:
    """The union of alphabets over universes with the same ids: the
    first, when all are equal.  An event's owners unite its owners in
    each, and an event controllable in one and uncontrollable in another
    raises :class:`AlphabetConflict`, naming the smallest such event."""
    first = alphabets[0]
    if all(x is first or x.kinds == first.kinds for x in alphabets):
        return first
    union: dict = {}
    for x in alphabets:
        for (kind, m) in x.kinds.items():
            union[kind] = union.get(kind, 0) | m
    (seen, twice) = (0, 0)
    for m in union.values():
        (seen, twice) = (seen | m, twice | seen & m)
    if twice:
        # an event of two kinds: refuse it, or unite its owners
        kinds = list(union.items())
        (controllable, uncontrollable) = (
            reduce(or_, [m for ((c, _), m) in kinds if c == flag], 0) for flag in (True, False)
        )
        if controllable & uncontrollable:
            raise AlphabetConflict(
                f"event {first.universe.label(controllable & uncontrollable)!r} is "
                "controllable in one alphabet and uncontrollable in the other"
            )
        union = {}
        for block in _refined([seen], [m for (_, m) in kinds]):
            owners = frozenset().union(*[o for ((_, o), m) in kinds if m & block])
            key = (bool(block & controllable), owners)
            union[key] = union.get(key, 0) | block
    return _Alphabet(first.universe, union)


def _refined(blocks: list, masks: Iterable[int]) -> list:
    """The nonzero ANDs of the blocks with each mask and its complement."""
    for m in masks:
        blocks = [x for b in blocks for x in (b & m, b & ~m) if x]
    return blocks


class Automaton:
    """A finite transition system with marked states.

    ``_succ`` is the only stored transition relation: every state -> class
    label -> nonempty sorted tuple of targets, a row empty when its state
    has no moves, equal tuples shared as one object, rows listing their
    classes in label order; ``_det`` tells that every tuple has one
    target.  ``_masks[c]`` is the mask of the class labelled ``c`` over
    the universe of ``_sigma``, the :class:`_Alphabet`, in label order.
    Classes are maximal (events share one exactly when they have the same
    relation, controllability and owners) and labelled by their smallest
    members, so equal automata have equal indexes however they were built,
    and equality compares the index and each class's member ids.
    ``_members`` (label -> sorted ids), ``_class_of`` (id -> label) and
    ``_event_ids`` are made when first read.  The hash and ``repr`` read
    the four public fields only.  Instances are validated on construction
    and never mutated afterwards; a copy or a pickle holds the seven
    constructor fields only.
    """

    __slots__ = (
        "states", "initial", "marked", "_succ", "_sigma", "_masks", "_det",
        "_members", "_class_of", "_event_ids",
    )

    def __init__(
        self, states: frozenset, initial: str, marked: frozenset,
        _succ: dict, _sigma: _Alphabet, _masks: dict, _det: bool,
    ):
        set_field = object.__setattr__
        set_field(self, "states", states)
        set_field(self, "initial", initial)
        set_field(self, "marked", marked)
        set_field(self, "_succ", _succ)
        set_field(self, "_sigma", _sigma)
        set_field(self, "_masks", _masks)
        set_field(self, "_det", _det)

    def __getattr__(self, name):
        # the per-event views of the index, made on first read
        if name == "_members":
            ids_of = self._sigma.universe.ids_of
            value = {c: tuple(ids_of(m)) for (c, m) in self._masks.items()}
        elif name == "_class_of":
            value = {}
            for c, evs in self._members.items():
                value.update(dict.fromkeys(evs, c))
        elif name == "_event_ids":
            value = frozenset(self._sigma.universe.ids_of(self._sigma.mask))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = (self.states, self.initial, self.marked, self._succ)
        if fields != (other.states, other.initial, other.marked, other._succ):
            return False
        return self._members == other._members and self.alphabet == other.alphabet

    def __hash__(self):
        return hash((self.states, self.initial, self.alphabet, self.marked))

    def __reduce__(self):
        fields = (self.states, self.initial, self.marked, self._succ, self._sigma, self._masks)
        return (type(self), (*fields, self._det))

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
        alphabet,
        transitions: Iterable[tuple],
        marked: Iterable[str],
    ) -> "Automaton":
        """Validate (source, event, target) rows and index them by class.

        ``alphabet`` is an iterable of events or an :class:`_Alphabet`.  A
        row's event is an event id or a mask over the alphabet's universe,
        which stands for one triple per member; a zero mask adds nothing.
        Endpoints are checked once per row, and a mask's events at once.
        The rows' masks refine the alphabet into blocks, each block's pairs
        are those of the rows holding it, and :meth:`_from_classes` makes
        the classes of the blocks.
        """
        states = frozenset(states)
        marked = frozenset(marked)
        if not isinstance(alphabet, _Alphabet):
            alphabet = _Alphabet.of(alphabet)
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not in state set")
        if not marked <= states:
            raise ValueError("marked states must be a subset of the state set")
        (universe, inside) = (alphabet.universe, alphabet.mask)
        ends_of: dict = {}  # a row mask -> its (source, target) pairs
        for (src, event, dst) in transitions:
            is_id = event.__class__ is not int
            if not (is_id or event):
                continue
            if src not in states or dst not in states:
                first = event if is_id else universe.label(event)
                raise ValueError(f"transition ({src},{first},{dst}) has unknown endpoint")
            if is_id:
                mask = universe.bit.get(event, 0) & inside
                if not mask:
                    raise ValueError(f"transition event {event!r} not in alphabet")
            elif event & ~inside:
                raise ValueError(
                    f"transition event {universe.label(event & ~inside)!r} not in alphabet"
                )
            else:
                mask = event
            ends_of.setdefault(mask, []).append((src, dst))
        blocks = _refined([inside], ends_of)
        groups = [(b, [e for m, ends in ends_of.items() if m & b for e in ends]) for b in blocks]
        return cls._from_classes(states, initial, alphabet, groups, marked)

    @classmethod
    def _from_classes(
        cls,
        states: Iterable[str],
        initial: str,
        alphabet: _Alphabet,
        groups: Iterable[tuple],
        marked: Iterable[str],
    ) -> "Automaton":
        """Index a relation given over groups of events, unvalidated.

        ``groups`` holds each group's ``(mask, (source, target) pairs)``,
        the masks partitioning ``alphabet``.  Groups with one relation are
        merged, and split again by the alphabet's kinds into classes.
        """
        merged: dict = {}
        for (m, pairs) in groups:
            pairs = frozenset(pairs)
            merged[pairs] = merged.get(pairs, 0) | m
        (kinds, label) = (alphabet.kinds.values(), alphabet.universe.label)
        classes = sorted(
            (label(x), x, pairs) for (pairs, m) in merged.items() for k in kinds if (x := m & k)
        )
        # one tuple per distinct target set, shared by every row using it: a
        # lone target takes its one-element tuple from ``ones``; a second
        # target turns the entry into a list, sorted and shared below
        states = frozenset(states)
        succ = dict.fromkeys(states, _NO_ROW)
        ones: dict = {}
        grown: list = []
        for (c, _, pairs) in classes:
            for (src, dst) in pairs:
                row = succ[src]
                if row is _NO_ROW:
                    row = succ[src] = {}
                targets = row.get(c)
                if targets is None:
                    one = ones.get(dst)
                    if one is None:
                        one = ones[dst] = (dst,)
                    row[c] = one
                elif targets.__class__ is list:
                    targets.append(dst)
                else:
                    row[c] = [*targets, dst]
                    grown.append((row, c))
        shared: dict = {}
        for (row, c) in grown:
            targets = tuple(sorted(row[c]))
            row[c] = shared.setdefault(targets, targets)
        masks = {c: m for (c, m, _) in classes}
        return cls(states, initial, frozenset(marked), succ, alphabet, masks, not grown)

    # -- queries ---------------------------------------------------------

    @property
    def alphabet(self) -> tuple:
        return self._sigma.events

    @property
    def event_ids(self) -> frozenset:
        return self._event_ids

    def step(self, state: str, event_id: str) -> tuple:
        """The sorted targets of ``event_id`` from ``state``."""
        return self._succ.get(state, _NO_ROW).get(self._class_of.get(event_id), ())

    def step1(self, state: str, event_id: str) -> Optional[str]:
        """Deterministic step; None when undefined."""
        dsts = self.step(state, event_id)
        if len(dsts) > 1:
            raise ValueError(f"nondeterministic step at ({state!r}, {event_id!r})")
        return dsts[0] if dsts else None

    @property
    def deterministic(self) -> bool:
        return self._det

    def generates(self, string: Sequence[str]) -> bool:
        """Membership of ``string`` in the generated language."""
        current = {self.initial}
        for ev in string:
            current = {d for q in current for d in self.step(q, ev)}
            if not current:
                return False
        return True


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


def _walked(row_of, start, name, marks, alphabet: _Alphabet, members: Mapping) -> Automaton:
    """The automaton of the nodes a :func:`_walk` from ``start`` reaches.

    Each node is named ``name(node)`` and marked when ``marks(node)`` is
    true; ``members`` maps each label of the rows to the mask of its
    events, the masks partitioning ``alphabet``, as
    :meth:`Automaton._from_classes` takes them.  The walk keeps no rows.
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
    groups = [(m, relation[label]) for (label, m) in members.items()]
    return Automaton._from_classes(names.values(), names[start], alphabet, groups, marked)


def accessible(a: Automaton) -> Automaton:
    """Trim to the states reachable from the initial state: ``a`` itself
    when every state is, else the automaton :func:`_walked` names from
    ``a``'s own rows, by class."""
    row_of = a._succ.__getitem__
    reach = {q for (q, _) in _walk(row_of, (a.initial,), {})}
    if reach == a.states:
        return a
    return _walked(row_of, a.initial, str, a.marked.__contains__, a._sigma, a._masks)


def _label_rows(a: Automaton, on: list) -> dict:
    """``a``'s successor rows over the labels of a common refinement:
    state -> label -> sorted tuple of targets, for every state, rows in
    label order.  ``on`` lists the ``(label, class label)`` of each label
    in ``a``'s alphabet, in label order.  Unless the refinement splits a
    class, each label is its class's own, and the rows are ``a._succ``."""
    if len(on) == len(a._masks):
        return a._succ
    return {
        q: {label: ds for (label, c) in on if (ds := row.get(c)) is not None}
        for (q, row) in a._succ.items()
    }


def _pairs(ds1: tuple, ds2: tuple) -> tuple:
    """The pairs of ``ds1`` and ``ds2``, each in its own order."""
    return tuple((d1, d2) for d1 in ds1 for d2 in ds2)


class _Product(dict):
    """The synchronous product of two operands, its rows made on demand.

    An operand is a triple ``(rows, holds, marks)``: ``rows`` maps each of
    its nodes to ``label -> tuple of targets`` over the labels of one
    common refinement, ``holds`` is the set of labels its alphabet holds
    and ``marks`` tells its marked nodes; :func:`_operands` makes them and
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
    return [a for x in operand for a in (_leaves(x) if isinstance(x, tuple) else (x,))]


def _over_one_universe(autos: list) -> tuple:
    """``(universe, views)``: a universe that every automaton's events are
    in, and each automaton's ``(alphabet, label -> class mask)`` over it,
    keyed by ``id``.  When every automaton's universe holds the same ids
    as the first one's, it is the first one's, and each view is the
    automaton's own alphabet and masks.  Otherwise it is a new universe of
    all their events, and every automaton is remapped onto it, each event
    to its new bit in its class, each kind as its classes."""
    universe = autos[0]._sigma.universe
    if all(universe.same(a._sigma.universe) for a in autos):
        return universe, {id(a): (a._sigma, a._masks) for a in autos}
    universe = _Universe(set().union(*[a.event_ids for a in autos]))
    bit = universe.bit
    views = {}
    for a in autos:
        (masks, kinds) = (dict.fromkeys(a._masks, 0), dict.fromkeys(a._sigma.kinds, 0))
        for (ev, c) in a._class_of.items():
            masks[c] |= bit[ev]
        for (old, new) in zip(a._masks.values(), masks.values()):
            # a class lies in one kind
            for (kind, m) in a._sigma.kinds.items():
                if old & m:
                    kinds[kind] |= new
                    break
        views[id(a)] = (_Alphabet(universe, kinds), masks)
    return universe, views


def _operands(*operands, split=()) -> tuple:
    """The operands of one walk as :class:`_Product` operands.

    Returns ``(labels, made)``.  ``labels`` maps each block of the common
    refinement of the classes of every automaton in the operands, split
    further by each mask of ``split``, to its mask, in label order, a
    block's label being its smallest event.  ``made`` holds each operand's
    ``(alphabet, triple, start node)``: a tuple's alphabet merges its
    members' (:func:`_merged`), and its node is the nested pair of its
    members' nodes.  The automata are read over one universe, as
    :func:`_over_one_universe` gives it.  ``split`` is passed with a
    single automaton and given over that automaton's universe, which is
    then the walk's.
    """
    members = [_leaves(x) for x in operands]
    autos = list({id(a): a for mine in members for a in mine}.values())
    (universe, views) = _over_one_universe(autos)
    # a block's key holds its class label in each automaton, None outside it
    blocks = [(reduce(or_, [sigma.mask for (sigma, _) in views.values()]), ())]
    for (sigma, masks) in views.values():
        classes = [*masks.items(), (None, ~sigma.mask)]
        blocks = [(x, key + (c,)) for (b, key) in blocks for (c, m) in classes if (x := b & m)]
    for m in split:
        blocks = [(x, key) for (b, key) in blocks for y in (m, ~m) if (x := b & y)]
    blocks.sort(key=lambda block: block[0] & -block[0])
    labels = {universe.label(b): b for (b, _) in blocks}
    sides = {}
    for (i, a) in enumerate(autos):
        on = [(label, key[i]) for (label, (_, key)) in zip(labels, blocks) if key[i] is not None]
        sides[id(a)] = (_label_rows(a, on), frozenset(dict(on)), a.marked.__contains__)

    def made(operand) -> tuple:
        # the members of a tuple that are automata are read in place, so a
        # pair of automata is made without a call per member
        if not isinstance(operand, tuple):
            return (sides[id(operand)], operand.initial)
        parts = [made(x) if isinstance(x, tuple) else (sides[id(x)], x.initial) for x in operand]
        (side, start) = parts[0]
        for (other, q) in parts[1:]:
            (side, start) = (_Product(side, other).side(), (start, q))
        return (side, start)

    alphabets = [
        views[id(mine[0])][0] if len(mine) == 1 else _merged([views[id(a)][0] for a in mine])
        for mine in members
    ]
    return labels, [(alphabet, *made(x)) for (alphabet, x) in zip(alphabets, operands)]


def _name(node) -> str:
    """The state name of an operand's node: ``⟨q1,q2⟩`` for a pair."""
    if node.__class__ is str:
        return node
    (x, y) = node
    return f"⟨{x if x.__class__ is str else _name(x)},{y if y.__class__ is str else _name(y)}⟩"


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


def _projection(a: Automaton, keep: int):
    """The subset construction of ``a`` with the events outside the mask
    ``keep`` erased.

    A class with an event outside ``keep`` moves silently; one with a kept
    event is visible through its kept events.  Returns ``(row, init,
    visible)``: ``row(subset)`` is the subset's row for :func:`_walk`,
    mapping the label of each visible class that a member enables to a
    one-tuple of the subset it reaches by hidden moves, then that class,
    then hidden moves (never the empty subset); ``init`` is the hidden
    closure of the initial state and ``visible[c]`` is the mask of the kept
    events of the visible class labelled ``c``.  Each state's closure and
    its own row are computed once.
    """
    visible = {}
    hidden = set()
    for c, m in a._masks.items():
        if m & keep:
            visible[c] = m & keep
        if m & ~keep:
            hidden.add(c)
    hidden_rows = {
        q: {c: dsts for c, dsts in a._succ[q].items() if c in hidden}
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
            for c, dsts in a._succ[p].items():
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


def natural_project(a: Automaton, keep: Iterable[str], *, projection=None) -> Automaton:
    """Erase events outside ``keep`` to silent moves, then determinize.

    Returns a deterministic automaton over ``keep`` whose generated and
    marked languages are the projections of the originals; a subset state
    is marked iff it contains a marked state.  ``projection``, when given,
    is :func:`_projection`'s result for ``a`` and ``keep``'s mask, which a
    caller that walks the same construction again passes to share it.
    """
    keep = frozenset(keep)
    kept = a._sigma.within(keep)
    if kept is None:
        raise ValueError(f"keep set contains unknown events: {sorted(keep - a.event_ids)}")
    row, init, visible = projection or _projection(a, kept)
    return _walked(
        row, init, _subset_name, a.marked.intersection, a._sigma.restricted(kept), visible
    )


# -- bisimulation ----------------------------------------------------------


class BisimResult(NamedTuple):
    relation: Optional[frozenset]  # the matched (state1, state2) pairs, or None

    def __bool__(self):
        return self.relation is not None


def _refine(block_of: dict, succ: dict) -> dict:
    """Coarsest stable refinement of an initial partition.

    ``block_of`` maps every state to its initial block and ``succ`` maps
    every state to ``event -> nonempty successor states`` (an event may
    stand for a class of events).  Blocks are split until stable on
    signatures: a state's block and the one flat set of its (event,
    target block) pairs, which, as every successor set is nonempty, tells
    the same states apart as the set of (event, set of target blocks)
    pairs.  The result maps each state to a block id, two states sharing
    one iff they are bisimilar under the initial partition.  Block ids are
    numbered in order of first appearance: callers only compare them.
    """
    while True:
        new_ids: dict = {}
        new_block_of = {}
        for q in block_of:
            sig = (
                block_of[q],
                frozenset([(ev, block_of[d]) for ev, dsts in succ[q].items() for d in dsts]),
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
