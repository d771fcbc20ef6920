"""Finite automata and the algebraic operations the toolkit builds on.

Automata are immutable values: states are opaque strings, the alphabet is a
set of :class:`Event` records, and the transition relation is stored once,
as a successor index keyed by event class (state -> class id -> set of
targets) that also represents nondeterminism.  A class is a maximal set of
events with one relation, controllability and owners; the models' alphabets
grow with the partition but their class counts do not, so the operations
below run over classes, or over the common refinement of several automata's
classes, and never over single events.  The sorted (source, event id,
target) triples are derived from the index on request, for the ``.aut``
writer.  All operations are pure functions returning new automata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AlphabetConflict, BoundTooLarge

__all__ = [
    "Event",
    "Automaton",
    "BisimRelation",
    "BisimResult",
    "accessible",
    "parallel_compose",
    "natural_project",
    "is_bisimilar",
    "marked_language_upto",
]

_NO_ROW: dict = {}
_NO_TARGETS: frozenset = frozenset()


@dataclass(frozen=True, order=True)
class Event:
    """An alphabet symbol with its controllability flag and owner tags.

    ``owners`` says which agents' local alphabets the event belongs to
    (a subset of {1, 2}); shared coordination events carry both tags.
    """

    id: str
    controllable: bool
    owners: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "owners", frozenset(self.owners))


def _merge_events(groups: Iterable[Iterable[Event]]) -> tuple:
    """Union alphabets by id, checking controllability agreement."""
    by_id: dict[str, Event] = {}
    for group in groups:
        for ev in group:
            old = by_id.get(ev.id)
            if old is None:
                by_id[ev.id] = ev
            else:
                if old.controllable != ev.controllable:
                    raise AlphabetConflict(
                        f"event {ev.id!r} is controllable in one alphabet "
                        "and uncontrollable in the other"
                    )
                if old.owners != ev.owners:
                    by_id[ev.id] = Event(ev.id, ev.controllable, old.owners | ev.owners)
    return tuple(sorted(by_id.values(), key=lambda e: e.id))


@dataclass(frozen=True)
class Automaton:
    """A finite transition system with marked states.

    ``_succ`` is the only stored transition relation: state -> class id ->
    nonempty frozenset of targets, equal sets shared as one object, rows
    listing their classes in id order.  ``_members[c]`` holds the sorted
    event ids of class ``c`` and ``_class_of`` maps each event id back to
    its class.  Classes are maximal (events share one exactly when they
    have the same relation, controllability and owners) and numbered in the
    order of their smallest members, so equal automata have equal indexes
    however they were built, and equality compares the index.  Instances
    are validated on construction and never mutated afterwards.
    """

    states: frozenset
    initial: str
    alphabet: tuple
    marked: frozenset
    _succ: dict = field(repr=False, hash=False)
    _members: tuple = field(repr=False, hash=False)
    _class_of: dict = field(repr=False, compare=False)
    _by_id: dict = field(repr=False, compare=False)
    _event_ids: frozenset = field(repr=False, compare=False)

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        initial: str,
        alphabet: Iterable[Event],
        transitions: Iterable[tuple],
        marked: Iterable[str],
    ) -> "Automaton":
        """Validate (source, event id, target) triples and index them by
        class, in one pass over the triples."""
        states = frozenset(states)
        marked = frozenset(marked)
        alphabet = _merge_events([alphabet])
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not in state set")
        if not marked <= states:
            raise ValueError("marked states must be a subset of the state set")
        relation = {e.id: set() for e in alphabet}
        for (src, ev, dst) in transitions:
            if src not in states or dst not in states:
                raise ValueError(f"transition ({src},{ev},{dst}) has unknown endpoint")
            pairs = relation.get(ev)
            if pairs is None:
                raise ValueError(f"transition event {ev!r} not in alphabet")
            pairs.add((src, dst))
        members = {ev: (ev,) for ev in relation}
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
            class_of, by_id, frozenset(by_id),
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

    def event(self, event_id: str) -> Event:
        return self._by_id[event_id]

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


def accessible(a: Automaton) -> Automaton:
    """Trim to the states reachable from the initial state."""
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for dsts in a._succ.get(q, _NO_ROW).values():
            for dst in dsts:
                if dst not in reach:
                    reach.add(dst)
                    frontier.append(dst)
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
    columns = [[a._class_of.get(ev) for ev in events] for a in autos]
    columns += [[ev in s for ev in events] for s in split]
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
    state -> label -> targets, for every state, rows in label order."""
    on: dict = {}
    for label in labels:
        c = a._class_of.get(label)
        if c is not None:
            on.setdefault(c, []).append(label)
    rows = {
        q: {label: ds for c, ds in a._succ.get(q, _NO_ROW).items() for label in on[c]}
        for q in a.states
    }
    # _succ rows list their classes in id order, so the rows above are in
    # label order already when the labels taken class by class are sorted
    by_class = [label for c in sorted(on) for label in on[c]]
    if by_class != sorted(by_class):
        rows = {q: dict(sorted(row.items())) for q, row in rows.items()}
    return rows


def product_state(q1: str, q2: str) -> str:
    return f"⟨{q1},{q2}⟩"


def parallel_compose(a1: Automaton, a2: Automaton) -> Automaton:
    """Synchronous composition: shared events synchronize, private events
    interleave.  The result is trimmed to its accessible part and product
    states are canonically named ⟨q1,q2⟩.  The product moves by label of
    the two operands' common refinement, so a product class is a union of
    pairs of operand classes."""
    alphabet = _merge_events([a1.alphabet, a2.alphabet])
    labels = _common_classes([e.id for e in alphabet], (a1, a2))
    rows1, rows2 = _label_rows(a1, labels), _label_rows(a2, labels)
    ids1, ids2 = a1.event_ids, a2.event_ids
    shared = {label for label in labels if label in ids1 and label in ids2}

    init = (a1.initial, a2.initial)
    names = {init: product_state(*init)}
    frontier = [init]
    relation: dict = {label: set() for label in labels}
    while frontier:
        (q1, q2) = frontier.pop()
        src = names[(q1, q2)]
        row2 = rows2[q2]
        moves = []
        for (ev, ds1) in rows1[q1].items():
            if ev in shared:
                for d1 in ds1:
                    for d2 in row2.get(ev, _NO_TARGETS):
                        moves.append((ev, d1, d2))
            else:
                for d1 in ds1:
                    moves.append((ev, d1, q2))
        for (ev, ds2) in row2.items():
            if ev not in shared:
                for d2 in ds2:
                    moves.append((ev, q1, d2))
        for (ev, d1, d2) in moves:
            dst = names.get((d1, d2))
            if dst is None:
                dst = names[(d1, d2)] = product_state(d1, d2)
                frontier.append((d1, d2))
            relation[ev].add((src, dst))
    marked = {
        name for ((q1, q2), name) in names.items() if q1 in a1.marked and q2 in a2.marked
    }
    return Automaton._from_classes(
        names.values(), names[init], alphabet, labels, relation, marked
    )


# -- natural projection ---------------------------------------------------


def _projection_nfa(a: Automaton, keep: frozenset):
    """The automaton with events outside ``keep`` erased to silent moves.

    A class with an event outside ``keep`` moves silently; one with a kept
    event is visible through its kept events.  Returns ``(trans, init,
    visible)``: ``trans[q][c]`` is the set of states reached from ``q`` by
    hidden moves, then class ``c``, then hidden moves (only classes with a
    nonempty target set appear), ``init`` is the hidden closure of the
    initial state and ``visible[c]`` lists the kept events of each visible
    class, sorted.  Each state's closure is computed once.
    """
    visible = {}
    hidden = set()
    for c, evs in enumerate(a._members):
        kept = [ev for ev in evs if ev in keep]
        if kept:
            visible[c] = kept
        if len(kept) < len(evs):
            hidden.add(c)
    hidden_succ = {
        q: {d for c, dsts in a._succ.get(q, _NO_ROW).items() if c in hidden for d in dsts}
        for q in a.states
    }
    closure = {}
    for q in a.states:
        seen = {q}
        work = [q]
        while work:
            for d in hidden_succ[work.pop()]:
                if d not in seen:
                    seen.add(d)
                    work.append(d)
        closure[q] = frozenset(seen)
    # a row first collects the distinct states a visible class reaches, then
    # takes the union of their closures once; a single state's row entry is
    # its closure set itself
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
    return trans, closure[a.initial], visible


def _determinize(trans: dict, roots: Iterable[frozenset]) -> dict:
    """Subset construction over ``trans`` from the given root subsets.

    Returns ``subset -> event -> successor subset`` for every subset
    reachable from a root; the empty subset is never produced.
    """
    dfa: dict = {}
    frontier = list(roots)
    while frontier:
        subset = frontier.pop()
        if subset in dfa:
            continue
        row: dict = {}
        for q in subset:
            for ev, dsts in trans[q].items():
                row[ev] = row[ev] | dsts if ev in row else dsts
        dfa[subset] = row
        frontier.extend(t for t in row.values() if t not in dfa)
    return dfa


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

    trans, init, visible = _projection_nfa(a, keep)
    dfa = _determinize(trans, [init])
    names = {subset: _subset_name(subset) for subset in dfa}
    relation: dict = {c: set() for c in visible}
    for subset, row in dfa.items():
        for c, dst in row.items():
            relation[c].add((names[subset], names[dst]))
    marked = {name for subset, name in names.items() if subset & a.marked}
    return Automaton._from_classes(
        names.values(), names[init], kept_events, visible, relation, marked
    )


# -- bisimulation ----------------------------------------------------------


@dataclass(frozen=True)
class BisimRelation:
    """A bisimulation between two automata: set of matched state pairs."""

    pairs: frozenset


@dataclass(frozen=True)
class BisimResult:
    bisimilar: bool
    relation: Optional[BisimRelation] = None
    counterexample: Optional[tuple] = None

    def __bool__(self):
        return self.bisimilar


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


def is_bisimilar(a1: Automaton, a2: Automaton) -> BisimResult:
    """Decide bisimilarity by partition refinement on the disjoint union.

    The initial partition separates marked from unmarked states, so a
    positive verdict also preserves marked languages.  Both automata move
    by label of the common refinement of their classes; events missing from
    one alphabet simply never fire on that side.  On success the witness
    relation (restricted to reachable state pairs) is returned; on failure
    a distinguishing state pair is.
    """
    u1 = accessible(a1)
    u2 = accessible(a2)
    labels = _common_classes(sorted(u1.event_ids | u2.event_ids), (u1, u2))
    succ: dict = {}
    block_of: dict = {}
    for tag, u in (("1:", u1), ("2:", u2)):
        for q, row in _label_rows(u, labels).items():
            succ[tag + q] = {ev: [tag + d for d in dsts] for ev, dsts in row.items()}
            block_of[tag + q] = q in u.marked

    block_of = _refine(block_of, succ)

    if block_of["1:" + u1.initial] != block_of["2:" + u2.initial]:
        return BisimResult(False, counterexample=(u1.initial, u2.initial))
    in_block: dict = {}
    for q2 in u2.states:
        in_block.setdefault(block_of["2:" + q2], []).append(q2)
    pairs = frozenset(
        (q1, q2) for q1 in u1.states for q2 in in_block.get(block_of["1:" + q1], ())
    )
    return BisimResult(True, relation=BisimRelation(pairs))


# -- bounded language enumeration ------------------------------------------

DEFAULT_NODE_BUDGET = 5_000_000


def marked_language_upto(
    a: Automaton, n: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list:
    """Brute-force enumeration of the marked language up to length ``n``.

    Returns the exact set of marked strings of length <= n as a list of
    event-id tuples, sorted by (length, events) for reproducibility.
    Raises :class:`BoundTooLarge` when more than ``max_nodes`` distinct
    strings would have to be explored.
    """
    if n < 0:
        raise ValueError("length bound must be >= 0")
    # encode events as single characters so set/dict operations stay cheap
    ids = sorted(a.event_ids)
    code = {ev: chr(33 + i) for i, ev in enumerate(ids)}
    decode = {c: ev for ev, c in code.items()}
    succ_c = {
        q: {code[ev]: ds for c, ds in row.items() for ev in a._members[c]}
        for q, row in a._succ.items()
    }

    out = []
    nodes = 1
    if a.deterministic:
        # each string reaches exactly one state: track it directly
        det: dict = {q: tuple(sorted((c, *ds) for c, ds in m.items())) for q, m in succ_c.items()}
        marked = a.marked
        level_d: dict = {"": a.initial}
        for length in range(n + 1):
            for s, q in level_d.items():
                if q in marked:
                    out.append(tuple(decode[c] for c in s))
            if length == n:
                break
            nxt_d: dict = {}
            empty: tuple = ()
            for s, q in level_d.items():
                for (c, dst) in det.get(q, empty):
                    nodes += 1
                    if nodes > max_nodes:
                        raise BoundTooLarge(f"enumeration exceeds node budget {max_nodes}")
                    nxt_d[s + c] = dst
            level_d = nxt_d
        out.sort(key=lambda t: (len(t), t))
        return out

    level: dict = {"": frozenset([a.initial])}
    for length in range(n + 1):
        for s, states in level.items():
            if states & a.marked:
                out.append(tuple(decode[c] for c in s))
        if length == n:
            break
        nxt: dict = {}
        for s, states in level.items():
            for q in states:
                for c, dsts in succ_c.get(q, {}).items():
                    key = s + c
                    bucket = nxt.get(key)
                    if bucket is None:
                        nodes += 1
                        if nodes > max_nodes:
                            raise BoundTooLarge(
                                f"enumeration exceeds node budget {max_nodes}"
                            )
                        bucket = nxt[key] = set()
                    bucket.update(dsts)
        level = {s: frozenset(states) for s, states in nxt.items()}
    out.sort(key=lambda t: (len(t), t))
    return out
