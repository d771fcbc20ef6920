"""Finite automata and the algebraic operations the toolkit builds on.

Automata are immutable values: states are opaque strings, the alphabet is a
set of :class:`Event` records, and transitions are stored in relation form
(source, event id, target) so nondeterminism can be represented.  All
operations are pure functions returning new automata.
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

    The transition relation is a set of (source, event id, target) triples;
    the deterministic case is exactly ``deterministic == True``.  Instances
    are validated on construction and never mutated afterwards.
    """

    states: frozenset
    initial: str
    alphabet: tuple
    transitions: tuple
    marked: frozenset
    _succ: dict = field(default_factory=dict, repr=False, compare=False)
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        initial: str,
        alphabet: Iterable[Event],
        transitions: Iterable[tuple],
        marked: Iterable[str],
    ) -> "Automaton":
        states = frozenset(states)
        marked = frozenset(marked)
        alphabet = _merge_events([alphabet])
        transitions = tuple(sorted(set(map(tuple, transitions))))
        a = cls(states, initial, alphabet, transitions, marked)
        a._validate()
        a._index()
        return a

    def _validate(self):
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in state set")
        if not self.marked <= self.states:
            raise ValueError("marked states must be a subset of the state set")
        ids = {e.id for e in self.alphabet}
        if len(ids) != len(self.alphabet):
            raise ValueError("duplicate event id in alphabet")
        for (src, ev, dst) in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition ({src},{ev},{dst}) has unknown endpoint")
            if ev not in ids:
                raise ValueError(f"transition event {ev!r} not in alphabet")

    def _index(self):
        succ: dict = {}
        for (src, ev, dst) in self.transitions:
            succ.setdefault(src, {}).setdefault(ev, set())
            succ[src][ev].add(dst)
        # one frozenset per distinct target set: most rows of a large alphabet
        # reach the same few targets, and every set is kept for the object's life
        shared: dict = {}
        for row in succ.values():
            for ev, targets in row.items():
                targets = frozenset(targets)
                row[ev] = shared.setdefault(targets, targets)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_by_id", {e.id: e for e in self.alphabet})
        object.__setattr__(self, "_event_ids", frozenset(self._by_id))

    # -- queries ---------------------------------------------------------

    @property
    def event_ids(self) -> frozenset:
        return self._event_ids

    def event(self, event_id: str) -> Event:
        return self._by_id[event_id]

    def enabled(self, state: str) -> tuple:
        """Event ids with at least one transition from ``state``, sorted."""
        return tuple(sorted(self._succ.get(state, {})))

    def step(self, state: str, event_id: str) -> frozenset:
        return self._succ.get(state, {}).get(event_id, frozenset())

    def step1(self, state: str, event_id: str) -> Optional[str]:
        """Deterministic step; None when undefined."""
        dsts = self.step(state, event_id)
        if len(dsts) > 1:
            raise ValueError(f"nondeterministic step at ({state!r}, {event_id!r})")
        return next(iter(dsts)) if dsts else None

    @property
    def deterministic(self) -> bool:
        for trans in self._succ.values():
            for dsts in trans.values():
                if len(dsts) > 1:
                    return False
        return True

    def accepts(self, string: Sequence[str]) -> bool:
        """Membership of ``string`` in the marked language."""
        current = {self.initial}
        for ev in string:
            current = {d for q in current for d in self.step(q, ev)}
            if not current:
                return False
        return bool(current & self.marked)

    def generates(self, string: Sequence[str]) -> bool:
        """Membership of ``string`` in the generated language."""
        current = {self.initial}
        for ev in string:
            current = {d for q in current for d in self.step(q, ev)}
            if not current:
                return False
        return True

    # -- simple rewrites --------------------------------------------------

    def renamed(self, mapping: Mapping[str, str]) -> "Automaton":
        ren = lambda q: mapping.get(q, q)
        return Automaton.build(
            {ren(q) for q in self.states},
            ren(self.initial),
            self.alphabet,
            [(ren(s), e, ren(t)) for (s, e, t) in self.transitions],
            {ren(q) for q in self.marked},
        )

    def rerooted(self, state: str) -> "Automaton":
        """The same automaton started from ``state`` (trimmed)."""
        return accessible(
            Automaton.build(self.states, state, self.alphabet, self.transitions, self.marked)
        )


def accessible(a: Automaton) -> Automaton:
    """Trim to the states reachable from the initial state."""
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for ev in a.enabled(q):
            for dst in a.step(q, ev):
                if dst not in reach:
                    reach.add(dst)
                    frontier.append(dst)
    if reach == a.states:
        return a
    return Automaton.build(
        reach,
        a.initial,
        a.alphabet,
        [t for t in a.transitions if t[0] in reach and t[2] in reach],
        a.marked & reach,
    )


def product_state(q1: str, q2: str) -> str:
    return f"⟨{q1},{q2}⟩"


def parallel_compose(a1: Automaton, a2: Automaton) -> Automaton:
    """Synchronous composition: shared events synchronize, private events
    interleave.  The result is trimmed to its accessible part and product
    states are canonically named ⟨q1,q2⟩."""
    alphabet = _merge_events([a1.alphabet, a2.alphabet])
    ids1, ids2 = a1.event_ids, a2.event_ids
    shared = ids1 & ids2

    init = (a1.initial, a2.initial)
    seen = {init}
    frontier = [init]
    transitions = []
    while frontier:
        (q1, q2) = frontier.pop()
        src = product_state(q1, q2)
        moves = []
        for ev in a1.enabled(q1):
            if ev in shared:
                for d1 in a1.step(q1, ev):
                    for d2 in a2.step(q2, ev):
                        moves.append((ev, d1, d2))
            else:
                for d1 in a1.step(q1, ev):
                    moves.append((ev, d1, q2))
        for ev in a2.enabled(q2):
            if ev not in shared:
                for d2 in a2.step(q2, ev):
                    moves.append((ev, q1, d2))
        for (ev, d1, d2) in moves:
            transitions.append((src, ev, product_state(d1, d2)))
            if (d1, d2) not in seen:
                seen.add((d1, d2))
                frontier.append((d1, d2))
    states = {product_state(q1, q2) for (q1, q2) in seen}
    marked = {
        product_state(q1, q2)
        for (q1, q2) in seen
        if q1 in a1.marked and q2 in a2.marked
    }
    return Automaton.build(states, product_state(*init), alphabet, transitions, marked)


# -- natural projection ---------------------------------------------------


def _projection_nfa(a: Automaton, keep: frozenset):
    """The automaton with events outside ``keep`` erased to silent moves.

    Returns ``(trans, init)``: ``trans[q][ev]`` is the set of states reached
    from ``q`` by hidden moves, then ``ev``, then hidden moves (only events
    with a nonempty target set appear), and ``init`` is the hidden closure
    of the initial state.  Each state's closure is computed once.
    """
    hidden_succ = {
        q: {d for ev, dsts in a._succ.get(q, {}).items() if ev not in keep for d in dsts}
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
    # rows share the closure sets; a union is built only where moves meet
    trans = {}
    for q in a.states:
        row: dict = {}
        for p in closure[q]:
            for ev, dsts in a._succ.get(p, {}).items():
                if ev in keep:
                    for d in dsts:
                        row[ev] = row[ev] | closure[d] if ev in row else closure[d]
        trans[q] = row
    return trans, closure[a.initial]


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

    trans, init = _projection_nfa(a, keep)
    dfa = _determinize(trans, [init])
    names = {subset: _subset_name(subset) for subset in dfa}
    transitions = [
        (names[subset], ev, names[dst])
        for subset, row in dfa.items()
        for ev, dst in row.items()
    ]
    marked = {name for subset, name in names.items() if subset & a.marked}
    return Automaton.build(set(names.values()), names[init], kept_events, transitions, marked)


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
    every state to ``event -> successor states``.  Blocks are split on
    (event, target-block) signatures until stable; the result maps each
    state to a block id, two states sharing one iff they are bisimilar
    under the initial partition.
    """
    # block ids are renumbered by sorted signature for deterministic output
    while True:
        sigs = {}
        for q in block_of:
            sig = (
                block_of[q],
                tuple(
                    sorted(
                        (ev, tuple(sorted({block_of[d] for d in dsts})))
                        for ev, dsts in succ[q].items()
                    )
                ),
            )
            sigs[q] = sig
        new_ids = {sig: i for i, sig in enumerate(sorted(set(sigs.values()), key=repr))}
        new_block_of = {q: new_ids[sigs[q]] for q in block_of}
        if len(new_ids) == len(set(block_of.values())):
            return new_block_of
        block_of = new_block_of


def is_bisimilar(a1: Automaton, a2: Automaton) -> BisimResult:
    """Decide bisimilarity by partition refinement on the disjoint union.

    The initial partition separates marked from unmarked states, so a
    positive verdict also preserves marked languages.  Events missing from
    one alphabet simply never fire on that side.  On success the witness
    relation (restricted to reachable state pairs) is returned; on failure
    a distinguishing state pair is.
    """
    u1 = accessible(a1)
    u2 = accessible(a2)
    tagged = [("1:" + q) for q in sorted(u1.states)] + [("2:" + q) for q in sorted(u2.states)]
    succ: dict = {q: {} for q in tagged}
    for (src, ev, dst) in u1.transitions:
        succ["1:" + src].setdefault(ev, set()).add("1:" + dst)
    for (src, ev, dst) in u2.transitions:
        succ["2:" + src].setdefault(ev, set()).add("2:" + dst)
    marked = {"1:" + q for q in u1.marked} | {"2:" + q for q in u2.marked}

    block_of = _refine({q: (q in marked) for q in tagged}, succ)

    if block_of["1:" + u1.initial] != block_of["2:" + u2.initial]:
        return BisimResult(False, counterexample=(u1.initial, u2.initial))
    pairs = frozenset(
        (q1, q2)
        for q1 in sorted(u1.states)
        for q2 in sorted(u2.states)
        if block_of["1:" + q1] == block_of["2:" + q2]
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
    succ_c: dict = {}
    for (src, ev, dst) in a.transitions:
        succ_c.setdefault(src, {}).setdefault(code[ev], []).append(dst)

    out = []
    nodes = 1
    if a.deterministic:
        # each string reaches exactly one state: track it directly
        det: dict = {q: tuple(sorted((c, ds[0]) for c, ds in m.items())) for q, m in succ_c.items()}
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
