"""Finite automata and the algebraic operations the toolkit builds on.

Automata are immutable values: states are opaque strings, the alphabet is a
set of :class:`Event` records, and the transition relation is stored once,
as a successor index (state -> event id -> set of targets) that also
represents nondeterminism.  The sorted (source, event id, target) triples
are derived from it on request, for the ``.aut`` writer.  All operations
are pure functions returning new automata.
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

    ``_succ`` is the only stored transition relation: state -> event id ->
    nonempty frozenset of targets, equal sets shared as one object, so the
    deterministic case is exactly ``deterministic == True``.  Equality
    compares it too.  Instances are validated on construction and never
    mutated afterwards.
    """

    states: frozenset
    initial: str
    alphabet: tuple
    marked: frozenset
    _succ: dict = field(repr=False, hash=False)
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
        """Validate and index (source, event id, target) triples, in one pass."""
        states = frozenset(states)
        marked = frozenset(marked)
        alphabet = _merge_events([alphabet])
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not in state set")
        if not marked <= states:
            raise ValueError("marked states must be a subset of the state set")
        by_id = {e.id: e for e in alphabet}
        succ: dict = {}
        for (src, ev, dst) in transitions:
            if src not in states or dst not in states:
                raise ValueError(f"transition ({src},{ev},{dst}) has unknown endpoint")
            if ev not in by_id:
                raise ValueError(f"transition event {ev!r} not in alphabet")
            succ.setdefault(src, {}).setdefault(ev, set()).add(dst)
        # one frozenset per distinct target set: most rows of a large alphabet
        # reach the same few targets, and every set is kept for the object's life
        shared: dict = {}
        for row in succ.values():
            for ev, targets in row.items():
                targets = frozenset(targets)
                row[ev] = shared.setdefault(targets, targets)
        return cls(states, initial, alphabet, marked, succ, by_id, frozenset(by_id))

    # -- queries ---------------------------------------------------------

    @property
    def transitions(self) -> tuple:
        """The relation as sorted (source, event id, target) triples."""
        return tuple(sorted(self._triples()))

    def _triples(self):
        return ((q, ev, d) for q, row in self._succ.items() for ev, ds in row.items() for d in ds)

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

    def renamed(self, mapping: Mapping[str, str]) -> "Automaton":
        ren = lambda q: mapping.get(q, q)
        return Automaton.build(
            {ren(q) for q in self.states},
            ren(self.initial),
            self.alphabet,
            [(ren(s), e, ren(t)) for (s, e, t) in self._triples()],
            {ren(q) for q in self.marked},
        )

    def rerooted(self, state: str) -> "Automaton":
        """The same automaton started from ``state`` (trimmed)."""
        return accessible(
            Automaton.build(self.states, state, self.alphabet, self._triples(), self.marked)
        )


def accessible(a: Automaton) -> Automaton:
    """Trim to the states reachable from the initial state."""
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for dsts in a._succ.get(q, {}).values():
            for dst in dsts:
                if dst not in reach:
                    reach.add(dst)
                    frontier.append(dst)
    if reach == a.states:
        return a
    return Automaton.build(
        reach,
        a.initial,
        a.alphabet,
        [t for t in a._triples() if t[0] in reach],
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
    succ: dict = {}
    block_of: dict = {}
    for tag, u in (("1:", u1), ("2:", u2)):
        for q in u.states:
            row = u._succ.get(q, {})
            succ[tag + q] = {ev: [tag + d for d in dsts] for ev, dsts in row.items()}
            block_of[tag + q] = q in u.marked

    block_of = _refine(block_of, succ)

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
    succ_c = {q: {code[ev]: ds for ev, ds in row.items()} for q, row in a._succ.items()}

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
