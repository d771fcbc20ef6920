import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from polaris.automata import (
    Automaton,
    BisimResult,
    Event,
    _merge_events,
    accessible,
)
from polaris import kernels, models, sim
from polaris.kernels import (
    EXIT_R_MINUS,
    EXIT_R_PLUS,
    EXIT_TH_MINUS,
    EXIT_TH_PLUS,
    INSIDE,
    eval_cell,
)
from polaris.errors import (
    HorizonViolation,
    InvalidToken,
    OutOfHorizon,
    PolarisError,
    SupervisorBlocked,
)
from polaris.exchange import TOKEN_RE, _safe_names
from polaris.models import ALARM_EVENTS, RELEASE_OF_EPISODE, STOP_OF_EPISODE
from polaris.polar import _EXIT_FACET, _FACETS, TWO_PI, RegionIndex, _facets_of
from polaris.scenario import schedule_at
from polaris.supervision import ControllabilityReport, DecomposabilityReport


SRC = Path(__file__).resolve().parent.parent / "src"


def run_polaris(*args, **env):
    """``python -m polaris`` in a subprocess that imports this checkout's
    ``src``, installed or not; ``env`` adds environment variables."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "polaris", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **env),
    )


# -- per-event readers -------------------------------------------------------
#
# An automaton read one event at a time, through its public fields and
# ``step`` only, so that tests read automata independently of the class
# index.


def transitions(a: Automaton) -> tuple:
    """The relation as sorted (source, event id, target) triples."""
    return tuple(
        sorted((q, e.id, d) for q in a.states for e in a.alphabet for d in a.step(q, e.id))
    )


def enabled(a: Automaton, q: str) -> tuple:
    """Event ids with at least one transition from ``q``, sorted."""
    return tuple(sorted(e.id for e in a.alphabet if a.step(q, e.id)))


def accepts(a: Automaton, string) -> bool:
    """Membership of ``string`` in the marked language."""
    current = {a.initial}
    for ev in string:
        current = {d for q in current for d in a.step(q, ev)}
    return not current.isdisjoint(a.marked)


def renamed(a: Automaton, mapping) -> Automaton:
    """``a`` with each state ``q`` named ``mapping.get(q, q)``."""

    def name(q):
        return mapping.get(q, q)

    return Automaton.build(
        map(name, a.states), name(a.initial), a.alphabet,
        [(name(q), ev, name(d)) for (q, ev, d) in transitions(a)], map(name, a.marked),
    )


def make_auto(trans, initial="q0", marked=None, controllable=(), states=None, events=()):
    """Compact automaton builder for tests.

    ``trans`` is a list of (src, event, dst); events default to
    uncontrollable unless listed in ``controllable``.  ``events`` adds
    alphabet symbols with no transitions (a spec disabling them).
    """
    states = set(states or [])
    evs = {}
    for ev in events:
        evs[ev] = Event(ev, ev in controllable)
    for (src, ev, dst) in trans:
        states.update((src, dst))
        evs.setdefault(ev, Event(ev, ev in controllable))
    states.add(initial)
    if marked is None:
        marked = set(states)
    return Automaton.build(states, initial, evs.values(), trans, marked)


def team_plants():
    """Two plants that share ``go`` and each add a private command
    (``a`` for the first, ``b`` for the second) after it."""
    ap1 = make_auto(
        [("m0", "go", "m1"), ("m1", "go", "m1"), ("m1", "a", "m1")],
        initial="m0", controllable={"go", "a", "b"},
    )
    ap2 = make_auto(
        [("n0", "go", "n1"), ("n1", "go", "n1"), ("n1", "b", "n1")],
        initial="n0", controllable={"go", "a", "b"},
    )
    return ap1, ap2


def _edges(rows) -> list:
    """Expand ``(source, event group, target)`` rows, a group being a tuple
    of event ids or one plain id, into ``(source, event id, target)``
    triples, in row order."""
    return [
        (src, ev, dst)
        for (src, group, dst) in rows
        for ev in ((group,) if isinstance(group, str) else group)
    ]


def dumps_by_triples(a: Automaton) -> str:
    """The ``.aut`` writer that renames through a new automaton and prints
    its sorted triples: the oracle of ``exchange.dumps``."""
    mapping = _safe_names(a.states)
    if mapping:
        a = renamed(a, mapping)
    for ev in a.alphabet:
        if not TOKEN_RE.match(ev.id):
            raise InvalidToken(f"event id {ev.id!r} is not a valid token")
    lines = []
    lines.append("states: " + " ".join(sorted(a.states)))
    lines.append("initial: " + a.initial)
    lines.append("marked: " + " ".join(sorted(a.marked)))
    ctrl = sorted(e.id for e in a.alphabet if e.controllable)
    unctrl = sorted(e.id for e in a.alphabet if not e.controllable)
    lines.append("controllable: " + " ".join(ctrl))
    lines.append("uncontrollable: " + " ".join(unctrl))
    owned = [e for e in a.alphabet if e.owners]
    if owned:
        parts = [
            f"{e.id}=" + ",".join(str(t) for t in sorted(e.owners))
            for e in sorted(owned, key=lambda e: e.id)
        ]
        lines.append("owners: " + " ".join(parts))
    for (src, ev, dst) in transitions(a):
        lines.append(f"trans: {src} {ev} {dst}")
    return "\n".join(lines) + "\n"


def random_automaton(rng: random.Random, **kwargs) -> Automaton:
    return Automaton.build(*random_automaton_parts(rng, **kwargs))


def random_automaton_parts(
    rng: random.Random,
    max_states=5,
    max_events=4,
    all_marked=False,
    deterministic=False,
    density=0.5,
    min_events=1,
):
    """The arguments of ``Automaton.build`` for one random automaton:
    (states, initial, events, transition triples, marked)."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    m = rng.randint(min_events, max_events)
    # controllability is a function of the letter so random automata can
    # always be composed without alphabet conflicts
    events = [Event(chr(ord("a") + i), i % 2 == 0) for i in range(m)]
    trans = []
    for src in states:
        for ev in events:
            if deterministic:
                if rng.random() < density:
                    trans.append((src, ev.id, rng.choice(states)))
            else:
                for dst in states:
                    if rng.random() < density / n:
                        trans.append((src, ev.id, dst))
    if all_marked:
        marked = set(states)
    else:
        marked = {s for s in states if rng.random() < 0.5}
    return states, states[0], events, trans, marked


# twins that differ from their event in owners only, so never share its class
_TWIN_OWNERS = {"B": {1}, "c2": {2}}


def random_automaton_with_twins(rng: random.Random, **kwargs) -> Automaton:
    """A random automaton in which some events have twins.

    A twin copies its event's controllability and transitions, so most
    share its class; some twins lose one transition or differ in owners.
    Twins are named by upper-casing the event (sorting before it) or by
    appending ``2`` (sorting after it), so either member can be the
    smallest of a class.
    """
    states, initial, events, trans, marked = random_automaton_parts(rng, **kwargs)
    for ev in list(events):
        if rng.random() < 0.5:
            continue
        twin = ev.id.upper() if rng.random() < 0.5 else ev.id + "2"
        events.append(Event(twin, ev.controllable, _TWIN_OWNERS.get(twin, ())))
        copied = [(src, twin, dst) for (src, e, dst) in trans if e == ev.id]
        if copied and rng.random() < 0.2:
            copied.pop(rng.randrange(len(copied)))
        trans.extend(copied)
    return Automaton.build(states, initial, events, trans, marked)


# the generic case: 40 events, E1 and E2 the first and last 27 of them
GENERIC_EVENTS = tuple(Event(f"e{k}", k % 2 == 0) for k in range(40))
GENERIC_E1 = frozenset(e.id for e in GENERIC_EVENTS[:27])
GENERIC_E2 = frozenset(e.id for e in GENERIC_EVENTS[-27:])


def generic_automaton(rng: random.Random, n: int) -> Automaton:
    """A random deterministic automaton on the generic alphabet.

    States ``q0`` to ``q{n-1}``, ``q0`` initial.  Each state takes 1 to 6
    distinct events of ``GENERIC_EVENTS`` (``e{k}``, controllable iff k is
    even), each to a uniform random target, and 30% of the states (rounded)
    are marked.  Unlike the formation models, almost every event is its
    own class, so the algebra's per-class work is per-event work here.
    """
    states = [f"q{i}" for i in range(n)]
    ids = [e.id for e in GENERIC_EVENTS]
    trans = [
        (q, ev, rng.choice(states)) for q in states for ev in rng.sample(ids, rng.randint(1, 6))
    ]
    marked = rng.sample(states, round(0.3 * n))
    return Automaton.build(states, states[0], GENERIC_EVENTS, trans, marked)


def unfolded(rng: random.Random, a: Automaton) -> Automaton:
    """``a`` with copies of some states, a random share of the transitions
    into each copied state redirected to its copy.  A copy has its
    original's transitions and marking, so the result generates and marks
    the same languages; it is deterministic when ``a`` is."""
    copies = {q: q + "'" for q in a.states if rng.random() < 0.5}
    trans = [
        (src, ev, copies[dst] if dst in copies and rng.random() < 0.5 else dst)
        for (src, ev, dst) in transitions(a)
    ]
    trans += [(copies[src], ev, dst) for (src, ev, dst) in trans if src in copies]
    return Automaton.build(
        set(a.states) | set(copies.values()), a.initial, a.alphabet, trans,
        set(a.marked) | {copies[q] for q in a.marked if q in copies},
    )


def rerooted(a: Automaton, q: str) -> Automaton:
    """The same automaton started from ``q``, trimmed."""
    return accessible(Automaton.build(a.states, q, a.alphabet, transitions(a), a.marked))


def brute_language(a: Automaton, n: int, marked_only=True):
    """Independent recursive enumeration of (marked) strings up to length n."""
    out = set()

    def walk(states, prefix):
        if (not marked_only) or (states & a.marked):
            out.add(prefix)
        if len(prefix) == n:
            return
        for ev in sorted({e for q in states for e in enabled(a, q)}):
            nxt = frozenset(d for q in states for d in a.step(q, ev))
            if nxt:
                walk(nxt, prefix + (ev,))

    walk(frozenset([a.initial]), ())
    return out


# -- bounded language enumeration ------------------------------------------


class BoundTooLarge(PolarisError):
    """A bounded language enumeration exceeded its node budget."""


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


def project_by_merging(a: Automaton, keep):
    """Alternative projection: merge states related by hidden moves.

    Merging is an undirected quotient, which is only language-correct for
    automata whose hidden moves are confluent; it is an independent
    cross-check of ``natural_project`` on such models.
    """
    keep = frozenset(keep)
    hidden = a.event_ids - keep
    parent = {q: q for q in a.states}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            # keep the lexicographically smaller root for determinism
            if rq < rp:
                rp, rq = rq, rp
            parent[rq] = rp

    for (src, ev, dst) in transitions(a):
        if ev in hidden:
            union(src, dst)
    kept_events = tuple(e for e in a.alphabet if e.id in keep)
    edges = {
        (find(src), ev, find(dst))
        for (src, ev, dst) in transitions(a)
        if ev in keep
    }
    states = {find(q) for q in a.states}
    marked = {find(q) for q in a.marked}
    return accessible(
        Automaton.build(states, find(a.initial), kept_events, edges, marked)
    )


def dc3_pair_ok(a: Automaton, q, s: tuple, t: tuple, e1, e2) -> bool:
    """Every node of the synchronized product of p1(s) and p2(t) is
    generated from q.

    Walks the product of prefix positions with the automaton state; shared
    events advance both projections, private events one.  Fails as soon as
    one interleaved prefix is undefined.
    """
    shared = frozenset(e1) & frozenset(e2)
    p1 = tuple(ev for ev in s if ev in e1)
    p2 = tuple(ev for ev in t if ev in e2)
    seen = {(q, 0, 0)}
    stack = [(q, 0, 0)]
    while stack:
        state, i, j = stack.pop()
        moves = []
        if i < len(p1):
            if p1[i] in shared:
                if j < len(p2) and p2[j] == p1[i]:
                    moves.append((p1[i], i + 1, j + 1))
            else:
                moves.append((p1[i], i + 1, j))
        if j < len(p2) and p2[j] not in shared:
            moves.append((p2[j], i, j + 1))
        for (ev, ni, nj) in moves:
            nxt = a.step1(state, ev)
            if nxt is None:
                return False
            if (nxt, ni, nj) not in seen:
                seen.add((nxt, ni, nj))
                stack.append((nxt, ni, nj))
    return True


def generated_strings(a: Automaton, q, n: int):
    """Every string of length <= n generated from q, lexicographic."""
    out = []
    stack = [(q, ())]
    while stack:
        state, prefix = stack.pop()
        out.append(prefix)
        if len(prefix) < n:
            for ev in reversed(enabled(a, state)):
                stack.append((a.step1(state, ev), prefix + (ev,)))
    return out


def first_shared(s: tuple, shared):
    return next((ev for ev in s if ev in shared), None)


def dc3_by_sampling(a: Automaton, e1, e2, n: int):
    """First (q, s, t) failing dc3 among strings of length <= n, or None.

    The bounded reference for the exact dc3 search of a deterministic
    automaton: at every reachable q, every pair s, t of generated strings
    with the same first shared event (s = t included) is checked with
    ``dc3_pair_ok``.
    """
    a = accessible(a)
    shared = frozenset(e1) & frozenset(e2)
    for q in sorted(a.states):
        groups: dict = {}
        for s in generated_strings(a, q, n):
            first = first_shared(s, shared)
            if first is not None:
                groups.setdefault(first, []).append(s)
        for (_, group) in sorted(groups.items()):
            for s in group:
                for t in group:
                    if not dc3_pair_ok(a, q, s, t, e1, e2):
                        return (q, s, t)
    return None


def check_bisim_relation(a1, a2, pairs):
    """Transfer-condition validation of a claimed bisimulation, given as
    its set of state pairs."""
    if (a1.initial, a2.initial) not in pairs:
        return False
    events = sorted(a1.event_ids | a2.event_ids)
    for (q1, q2) in pairs:
        if (q1 in a1.marked) != (q2 in a2.marked):
            return False
        for ev in events:
            for d1 in a1.step(q1, ev):
                if not any((d1, d2) in pairs for d2 in a2.step(q2, ev)):
                    return False
            for d2 in a2.step(q2, ev):
                if not any((d1, d2) in pairs for d1 in a1.step(q1, ev)):
                    return False
    return True


# -- per-event oracles -------------------------------------------------------
#
# The algorithms as they ran over single events before the automaton index
# was keyed by event class.  They read automata only through the per-event
# readers above, ``step`` and ``step1``, and build results with
# ``Automaton.build``, so they are independent of the class index and of
# every algorithm that runs over classes.  They are
# independent of ``automata._walk`` too: each keeps its own worklist, and
# the subset construction (``_per_event_determinize``) and the dc3 search
# (``_per_event_dc3_witness``) are the ones ``src`` ran before its searches
# became walks, called here with per-event moves.


def _row(a: Automaton, q):
    """``event -> targets`` of every event enabled at ``q``, sorted."""
    return {ev: a.step(q, ev) for ev in enabled(a, q)}


def per_event_accessible(a: Automaton) -> Automaton:
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for dsts in _row(a, q).values():
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
        [t for t in transitions(a) if t[0] in reach],
        a.marked & reach,
    )


def product_state(q1: str, q2: str) -> str:
    """The name of a product state, as ``parallel_compose`` names it."""
    return f"⟨{q1},{q2}⟩"


def per_event_compose(a1: Automaton, a2: Automaton) -> Automaton:
    alphabet = _merge_events([a1.alphabet, a2.alphabet])
    ids1, ids2 = a1.event_ids, a2.event_ids
    shared = ids1 & ids2

    init = (a1.initial, a2.initial)
    seen = {init}
    frontier = [init]
    edges = []
    while frontier:
        (q1, q2) = frontier.pop()
        src = product_state(q1, q2)
        moves = []
        for ev in enabled(a1, q1):
            if ev in shared:
                for d1 in a1.step(q1, ev):
                    for d2 in a2.step(q2, ev):
                        moves.append((ev, d1, d2))
            else:
                for d1 in a1.step(q1, ev):
                    moves.append((ev, d1, q2))
        for ev in enabled(a2, q2):
            if ev not in shared:
                for d2 in a2.step(q2, ev):
                    moves.append((ev, q1, d2))
        for (ev, d1, d2) in moves:
            edges.append((src, ev, product_state(d1, d2)))
            if (d1, d2) not in seen:
                seen.add((d1, d2))
                frontier.append((d1, d2))
    states = {product_state(q1, q2) for (q1, q2) in seen}
    marked = {
        product_state(q1, q2)
        for (q1, q2) in seen
        if q1 in a1.marked and q2 in a2.marked
    }
    return Automaton.build(states, product_state(*init), alphabet, edges, marked)


def _per_event_projection_nfa(a: Automaton, keep: frozenset):
    hidden_succ = {
        q: {d for ev, dsts in _row(a, q).items() if ev not in keep for d in dsts}
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
    trans = {}
    for q in a.states:
        row: dict = {}
        for p in closure[q]:
            for ev, dsts in _row(a, p).items():
                if ev in keep:
                    for d in dsts:
                        row[ev] = row[ev] | closure[d] if ev in row else closure[d]
        trans[q] = row
    return trans, closure[a.initial]


def _per_event_determinize(trans: dict, roots) -> dict:
    """Subset construction over ``trans`` from the given root subsets:
    ``subset -> event -> successor subset`` for every reachable subset."""
    dfa: dict = {}
    frontier = list(roots)
    while frontier:
        subset = frontier.pop()
        if subset in dfa:
            continue
        parts: dict = {}
        for q in subset:
            for ev, dsts in trans[q].items():
                parts.setdefault(ev, []).append(dsts)
        row = {ev: ds[0] if len(ds) == 1 else frozenset().union(*ds) for ev, ds in parts.items()}
        dfa[subset] = row
        frontier.extend(t for t in row.values() if t not in dfa)
    return dfa


def per_event_project(a: Automaton, keep) -> Automaton:
    keep = frozenset(keep)
    kept_events = tuple(e for e in a.alphabet if e.id in keep)
    trans, init = _per_event_projection_nfa(a, keep)
    dfa = _per_event_determinize(trans, [init])
    names = {subset: "{" + ",".join(sorted(subset)) + "}" for subset in dfa}
    edges = [
        (names[subset], ev, names[dst])
        for subset, row in dfa.items()
        for ev, dst in row.items()
    ]
    marked = {name for subset, name in names.items() if subset & a.marked}
    return Automaton.build(set(names.values()), names[init], kept_events, edges, marked)


def _per_event_refine(block_of: dict, succ: dict) -> dict:
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


def per_event_bisim(a1: Automaton, a2: Automaton) -> BisimResult:
    u1 = per_event_accessible(a1)
    u2 = per_event_accessible(a2)
    succ: dict = {}
    block_of: dict = {}
    for tag, u in (("1:", u1), ("2:", u2)):
        for q in u.states:
            row = _row(u, q)
            succ[tag + q] = {ev: [tag + d for d in dsts] for ev, dsts in row.items()}
            block_of[tag + q] = q in u.marked

    block_of = _per_event_refine(block_of, succ)

    if block_of["1:" + u1.initial] != block_of["2:" + u2.initial]:
        return BisimResult(None)
    pairs = frozenset(
        (q1, q2)
        for q1 in sorted(u1.states)
        for q2 in sorted(u2.states)
        if block_of["1:" + q1] == block_of["2:" + q2]
    )
    return BisimResult(pairs)


def per_event_nonblocking(a: Automaton) -> bool:
    """Every reachable state reaches a marked one, over single events."""
    reach = per_event_accessible(a)
    can_mark = set(reach.marked)
    grew = True
    while grew:
        before = len(can_mark)
        can_mark |= {src for (src, _, dst) in transitions(reach) if dst in can_mark}
        grew = len(can_mark) > before
    return can_mark == reach.states


def per_event_controllability(spec: Automaton, plant: Automaton, e_uc) -> ControllabilityReport:
    """Breadth-first over (spec subset, plant state): a node holds every
    spec state that its string reaches, so a nondeterministic spec enables
    what some state of the subset enables."""
    e_uc = frozenset(e_uc)
    start = (frozenset([spec.initial]), plant.initial)
    parents: dict = {start: None}
    frontier = [start]
    while frontier:
        pair = frontier.pop(0)
        (qs, qp) = pair
        spec_enabled = {ev for q in qs for ev in enabled(spec, q)}
        for ev in enabled(plant, qp):
            if ev in e_uc and ev not in spec_enabled:
                string = []
                node = pair
                while parents[node] is not None:
                    node, via = parents[node]
                    string.append(via)
                string.reverse()
                return ControllabilityReport(tuple(string), ev)
            if ev not in spec_enabled:
                continue
            ds = frozenset(d for q in qs for d in spec.step(q, ev))
            for dp in sorted(plant.step(qp, ev)):
                nxt = (ds, dp)
                if nxt not in parents:
                    parents[nxt] = (pair, ev)
                    frontier.append(nxt)
    return ControllabilityReport()


def _per_event_dc4_witness(a: Automaton, keep: frozenset):
    trans, _ = _per_event_projection_nfa(a, keep)
    dfa = _per_event_determinize(trans, [frozenset([q]) for q in a.states])
    block = _per_event_refine(
        dict.fromkeys(dfa, 0),
        {subset: {ev: (dst,) for ev, dst in row.items()} for subset, row in dfa.items()},
    )
    for q in sorted(a.states):
        for ev, targets in sorted(trans[q].items()):
            for t1, t2 in combinations(sorted(targets), 2):
                if block[frozenset([t1])] != block[frozenset([t2])]:
                    return (q, ev, t1, t2)
    return None


def _per_event_dc3_witness(moves: dict, e1: frozenset, e2: frozenset):
    """First (q, s, t) whose product of p1(s) and p2(t) leaves the automaton,
    by breadth-first search over (state after s, state after t, state after
    their interleaving, first shared event seen) from every (q, q, q,
    unseen); see ``supervision._dc3_witness``."""
    shared = e1 & e2
    # shared events enabled somewhere ahead of each state on a private path
    ahead = {}
    for q in moves:
        seen, stack, found = {q}, [q], set()
        while stack:
            for (ev, dst) in moves[stack.pop()].items():
                if ev in shared:
                    found.add(ev)
                elif dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        ahead[q] = found

    def counts(qs, qt, seen_shared):
        return seen_shared or not ahead[qs].isdisjoint(ahead[qt])

    def to_shared(q, ev):
        """Shortest private path from q to ev, ev included."""
        paths = {q: ()}
        queue = [q]
        for p in queue:
            if ev in moves[p]:
                return paths[p] + (ev,)
            for (x, dst) in moves[p].items():
                if x not in shared and dst not in paths:
                    paths[dst] = paths[p] + (x,)
                    queue.append(dst)

    parent = {}
    queue = []
    for q in sorted(moves):
        if counts(q, q, False):
            parent[(q, q, q, False)] = None
            queue.append((q, q, q, False))
    for node in queue:
        (qs, qt, qi, seen_shared) = node
        after_i = moves[qi]
        # (event of s, event of t, next s, next t, next interleaving, flag)
        steps = []
        for (ev, ds) in moves[qs].items():
            if ev in shared:
                dt = moves[qt].get(ev)
                if dt is not None:
                    steps.append((ev, ev, ds, dt, after_i.get(ev), True))
            else:
                di = after_i.get(ev) if ev in e1 else qi
                steps.append((ev, None, ds, qt, di, seen_shared))
        for (ev, dt) in moves[qt].items():
            if ev not in shared:
                di = after_i.get(ev) if ev in e2 else qi
                steps.append((None, ev, qs, dt, di, seen_shared))
        for (x, y, ds, dt, di, flag) in steps:
            if not counts(ds, dt, flag):
                continue
            if di is not None:
                nxt = (ds, dt, di, flag)
                if nxt not in parent:
                    parent[nxt] = (node, x, y)
                    queue.append(nxt)
                continue
            (s, t) = ([x], [y])
            while parent[node] is not None:
                (node, x, y) = parent[node]
                s.append(x)
                t.append(y)
            s = tuple(ev for ev in reversed(s) if ev is not None)
            t = tuple(ev for ev in reversed(t) if ev is not None)
            if not flag:
                first = min(ahead[ds] & ahead[dt])
                (s, t) = (s + to_shared(ds, first), t + to_shared(dt, first))
            return (node[0], s, t)
    return None


def per_event_decomposability(a: Automaton, e1, e2) -> DecomposabilityReport:
    """The full report, projections included, from the per-event oracles."""
    e1, e2 = frozenset(e1), frozenset(e2)
    a = per_event_accessible(a)
    p1, p2 = per_event_project(a, e1), per_event_project(a, e2)
    bisim = per_event_bisim(a, per_event_compose(p1, p2))

    priv1 = e1 - e2
    priv2 = e2 - e1

    moves = {q: {ev: a.step1(q, ev) for ev in enabled(a, q)} for q in a.states}
    block = _per_event_refine(
        {q: q in a.marked for q in a.states},
        {q: {ev: (dst,) for (ev, dst) in row.items()} for (q, row) in moves.items()},
    )
    dc1_wit = dc2_wit = None
    for q in sorted(a.states):
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

    return DecomposabilityReport(
        bisim=bisim,
        dc1_witness=dc1_wit,
        dc2_witness=dc2_wit,
        dc3_witness=_per_event_dc3_witness(moves, e1, e2),
        dc4_witness=_per_event_dc4_witness(a, e1) or _per_event_dc4_witness(a, e2),
        local1=p1,
        local2=p2,
    )


# A crossing-path mission with an alarm, stop and release episode and a
# formation switch at t = 40 s.
CROSSING_CFG = """\
partition.r_max = 50
partition.n_r = 21
partition.n_theta = 9
sim.dt = 0.02
sim.t_end = 45
sim.u_max = 5
sim.speed = 2
avoid.alarm_radius = 8
avoid.release_radius = 12
avoid.front_half_angle_deg = 60
leader.velocity = 0:1.211,0.436 20:0.922,0.330
follower1.initial_position = -15.925,17.239
follower1.offsets = 0:14.855,1.921 40:31.257,17.497
follower2.initial_position = 13.996,-13.427
follower2.offsets = 0:-2.677,21.653 40:-5.111,8.216
"""


def scan_command_choice(models, k: int, states) -> str:
    """Uncached command choice of agent ``k``, the simulator's reference.

    ``states`` are the six supervisor states: agent 1's plant, formation
    and local supervisor, then agent 2's.  Returns the first actuation
    command enabled in every automaton whose alphabet contains it, in the
    order hold, anticlockwise turn, inward push, then the rest sorted; None
    when no command is enabled but another controllable event is.
    """
    machines = [
        getattr(models, role)(j) for j in (1, 2) for role in ("plant", "formation", "local")
    ]

    def allowed(event):
        return all(
            auto.step(q, event) for (auto, q) in zip(machines, states) if event in auto.event_ids
        )

    al = models.alphabet(k)
    rest = sorted(set(al.commands) - {f"Cth+{k}", f"Cr-{k}"})
    for candidate in (al.hold, f"Cth+{k}", f"Cr-{k}", *rest):
        if allowed(candidate):
            return candidate
    if not any(allowed(ev) for ev in al.controllable_ids):
        raise SupervisorBlocked(f"agent {k}: no controllable event enabled")
    return None


def locate_by_formula(p, x: float, y: float) -> RegionIndex:
    """``polar.locate`` as a clamped ceiling of the radius and angle over
    the grid steps, the reference for ``locate`` at points without a NaN
    coordinate."""
    r = math.hypot(x, y)
    if r > p.r_max:
        raise OutOfHorizon(f"point at radius {r:.6g} beyond horizon {p.r_max:.6g}")
    th = math.atan2(y, x)
    if th < 0.0:
        th += TWO_PI
    i = min(max(math.ceil(r / p.delta_r), 1), p.n_r - 1)
    j = min(max(math.ceil(th / p.delta_theta), 1), p.n_theta - 1)
    return RegionIndex(i, j)


def csv_row_by_fstring(world) -> str:
    """One trajectory row with a format spec per field, the reference for
    ``sim._row``'s single template."""
    (lx, ly) = world.leader_pos
    ((x1, y1), (x2, y2)) = world.follower_pos
    ((rx1, ry1), (rx2, ry2)) = world.relative
    (d1, d2) = world.discrete
    return (
        f"{world.t:.6f},{lx:.6f},{ly:.6f},"
        f"{lx + x1:.6f},{ly + y1:.6f},{lx + x2:.6f},{ly + y2:.6f},"
        f"{rx1:.6f},{ry1:.6f},{rx2:.6f},{ry2:.6f},"
        f"{d1.region.i},{d1.region.j},{d2.region.i},{d2.region.j}"
    )


def relative_velocity_of(world, mission, k: int):
    """Follower ``k``'s relative velocity in ``world``: zero when stopped
    or uncommanded, else the field of its command in its region."""
    disc = world.discrete[k - 1]
    if disc.stopped or disc.command is None:
        return (0.0, 0.0)
    (r_lo, r_hi, th_lo, span, gains, r_eps) = mission.cell(k, disc.region, disc.command)
    (x, y) = world.relative[k - 1]
    return kernels.eval_cell(r_lo, r_hi, th_lo, span, gains, x, y, r_eps)


def euler_step(world, mission) -> "sim.WorldState":
    """The reference for ``sim.step``, which takes one pass of ``sim._coast``'s
    fused loop: one Euler step of length dt, written out here.

    Stopped and uncommanded followers have no relative velocity; every
    follower's total velocity (leader plus relative) is clamped to the
    velocity bound.  The field is ``kernels.eval_cell``'s, which the
    simulator's loop repeats inline, so this step checks that copy.
    """
    cfg = mission.cfg
    (lvx, lvy) = schedule_at(cfg.leader_velocity, world.t)
    new_followers = []
    for k in (1, 2):
        (vx, vy) = relative_velocity_of(world, mission, k)
        tvx = lvx + vx
        tvy = lvy + vy
        speed = math.hypot(tvx, tvy)
        if speed > cfg.u_max:
            if cfg.u_max == 0.0:
                tvx = 0.0
                tvy = 0.0
            else:
                scale = cfg.u_max / speed
                tvx *= scale
                tvy *= scale
        (px, py) = world.follower_pos[k - 1]
        new_followers.append((px + (tvx - lvx) * cfg.dt, py + (tvy - lvy) * cfg.dt))
    new_index = world.step_index + 1
    return sim.WorldState(
        new_index,
        new_index * cfg.dt,
        (world.leader_pos[0] + lvx * cfg.dt, world.leader_pos[1] + lvy * cfg.dt),
        tuple(new_followers),
        world.offsets,
        world.discrete,
        world.episode,
    )


def run_scenario_reacting_every_step(cfg) -> "sim.ScenarioResult":
    """``sim.run_scenario`` with a supervisor reaction on every step.

    The reference for the simulator's loop, which reacts only on steps
    with events; steps are taken by :func:`euler_step` and rows are
    formatted by :func:`csv_row_by_fstring` into a list, from which the
    result is built at the end.
    Failures carry ``world`` and ``recent`` as in ``run_scenario``.
    """
    cfg.validate()
    mission = sim.Mission(cfg)
    world = sim.initial_world(mission)
    rows = []
    records = []

    switch_times = list(cfg.switch_times())
    n_steps = int(round(cfg.t_end / cfg.dt))
    phase = 0
    t_reach = {1: [None], 2: [None]}
    episodes: list = []
    min_sep = world.separation
    min_sep_t = 0.0
    first_circle = {k: frozenset(mission.alphabet(k).first_circle) for k in (1, 2)}

    try:
        (world, reacted) = sim.supervisor_react(world, [], mission)
        records.extend(reacted)
        rows.append(csv_row_by_fstring(world))

        for _ in range(n_steps):
            if switch_times and world.t >= switch_times[0]:
                switch_times.pop(0)
                world = sim._apply_offset_switch(world, mission)
                phase += 1
                for k in (1, 2):
                    t_reach[k].append(None)
                records.append(
                    sim.EventRecord(world.t, "world", "formation_switch", f"phase={phase + 1}")
                )
                (world, reacted) = sim.supervisor_react(world, [], mission)
                records.extend(reacted)

            nxt = euler_step(world, mission)
            events = sim.detect_events(world, nxt, mission)
            (world, reacted) = sim.supervisor_react(nxt, events, mission)
            records.extend(reacted)
            rows.append(csv_row_by_fstring(world))

            if world.separation < min_sep:
                min_sep = world.separation
                min_sep_t = world.t
            for rec in reacted:
                if rec.agent in ("1", "2"):
                    k = int(rec.agent)
                    if rec.event in first_circle[k] and t_reach[k][phase] is None:
                        t_reach[k][phase] = rec.t
                if rec.event in ALARM_EVENTS:
                    episodes.append(sim._EpisodeLog(rec.event, rec.t))
                elif rec.event in STOP_OF_EPISODE.values() and episodes:
                    if episodes[-1].stop is None:
                        episodes[-1].stop = rec.event
                        episodes[-1].t_stop = rec.t
                elif rec.event in RELEASE_OF_EPISODE.values() and episodes:
                    if episodes[-1].release is None:
                        episodes[-1].release = rec.event
                        episodes[-1].t_release = rec.t
    except (SupervisorBlocked, HorizonViolation) as exc:
        exc.world = world
        exc.recent = tuple(records[-sim.FAILURE_RECORDS:])
        raise

    flags = []
    for k in (1, 2):
        for ph, value in enumerate(t_reach[k], start=1):
            if value is None:
                flags.append(f"follower {k} never reached the formation in phase {ph}")
    for idx, ep in enumerate(episodes, start=1):
        if ep.t_release is None:
            flags.append(f"episode {idx} never released")

    verdicts = {}
    for k in (1, 2):
        verdicts[f"t_reach_{k}"] = " ".join(
            "none" if v is None else f"{v:.2f}" for v in t_reach[k]
        )
    verdicts["min_separation"] = f"{min_sep:.6f} (t={min_sep_t:.2f})"
    verdicts["alarm_episodes"] = str(len(episodes))
    for idx, ep in enumerate(episodes, start=1):
        verdicts[f"episode_{idx}"] = (
            f"alarm={ep.alarm} t_alarm={ep.t_alarm:.2f} "
            f"stop={ep.stop} t_stop={sim._fmt_t(ep.t_stop)} "
            f"release={ep.release} t_release={sim._fmt_t(ep.t_release)}"
        )
    for k in (1, 2):
        region = world.discrete[k - 1].region
        verdicts[f"final_region_{k}"] = f"({region.i},{region.j})"
    verdicts["flags"] = "; ".join(flags) if flags else "none"
    return sim.ScenarioResult(rows, records, verdicts, mission.controllers_text())


def run_scenario_under_the_global_supervisor(cfg) -> "sim.ScenarioResult":
    """``sim.run_scenario`` with Theorem 1's global side in the local slots.

    Agent 1's local supervisor is the collision supervisor itself, and
    agent 2's is one state over agent 2's events with a self-loop on each,
    so that the global supervisor alone restricts the team.  The run's
    supervisor slots and initial discrete states both come from these
    automata, through the models that ``sim.build_models`` returns.
    """
    models = sim.build_models(cfg.partition)
    al2 = models.alphabet(2)
    one_state = Automaton.build(["g"], "g", al2.events, [("g", al2.all_ids, "g")], ["g"])
    decomposition = models.decomposition._replace(local1=models.collision, local2=one_state)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sim, "build_models", lambda p: models._replace(decomposition=decomposition))
        return sim.run_scenario(cfg)


def classify(r_lo, r_hi, th_lo, span, x, y):
    """Locate (x, y) relative to the cell: INSIDE or the facet crossed.

    Radial facets take precedence over angular ones; an angular excursion
    is attributed to the nearer facet measured through the complement arc.
    ``kernels.integrate_cell`` makes this test inline after each step.
    """
    r = math.sqrt(x * x + y * y)
    if r > r_hi:
        return EXIT_R_PLUS
    if r < r_lo:
        return EXIT_R_MINUS
    if span < TWO_PI - 1e-12:
        th = math.atan2(y, x)
        rel = math.fmod(th - th_lo, TWO_PI)
        if rel < 0.0:
            rel += TWO_PI
        if rel > span:
            excess = rel - span
            gap = TWO_PI - span
            if excess <= gap * 0.5:
                return EXIT_TH_PLUS
            return EXIT_TH_MINUS
    return INSIDE


def integrate_by_steps(r_lo, r_hi, th_lo, span, u, x0, y0, dt, max_steps, r_eps):
    """Stepwise reference for ``kernels.integrate_cell``: each Euler step
    calls ``eval_cell`` on the current point, then ``classify`` on the
    new one, so every step locates its point twice."""
    x = x0
    y = y0
    steps = 0
    while steps < max_steps:
        (vx, vy) = eval_cell(r_lo, r_hi, th_lo, span, u, x, y, r_eps)
        x = x + dt * vx
        y = y + dt * vy
        steps += 1
        code = classify(r_lo, r_hi, th_lo, span, x, y)
        if code != INSIDE:
            return (code, steps, x, y)
    return (INSIDE, steps, x, y)


def scaled_controls(vc, factor: float):
    """``vc`` with every vertex vector multiplied by ``factor``."""
    return vc._replace(u=tuple((ur * factor, ut * factor) for (ur, ut) in vc.u))


def interpolate_polar(vc, alpha: float, beta: float):
    """Bilinear interpolation of the vertex vectors at cell coordinates.

    alpha is the radial fraction, beta the angular fraction; the weights
    (1-a)(1-b), a(1-b), ab, (1-a)b match vertices v0..v3 and sum to one.
    """
    w = (
        (1.0 - alpha) * (1.0 - beta),
        alpha * (1.0 - beta),
        alpha * beta,
        (1.0 - alpha) * beta,
    )
    ur = sum(wi * ui[0] for wi, ui in zip(w, vc.u))
    ut = sum(wi * ui[1] for wi, ui in zip(w, vc.u))
    return (ur, ut)


def validate_by_grid(p, idx, vc, n: int = 20) -> list:
    """Sampled oracle for ``polar.validate_controller``'s facet conditions.

    Interpolates the field on an n x n lattice of cell coordinates and
    returns (facet, alpha index, beta index) for every boundary sample that
    points outward, by more than 1e-12, across a facet of the region other
    than the mode's exit facet.
    """
    facets = _facets_of(p, idx)
    exit_facet = _EXIT_FACET.get(vc.mode)
    violations = []
    for a_idx in range(n):
        alpha = a_idx / (n - 1)
        for b_idx in range(n):
            beta = b_idx / (n - 1)
            (ur, ut) = interpolate_polar(vc, alpha, beta)
            on = []
            if alpha == 0.0:
                on.append("r-")
            if alpha == 1.0:
                on.append("r+")
            if beta == 0.0:
                on.append("th-")
            if beta == 1.0:
                on.append("th+")
            for name in on:
                if name == exit_facet or name not in facets:
                    continue
                normal = _FACETS[name].normal
                if ur * normal[0] + ut * normal[1] > 1e-12:
                    violations.append((name, a_idx, b_idx))
    return violations


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def undecomposable_collision(monkeypatch):
    """``models.build_collision_spec`` replaced by a deterministic
    supervisor that is not decomposable: its one state with a choice offers
    a private command of each agent, and the product of its projections
    lets both agents take theirs.  ``build_models``' cache is cleared."""

    def build(al1, al2):
        states = ["c0", "c1", "c2"]
        rows = [("c0", al1.commands[0], "c1"), ("c0", al2.commands[0], "c2")]
        return Automaton.build(states, "c0", al1.events + al2.events, rows, states)

    monkeypatch.setattr(models, "build_collision_spec", build)
    models.build_models.cache_clear()
