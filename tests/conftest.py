import random

import pytest

from polaris.automata import Automaton, Event, accessible


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


def random_automaton(
    rng: random.Random,
    max_states=5,
    max_events=4,
    all_marked=False,
    deterministic=False,
    density=0.5,
    min_events=1,
):
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
    return Automaton.build(states, states[0], events, trans, marked)


def brute_language(a: Automaton, n: int, marked_only=True):
    """Independent recursive enumeration of (marked) strings up to length n."""
    out = set()

    def walk(states, prefix):
        if (not marked_only) or (states & a.marked):
            out.add(prefix)
        if len(prefix) == n:
            return
        for ev in sorted({e for q in states for e in a.enabled(q)}):
            nxt = frozenset(d for q in states for d in a.step(q, ev))
            if nxt:
                walk(nxt, prefix + (ev,))

    walk(frozenset([a.initial]), ())
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

    for (src, ev, dst) in a.transitions:
        if ev in hidden:
            union(src, dst)
    kept_events = tuple(e for e in a.alphabet if e.id in keep)
    transitions = {
        (find(src), ev, find(dst))
        for (src, ev, dst) in a.transitions
        if ev in keep
    }
    states = {find(q) for q in a.states}
    marked = {find(q) for q in a.marked}
    return accessible(
        Automaton.build(states, find(a.initial), kept_events, transitions, marked)
    )


def check_bisim_relation(a1, a2, relation):
    """Transfer-condition validation of a claimed bisimulation."""
    pairs = relation.pairs
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


@pytest.fixture
def rng():
    return random.Random(20240817)
