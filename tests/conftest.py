import importlib.machinery
import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from itertools import combinations
from pathlib import Path

import pytest

from polaris.automata import (
    Automaton,
    BisimRelation,
    BisimResult,
    Event,
    _determinize,
    _merge_events,
    accessible,
    product_state,
)
from polaris.errors import SupervisorBlocked
from polaris.supervision import ControllabilityReport, DecomposabilityReport, _dc3_witness


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


def rerooted(a: Automaton, q: str) -> Automaton:
    """The same automaton started from ``q``, trimmed."""
    return accessible(Automaton.build(a.states, q, a.alphabet, a.transitions, a.marked))


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
            for ev in reversed(a.enabled(state)):
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


# -- per-event oracles -------------------------------------------------------
#
# The algorithms as they ran over single events before the automaton index
# was keyed by event class.  They read automata only through their
# per-event queries (``enabled``, ``step``, ``step1``, ``transitions``) and
# build results with ``Automaton.build``, so they are independent of the
# class index and of every algorithm that runs over classes.  The subset
# construction (``automata._determinize``) and the dc3 search
# (``supervision._dc3_witness``) take their moves keyed by whatever names
# an event or a class, so the oracles call them with per-event moves: the
# comparison checks that label-keyed input gives what event-keyed gives.


def _row(a: Automaton, q):
    """``event -> targets`` of every event enabled at ``q``, sorted."""
    return {ev: a.step(q, ev) for ev in a.enabled(q)}


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
        [t for t in a.transitions if t[0] in reach],
        a.marked & reach,
    )


def per_event_compose(a1: Automaton, a2: Automaton) -> Automaton:
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


def per_event_project(a: Automaton, keep) -> Automaton:
    keep = frozenset(keep)
    kept_events = tuple(e for e in a.alphabet if e.id in keep)
    trans, init = _per_event_projection_nfa(a, keep)
    dfa = _determinize(trans, [init])
    names = {subset: "{" + ",".join(sorted(subset)) + "}" for subset in dfa}
    transitions = [
        (names[subset], ev, names[dst])
        for subset, row in dfa.items()
        for ev, dst in row.items()
    ]
    marked = {name for subset, name in names.items() if subset & a.marked}
    return Automaton.build(set(names.values()), names[init], kept_events, transitions, marked)


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
        return BisimResult(False, counterexample=(u1.initial, u2.initial))
    pairs = frozenset(
        (q1, q2)
        for q1 in sorted(u1.states)
        for q2 in sorted(u2.states)
        if block_of["1:" + q1] == block_of["2:" + q2]
    )
    return BisimResult(True, relation=BisimRelation(pairs))


def per_event_controllability(spec: Automaton, plant: Automaton, e_uc) -> ControllabilityReport:
    e_uc = frozenset(e_uc)
    start = (spec.initial, plant.initial)
    parents: dict = {start: None}
    frontier = [start]
    while frontier:
        pair = frontier.pop(0)
        (qs, qp) = pair
        spec_enabled = set(spec.enabled(qs))
        for ev in plant.enabled(qp):
            if ev in e_uc and ev not in spec_enabled:
                string = []
                node = pair
                while parents[node] is not None:
                    node, via = parents[node]
                    string.append(via)
                string.reverse()
                return ControllabilityReport(False, tuple(string), ev)
            if ev not in spec_enabled:
                continue
            for ds in sorted(spec.step(qs, ev)):
                for dp in sorted(plant.step(qp, ev)):
                    nxt = (ds, dp)
                    if nxt not in parents:
                        parents[nxt] = (pair, ev)
                        frontier.append(nxt)
    return ControllabilityReport(True)


def _per_event_dc4_witness(a: Automaton, keep: frozenset):
    trans, _ = _per_event_projection_nfa(a, keep)
    dfa = _determinize(trans, [frozenset([q]) for q in a.states])
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


def per_event_decomposability(a: Automaton, e1, e2) -> DecomposabilityReport:
    """The full report, projections included, from the per-event oracles."""
    e1, e2 = frozenset(e1), frozenset(e2)
    a = per_event_accessible(a)
    p1, p2 = per_event_project(a, e1), per_event_project(a, e2)
    bisim = per_event_bisim(a, per_event_compose(p1, p2))

    priv1 = e1 - e2
    priv2 = e2 - e1

    moves = {q: {ev: a.step1(q, ev) for ev in a.enabled(q)} for q in a.states}
    block = _per_event_refine(
        {q: q in a.marked for q in a.states},
        {q: {ev: (dst,) for (ev, dst) in row.items()} for (q, row) in moves.items()},
    )
    dc1 = True
    dc1_wit = None
    dc2 = True
    dc2_wit = None
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
                    if dc1:
                        dc1, dc1_wit = False, (q, x, y)
                    continue
                if block[qxy] != block[qyx] and dc2:
                    dc2, dc2_wit = False, (q, x, y)

    dc3_wit = _dc3_witness(moves, e1, e2)
    dc4_wit = _per_event_dc4_witness(a, e1) or _per_event_dc4_witness(a, e2)

    return DecomposabilityReport(
        decomposable=bool(bisim),
        bisim=bisim,
        dc1=dc1,
        dc1_witness=dc1_wit,
        dc2=dc2,
        dc2_witness=dc2_wit,
        dc3=dc3_wit is None,
        dc3_witness=dc3_wit,
        dc4=dc4_wit is None,
        dc4_witness=dc4_wit,
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

    def enabled(event):
        return all(
            auto.step(q, event) for (auto, q) in zip(machines, states) if event in auto.event_ids
        )

    al = models.alphabet(k)
    rest = sorted(set(al.commands) - {f"Cth+{k}", f"Cr-{k}"})
    for candidate in (al.hold, f"Cth+{k}", f"Cr-{k}", *rest):
        if enabled(candidate):
            return candidate
    if not any(enabled(ev) for ev in al.controllable_ids):
        raise SupervisorBlocked(f"agent {k}: no controllable event enabled")
    return None


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The compiled kernel, freshly built by ``setup.py build_ext``.

    The build uses the install flags, writes only into a temporary
    directory, and the module is loaded from there without entering
    ``sys.modules``, so the rest of the suite keeps the backend it imported.
    Skips only when there is no C compiler on PATH; a failed build fails.
    """
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) on PATH")
    out = tmp_path_factory.mktemp("ckernel")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
    )
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = out / "lib" / "polaris" / "kernels" / f"_ckernel{suffix}"
    # the extension is optional, so a failed compile still exits 0
    assert build.returncode == 0 and path.exists(), build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("polaris.kernels._ckernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return random.Random(20240817)
