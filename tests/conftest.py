import importlib.machinery
import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from polaris.automata import Automaton, Event, accessible
from polaris.errors import SupervisorBlocked


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
