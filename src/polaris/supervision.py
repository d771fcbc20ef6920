"""Controllability, closed-loop construction and supervisor decomposition.

A specification automaton plays the role of a prefix-closed supervisor
candidate: its generated language is the prefix closure of the target
behavior, and composing it with the plant realizes the closed loop.  The
decomposition checks decide whether a global two-agent supervisor can be
replaced by the parallel composition of its natural projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .automata import (
    Automaton,
    BisimResult,
    _common_classes,
    _determinize,
    _label_rows,
    _projection_nfa,
    _refine,
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
    NotDecomposable,
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
    "DecentralizedVerdict",
    "is_nonblocking",
]


def is_nonblocking(a: Automaton) -> bool:
    """From every reachable state some marked state must stay reachable."""
    a = accessible(a)
    predecessors: dict = {q: set() for q in a.states}
    for (src, row) in a._succ.items():
        for dsts in row.values():
            for dst in dsts:
                predecessors[dst].add(src)
    can_mark = set(a.marked)
    frontier = list(a.marked)
    while frontier:
        q = frontier.pop()
        for p in predecessors[q]:
            if p not in can_mark:
                can_mark.add(p)
                frontier.append(p)
    return can_mark == a.states


@dataclass(frozen=True)
class ControllabilityReport:
    controllable: bool
    witness_string: Optional[tuple] = None
    witness_event: Optional[str] = None

    def __bool__(self):
        return self.controllable


def check_controllability(
    spec: Automaton, plant: Automaton, e_uc: Iterable[str]
) -> ControllabilityReport:
    """Check that the spec never disables an uncontrollable plant event.

    Traverses the synchronous product of the spec (prefix-closed view: its
    generated language) and the plant; fails iff some reachable pair enables
    an event of ``e_uc`` in the plant but not in the spec.  On failure the
    witness string s and event are returned, with s generated by the spec,
    s+event generated by the plant but not by the spec.  The search moves
    by label of the common refinement of both automata's classes and
    ``e_uc``, in label order, so each witness event is the smallest of the
    first failing block, as a scan of single events in sorted order finds.
    """
    if spec.event_ids != plant.event_ids:
        raise AlphabetMismatch(
            "spec and plant must share an alphabet; "
            f"difference: {sorted(spec.event_ids ^ plant.event_ids)}"
        )
    e_uc = frozenset(e_uc)
    extra = e_uc - plant.event_ids
    if extra:
        raise AlphabetMismatch(f"uncontrollable events not in alphabet: {sorted(extra)}")

    labels = _common_classes([e.id for e in plant.alphabet], (spec, plant), (e_uc,))
    spec_rows, plant_rows = _label_rows(spec, labels), _label_rows(plant, labels)
    start = (spec.initial, plant.initial)
    parents: dict = {start: None}
    frontier = [start]
    while frontier:
        pair = frontier.pop(0)
        (qs, qp) = pair
        spec_enabled = spec_rows[qs]
        for (ev, dps) in plant_rows[qp].items():
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
            for ds in sorted(spec_enabled[ev]):
                for dp in sorted(dps):
                    nxt = (ds, dp)
                    if nxt not in parents:
                        parents[nxt] = (pair, ev)
                        frontier.append(nxt)
    return ControllabilityReport(True)


def closed_loop(s: Automaton, a: Automaton) -> Automaton:
    """Compose a supervisor realization with the plant.

    Requires all supervisor states marked (prefix-closed language) and the
    supervised language controllable; the marked language of the result is
    the supervisor language intersected with the plant's marked language.
    """
    if s.marked != s.states:
        raise ValueError("supervisor realization must have every state marked")
    e_uc = {e.id for e in a.alphabet if not e.controllable}
    report = check_controllability(s, a, e_uc)
    if not report:
        raise NotControllable(
            f"spec disables uncontrollable {report.witness_event!r} after "
            f"{'.'.join(report.witness_string) or 'the empty string'}"
        )
    return parallel_compose(s, a)


def modular_supervisor(s1: Automaton, s2: Automaton, a: Automaton) -> Automaton:
    """Closed loop of two modular supervisors running in conjunction."""
    return parallel_compose(parallel_compose(s1, s2), a)


def _coverage(a: Automaton, e1, e2):
    e1, e2 = frozenset(e1), frozenset(e2)
    if e1 | e2 != a.event_ids:
        missing = a.event_ids - (e1 | e2)
        raise CoverageError(f"event sets do not cover the alphabet: {sorted(missing)}")
    return e1, e2


def decompose(a: Automaton, e1: Iterable[str], e2: Iterable[str]):
    """Project the automaton onto the two local event sets."""
    e1, e2 = _coverage(a, e1, e2)
    return natural_project(a, e1), natural_project(a, e2)


@dataclass(frozen=True)
class DecomposabilityReport:
    decomposable: bool
    bisim: BisimResult
    dc1: bool
    dc1_witness: Optional[tuple] = None
    dc2: bool = True
    dc2_witness: Optional[tuple] = None
    dc3: bool = True
    dc3_witness: Optional[tuple] = None
    dc4: bool = True
    dc4_witness: Optional[tuple] = None
    # the projections of the accessible automaton that were composed
    local1: Optional[Automaton] = field(default=None, repr=False, compare=False)
    local2: Optional[Automaton] = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return self.decomposable

    def summary(self) -> str:
        lines = [
            f"decomposable: {self.decomposable}",
            f"dc1: {'pass' if self.dc1 else f'fail {self.dc1_witness}'}",
            f"dc2: {'pass' if self.dc2 else f'fail {self.dc2_witness}'}",
            f"dc3: {'pass' if self.dc3 else f'fail {self.dc3_witness}'}",
            f"dc4: {'pass' if self.dc4 else f'fail {self.dc4_witness}'}",
        ]
        return "\n".join(lines)


def _dc4_witness(a: Automaton, keep: frozenset) -> Optional[tuple]:
    """First (q, ev, t1, t2) whose projected successors t1 < t2 differ.

    Two successors of one projected step must generate the same projected
    language.  All singleton subsets are determinized together and refined
    once from a single block, so equal blocks mean equal languages.  A
    projected class is scanned as its smallest kept event.
    """
    trans, _, visible = _projection_nfa(a, keep)
    dfa = _determinize(trans, [frozenset([q]) for q in a.states])
    block = _refine(
        dict.fromkeys(dfa, 0),
        {subset: {ev: (dst,) for ev, dst in row.items()} for subset, row in dfa.items()},
    )
    for q in sorted(a.states):
        for ev, targets in sorted((visible[c][0], targets) for c, targets in trans[q].items()):
            for t1, t2 in combinations(sorted(targets), 2):
                if block[frozenset([t1])] != block[frozenset([t2])]:
                    return (q, ev, t1, t2)
    return None


def _dc3_witness(moves: dict, e1: frozenset, e2: frozenset) -> Optional[tuple]:
    """First (q, s, t) whose product of p1(s) and p2(t) leaves the automaton.

    ``moves`` maps each state to ``label -> target`` (see
    :func:`check_decomposability`), so s and t are spelled with labels.
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


def check_decomposability(
    a: Automaton, e1: Iterable[str], e2: Iterable[str], *, n: Optional[int] = None
) -> DecomposabilityReport:
    """Decide decomposability and run the four diagnostic conditions.

    The authoritative verdict is the direct oracle: project onto both event
    sets, compose the projections and test bisimilarity with the original.
    The diagnostics locate the cause of a failure and are all decided
    exactly, over the accessible part of the automaton.  dc3 reads the
    condition of Karimadini and Lin (Automatica 47(5), 2011) as: for every
    reachable q and every pair s, t generated from q whose first shared
    events agree (s = t included), every node of the synchronized product
    of p1(s) and p2(t) is generated from q.  The report carries the two
    projections it composed as ``local1`` and ``local2``.

    ``n`` is accepted and ignored.  It was the string-length bound of the
    sampled dc3 search this one replaced; it stays only until the tracer
    test in ``perfbench/tests`` stops passing it.
    """
    if not a.deterministic:
        raise NondeterministicInput("decomposability conditions require a deterministic automaton")
    e1, e2 = _coverage(a, e1, e2)
    # the conditions quantify over reachable behavior only
    a = accessible(a)
    p1, p2 = natural_project(a, e1), natural_project(a, e2)
    bisim = is_bisimilar(a, parallel_compose(p1, p2))

    priv1 = e1 - e2
    priv2 = e2 - e1

    # the conditions run over labels: a label stands for the events of one
    # class that agree on membership in e1 and in e2, and is the smallest
    # of them; a is deterministic, so every enabled label has one target.
    # The target is read through step1 rather than from the row only
    # because test_tracing_patches_every_binding_and_restores_it in
    # perfbench/tests expects this function to call Automaton.step
    labels = _common_classes([e.id for e in a.alphabet], (a,), (e1, e2))
    moves = {q: {ev: a.step1(q, ev) for ev in row} for (q, row) in _label_rows(a, labels).items()}
    # states are bisimilar iff they share a block of the refinement of a
    block = _refine(
        {q: q in a.marked for q in a.states},
        {q: {ev: (dst,) for (ev, dst) in row.items()} for (q, row) in moves.items()},
    )
    dc1 = True
    dc1_wit = None
    dc2 = True
    dc2_wit = None
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
                    if dc1:
                        dc1, dc1_wit = False, (q, x, y)
                    continue
                if block[qxy] != block[qyx] and dc2:
                    dc2, dc2_wit = False, (q, x, y)

    dc3_wit = _dc3_witness(moves, e1, e2)
    dc4_wit = _dc4_witness(a, e1) or _dc4_witness(a, e2)

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


@dataclass(frozen=True)
class DecentralizedVerdict:
    satisfied: bool
    centralized_matches: bool
    decomposability: DecomposabilityReport

    def __bool__(self):
        return self.satisfied


def verify_decentralized(
    ap1: Automaton, ap2: Automaton, ac: Automaton, a_spec: Automaton
) -> DecentralizedVerdict:
    """Check that the locally supervised team meets the global spec.

    The controller is projected onto each plant's local event set; the
    composition of the local closed loops is compared with the global spec
    automaton by bisimulation.  The intermediate check (global controller
    composed with the joint plant against the spec) is reported alongside.
    """
    e1 = ac.event_ids & ap1.event_ids
    e2 = ac.event_ids & ap2.event_ids
    if e1 | e2 != ac.event_ids:
        raise CoverageError(
            "controller alphabet not covered by the plants' local event sets"
        )
    report = check_decomposability(ac, e1, e2)
    if not report:
        raise NotDecomposable("controller is not decomposable; see report diagnostics")
    local = parallel_compose(
        parallel_compose(ap1, report.local1), parallel_compose(ap2, report.local2)
    )
    satisfied = bool(is_bisimilar(local, a_spec))
    central = bool(is_bisimilar(parallel_compose(ac, parallel_compose(ap1, ap2)), a_spec))
    return DecentralizedVerdict(satisfied, central, report)
