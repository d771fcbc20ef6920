import random

import pytest

from conftest import (
    BoundTooLarge,
    _edges,
    accepts,
    brute_language,
    check_bisim_relation,
    enabled,
    generic_automaton,
    make_auto,
    marked_language_upto,
    per_event_bisim,
    project_by_merging,
    random_automaton,
    random_automaton_parts,
    random_automaton_with_twins,
    renamed,
    transitions,
    unfolded,
)

from polaris import automata, exchange
from polaris.automata import (
    Automaton,
    Event,
    accessible,
    is_bisimilar,
    natural_project,
    parallel_compose,
)
from polaris.errors import AlphabetConflict
from polaris.models import build_models
from polaris.polar import PolarPartition


def test_build_validates_endpoints():
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "q0", [Event("a", True)], [("q0", "a", "nope")], [])
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "missing", [Event("a", True)], [], [])
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "q0", [Event("a", True)], [("q0", "b", "q0")], [])
    with pytest.raises(ValueError):
        Automaton.build(["q0"], "q0", [Event("a", True)], [], ["q0", "q1"])
    # a repeated event id is merged before the relation is checked, so the
    # alphabet never holds one id twice: equal controllability unites owners
    merged = Automaton.build(
        ["q0"], "q0", [Event("a", True, {1}), Event("a", True, {2})], [("q0", "a", "q0")], []
    )
    assert merged.alphabet == (Event("a", True, {1, 2}),)
    # ... and conflicting controllability is refused
    with pytest.raises(AlphabetConflict):
        Automaton.build(["q0"], "q0", [Event("a", True), Event("a", False)], [], [])


_OWNER_SETS = ((), (1,), (2,), (1, 2))


def _random_grouped_parts(rng: random.Random):
    """A random automaton as triples and as rows over event groups.

    Some events copy an earlier event's relation (so they share its class)
    and some have no transition.  Each (source, target) pair's events are
    split into random groups, each a mask over the events' universe or,
    alone, a plain id or a one-event mask; the rows add overlapping
    groups, empty masks and duplicates.  Returns (states, initial, events,
    alphabet, triples, rows, marked), ``alphabet`` the events' alphabet
    over the universe of the masks.
    """
    n = rng.randint(1, 5)
    states = [f"s{i}" for i in range(n)]
    events = [
        Event(f"ev{i}", rng.random() < 0.5, rng.choice(_OWNER_SETS))
        for i in range(rng.randint(1, 7))
    ]
    relations: list = []
    for _ in events:
        r = rng.random()
        if r < 0.15:
            relations.append([])
        elif r < 0.45 and relations:
            relations.append(list(rng.choice(relations)))
        else:
            relations.append(
                [(q, d) for q in states for d in states if rng.random() < 0.6 / n]
            )
    triples = [(q, ev.id, d) for ev, pairs in zip(events, relations) for (q, d) in pairs]
    alphabet = automata._Alphabet.of(events)
    bits = alphabet.universe.mask
    by_ends: dict = {}
    for (q, ev, d) in triples:
        by_ends.setdefault((q, d), []).append(ev)
    rows = []
    for (q, d), evs in by_ends.items():
        rest = rng.sample(evs, len(evs))
        while rest:
            cut = rng.randint(1, len(rest))
            group, rest = rest[:cut], rest[cut:]
            rows.append((q, group[0] if cut == 1 and rng.random() < 0.5 else bits(group), d))
        if rng.random() < 0.3:
            rows.append((q, bits(rng.sample(evs, rng.randint(1, len(evs)))), d))
        if rng.random() < 0.1:
            rows.append((q, 0, d))
    rows += [row for row in rows if rng.random() < 0.2]
    rng.shuffle(rows)
    marked = [q for q in states if rng.random() < 0.5]
    return states, states[0], events, alphabet, triples, rows, marked


def test_build_on_event_groups_matches_build_on_triples():
    rng = random.Random(2101)
    seen = {"shared class": 0, "overlap": 0, "unused event": 0, "plain id": 0}
    for _ in range(1200):
        states, initial, events, alphabet, triples, rows, marked = _random_grouped_parts(rng)
        grouped = Automaton.build(states, initial, alphabet, rows, marked)
        assert grouped == Automaton.build(states, initial, events, triples, marked)
        assert transitions(grouped) == tuple(sorted(triples))
        seen["shared class"] += any(len(evs) > 1 for evs in grouped._members.values())
        seen["overlap"] += len(_edges(rows, alphabet.universe)) > len(triples)
        seen["unused event"] += len(grouped._class_of) > len({ev for (_, ev, _) in triples})
        seen["plain id"] += any(isinstance(g, str) for (_, g, _) in rows)
        # a bad row anywhere raises what the per-event triples raise
        bad = rng.choice([("s0", "nope", "s0"), ("s0", "ev0", "gone"),
                          ("s0", alphabet.universe.mask(["ev0"]), "gone")])
        rows.insert(rng.randint(0, len(rows)), bad)
        with pytest.raises(ValueError) as by_rows:
            Automaton.build(states, initial, alphabet, rows, marked)
        with pytest.raises(ValueError) as by_triples:
            Automaton.build(states, initial, alphabet, _edges(rows, alphabet.universe), marked)
        assert str(by_rows.value) == str(by_triples.value)
    assert min(seen.values()) > 50, seen


def test_build_on_event_groups_names_the_bad_event_or_endpoint():
    # a mask row names its smallest event: at an unknown endpoint, its
    # first triple's; outside the alphabet, the smallest there
    universe = automata._Universe(["ev0", "ev1", "yy", "zz"])
    alphabet = automata._Alphabet(universe, {(True, frozenset()): universe.mask(["ev0"]),
                                             (False, frozenset()): universe.mask(["ev1"])})
    bits = universe.mask
    cases = [
        ([("s0", "zz", "s1")], "transition event 'zz' not in alphabet"),
        ([("s0", "ev1", "s9")], "transition (s0,ev1,s9) has unknown endpoint"),
        ([("s0", bits(["ev1", "ev0"]), "s9")], "transition (s0,ev0,s9) has unknown endpoint"),
        ([("s0", "ev0", "s1"), ("s1", bits(["ev1", "zz", "yy"]), "s0")],
         "transition event 'yy' not in alphabet"),
    ]
    for rows, text in cases:
        for transitions in (rows, _edges(rows, universe)):
            with pytest.raises(ValueError) as exc:
                Automaton.build(["s0", "s1"], "s0", alphabet, transitions, [])
            assert str(exc.value) == text


def test_build_on_a_mask_names_the_smallest_event_outside_the_alphabet():
    # a mask row is checked at once: of its events outside the alphabet,
    # the error names the smallest
    universe = automata._Universe(["a", "b", "c", "d", "e"])
    alphabet = automata._Alphabet(universe, {(True, frozenset()): universe.mask(["a", "c"])})
    rows = [("s0", universe.mask(["a", "c"]), "s1"), ("s1", universe.mask(["e", "c", "d"]), "s0")]
    with pytest.raises(ValueError) as exc:
        Automaton.build(["s0", "s1"], "s0", alphabet, rows, [])
    assert str(exc.value) == "transition event 'd' not in alphabet"
    a = Automaton.build(["s0", "s1"], "s0", alphabet, rows[:1], [])
    assert a.step("s0", "c") == ("s1",)


def test_index_round_trips_random_automata():
    rng = random.Random(7001)
    for i in range(600):
        states, initial, events, trans, marked = random_automaton_parts(
            rng, deterministic=i % 3 == 0
        )
        # repeat and shuffle the input: the index keeps each triple once
        triples = trans + rng.sample(trans, len(trans) // 2)
        rng.shuffle(triples)
        a = Automaton.build(states, initial, events, triples, marked)
        assert transitions(a) == tuple(sorted(set(triples)))
        assert exchange.loads(exchange.dumps(a)) == a
        same = Automaton.build(reversed(states), initial, events, reversed(trans), marked)
        assert same == a and hash(same) == hash(a)
        if trans:
            assert Automaton.build(states, initial, events, trans[1:], marked) != a


def test_deterministic_flag():
    det = make_auto([("q0", "a", "q1")])
    assert det.deterministic
    nondet = make_auto([("q0", "a", "q1"), ("q0", "a", "q2")])
    assert not nondet.deterministic
    with pytest.raises(ValueError):
        nondet.step1("q0", "a")


def test_equal_target_sets_share_one_tuple():
    a = make_auto([("q0", "a", "q1"), ("q0", "b", "q1"), ("q1", "a", "q1"),
                   ("q1", "b", "q0"), ("q1", "c", "q0")])
    assert a.step("q0", "a") == ("q1",)
    assert a.step("q0", "a") is a.step("q0", "b") is a.step("q1", "a")
    assert a.step("q1", "b") is a.step("q1", "c")
    # tuples of two or more targets are sorted and shared too
    n = make_auto([("q0", "a", "q1"), ("q0", "a", "q0"), ("q1", "b", "q1"),
                   ("q1", "b", "q0"), ("q1", "c", "q1")])
    assert n.step("q0", "a") == ("q0", "q1")
    assert n.step("q0", "a") is n.step("q1", "b")
    assert n.step("q1", "c") == ("q1",)
    assert n.step("q2", "a") == n.step("q0", "d") == ()


def test_classes_are_maximal_and_canonical():
    # a, b and z share relation, controllability and owners; y differs in
    # owners, c in controllability, x in one transition; w never moves
    trans = [("q0", ev, "q1") for ev in "abcxyz"] + [("q1", ev, "q0") for ev in "abcyz"]
    events = [Event(ev, ev != "c", {2} if ev == "y" else ()) for ev in "abcwxyz"]
    a = Automaton.build(["q0", "q1"], "q0", events, trans, ["q0"])
    # each class is labelled by its smallest event
    assert a._members == {"a": ("a", "b", "z"), "c": ("c",), "w": ("w",), "x": ("x",), "y": ("y",)}
    assert [a._class_of[ev] for ev in "abcwxyz"] == ["a", "a", "c", "w", "x", "y", "a"]
    assert a._succ == {
        "q0": {"a": ("q1",), "c": ("q1",), "x": ("q1",), "y": ("q1",)},
        "q1": {"a": ("q0",), "c": ("q0",), "y": ("q0",)},
    }
    assert enabled(a, "q1") == ("a", "b", "c", "y", "z")
    # the same automaton reached through the algebra has the same index
    twin = renamed(a, {"q0": "p0", "q1": "p1"})
    rebuilt = natural_project(parallel_compose(a, twin), a.event_ids)
    assert renamed(accessible(rebuilt), {"{⟨q0,p0⟩}": "q0", "{⟨q1,p1⟩}": "q1"}) == a
    # every state has a row, listing its classes in label order, which
    # label-ordered scans rely on
    for auto in (a, twin, rebuilt):
        assert auto._succ.keys() == auto.states
        assert list(auto._masks) == sorted(auto._masks)
        assert all(list(row) == sorted(row) for row in auto._succ.values())
    assert make_auto([], states=["q0", "q1"])._succ == {"q0": {}, "q1": {}}


def test_walks_read_the_stored_relation():
    models = build_models(PolarPartition(50.0, 6, 9))
    autos = [x for x in models if isinstance(x, Automaton)]
    autos += [models.decomposition.local1, models.decomposition.local2]
    autos.append(exchange.loads(exchange.dumps(models.plant1)))
    split = 0
    for a in autos:
        (_, [(_, (rows, _, _), _)]) = automata._operands(a)
        assert rows is a._succ
        # a class cut in two by a split mask is read through new rows with
        # the same moves, under the labels of its two parts
        (c, evs) = next((c, evs) for (c, evs) in a._members.items() if len(evs) > 1)
        cut = a._sigma.universe.mask([evs[-1]])
        (labels, [(_, (rows, _, _), _)]) = automata._operands(a, split=(cut,))
        assert rows is not a._succ and evs[-1] in labels and c in labels
        ids_of = a._sigma.universe.ids_of
        moves = [(q, ev, d) for (q, row) in rows.items() for (label, ds) in row.items()
                 for ev in ids_of(labels[label]) for d in ds]
        assert sorted(moves) == list(transitions(a))
        split += 1
    assert split == 8


def test_accessible_identity_for_single_state():
    a = make_auto([], initial="q0")
    assert accessible(a) is a


def test_accessible_trims_unreachable_chain():
    a = make_auto([("q0", "a", "q1"), ("q2", "a", "q1")], states=["q0", "q1", "q2"])
    trimmed = accessible(a)
    assert trimmed.states == frozenset({"q0", "q1"})
    assert len(transitions(trimmed)) == 1
    assert marked_language_upto(trimmed, 3) == marked_language_upto(a, 3)


# -- parallel composition ---------------------------------------------------


def test_compose_with_self_is_bisimilar():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0"), ("q1", "c", "q1")],
                  marked={"q0"})
    assert is_bisimilar(parallel_compose(a, a), a)


def test_disjoint_shuffle_accepts_both_orders():
    a = make_auto([("p0", "a", "p1")], initial="p0", marked={"p1"})
    b = make_auto([("r0", "b", "r1")], initial="r0", marked={"r1"})
    shuffle = parallel_compose(a, b)
    assert len(shuffle.states) == 4
    assert set(marked_language_upto(shuffle, 3)) == {("a", "b"), ("b", "a")}


def test_shared_events_synchronize():
    a = make_auto([("p0", "s", "p1"), ("p0", "a", "p0")], initial="p0", marked={"p1"})
    b = make_auto([("r0", "s", "r1")], initial="r0", marked={"r1"})
    product = parallel_compose(a, b)
    assert accepts(product, ["s"])
    assert accepts(product, ["a", "s"])
    assert not product.generates(["s", "s"])


def test_compose_rejects_controllability_conflict():
    a = make_auto([("q0", "x", "q0")], controllable={"x"})
    b = make_auto([("q0", "x", "q0")])
    with pytest.raises(AlphabetConflict):
        parallel_compose(a, b)
    # a tuple operand stands for the composition, so its members must agree
    with pytest.raises(AlphabetConflict):
        is_bisimilar((a, b), a)
    with pytest.raises(AlphabetConflict):
        is_bisimilar(a, ((a,), (a, b)))


def test_compose_commutative_associative_up_to_bisim(rng):
    for _ in range(15):
        a = random_automaton(rng, max_states=4, max_events=3)
        b = random_automaton(rng, max_states=3, max_events=3)
        c = random_automaton(rng, max_states=3, max_events=2)
        ab = parallel_compose(a, b)
        ba = parallel_compose(b, a)
        assert is_bisimilar(ab, ba)
        assert is_bisimilar(parallel_compose(ab, c), parallel_compose(a, parallel_compose(b, c)))


def test_disjoint_alphabet_product_bounds(rng):
    for _ in range(10):
        a = random_automaton(rng, max_states=4, max_events=2, all_marked=True)
        b = random_automaton(rng, max_states=3, max_events=2, all_marked=True)
        b = renamed(b, {q: "B" + q for q in b.states})
        # disjoint alphabets: rename b's events
        b = Automaton.build(
            b.states,
            b.initial,
            [Event(e.id.upper(), e.controllable) for e in b.alphabet],
            [(s, e.upper(), t) for (s, e, t) in transitions(b)],
            b.marked,
        )
        product = parallel_compose(a, b)
        assert len(product.states) <= len(a.states) * len(b.states)
        ids_a = a.event_ids
        restricted = {
            tuple(e for e in s if e in ids_a)
            for s in marked_language_upto(product, 6)
        }
        lang_a = set(marked_language_upto(a, 6))
        # every product string restricted to a's alphabet is a word of a
        assert restricted <= lang_a


# -- natural projection -----------------------------------------------------


def test_project_full_alphabet_is_identity_up_to_bisim():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"})
    assert is_bisimilar(natural_project(a, a.event_ids), a)


def test_project_chain_merges_hidden_prefix():
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q2")], marked={"q2"})
    proj = natural_project(a, {"b"})
    assert proj.deterministic
    assert set(marked_language_upto(proj, 3)) == {("b",)}
    assert len([t for t in transitions(proj)]) == 1


def test_project_marks_via_closure():
    a = make_auto([("q0", "h", "q1")], marked={"q1"})
    proj = natural_project(a, set())
    assert accepts(proj, [])


def test_project_idempotent_and_deterministic(rng):
    for _ in range(15):
        a = random_automaton(rng, max_states=5, max_events=4)
        keep = {e.id for e in a.alphabet if rng.random() < 0.6}
        p1 = natural_project(a, keep)
        assert p1.deterministic
        p2 = natural_project(p1, keep)
        assert is_bisimilar(p1, p2)


def test_project_language_on_hidden_acyclic_example():
    a = make_auto(
        [("q0", "h", "q1"), ("q0", "a", "q2"), ("q1", "b", "q3"), ("q2", "b", "q0")],
        marked={"q0", "q3"},
    )
    proj = natural_project(a, {"a", "b"})
    want = {
        tuple(e for e in s if e != "h")
        for s in brute_language(a, 6)
    }
    got = {s for s in brute_language(proj, 6)}
    # hidden moves are acyclic here, so lengths only shrink
    assert got == want


def test_project_by_merging_matches_on_confluent_example():
    a = make_auto(
        [("q0", "a", "q1"), ("q1", "h", "q2"), ("q2", "c", "q2"), ("q1", "c", "q1")],
        marked={"q1", "q2"},
    )
    subset = natural_project(a, {"a", "c"})
    merged = project_by_merging(a, {"a", "c"})
    assert brute_language(subset, 5) == brute_language(merged, 5)


# -- bisimulation -----------------------------------------------------------


def test_bisim_reflexive_with_identity_relation(rng):
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q1"})
    res = is_bisimilar(a, a)
    assert res
    assert ("q0", "q0") in res.relation
    assert check_bisim_relation(a, a, res.relation)


def test_bisim_distinguishes_language_equal_pair():
    det = make_auto([("x0", "a", "x1"), ("x1", "b", "x2")], initial="x0", marked={"x2"})
    nondet = make_auto(
        [("y0", "a", "y1"), ("y0", "a", "y1d"), ("y1", "b", "y2")],
        initial="y0",
        marked={"y2"},
    )
    assert set(brute_language(det, 4)) == set(brute_language(nondet, 4))
    res = is_bisimilar(det, nondet)
    assert not res
    assert res.relation is None


def test_bisim_is_symmetric_and_transitive(rng):
    for _ in range(12):
        a = random_automaton(rng, max_states=4, max_events=3)
        twin = renamed(a, {q: "r_" + q for q in a.states})
        # duplicate a state reachable copy: still bisimilar
        dup_trans = list(transitions(a)) + [
            ("dup", e, t) for (s, e, t) in transitions(a) if s == a.initial
        ] + [(s, e, "dup") for (s, e, t) in transitions(a) if t == a.initial]
        dup = Automaton.build(
            set(a.states) | {"dup"},
            a.initial,
            a.alphabet,
            dup_trans,
            set(a.marked) | ({"dup"} if a.initial in a.marked else set()),
        )
        assert is_bisimilar(a, twin)
        assert is_bisimilar(twin, a)
        assert is_bisimilar(twin, dup)
        assert is_bisimilar(a, dup)


def test_bisim_respects_marking():
    a = make_auto([("q0", "a", "q1")], marked={"q1"})
    b = make_auto([("p0", "a", "p1")], initial="p0", marked=set())
    assert not is_bisimilar(a, b)


def test_bisimilar_implies_equal_bounded_languages(rng):
    for _ in range(10):
        a = random_automaton(rng, max_states=5, max_events=3)
        variant = renamed(a, {q: q + "_v" for q in a.states})
        res = is_bisimilar(a, variant)
        assert res
        for n in range(7):
            assert marked_language_upto(a, n) == marked_language_upto(variant, n)


def test_bisim_relation_is_valid_on_randoms(rng):
    for _ in range(10):
        a = random_automaton(rng, max_states=4, max_events=3)
        b = random_automaton(rng, max_states=4, max_events=3)
        res = is_bisimilar(a, b)
        if res:
            assert check_bisim_relation(a, b, res.relation)


def _reachable_pairs(a1, a2):
    """The state pairs that one string leads to, over single events."""
    start = (a1.initial, a2.initial)
    seen = {start}
    stack = [start]
    while stack:
        (q1, q2) = stack.pop()
        for ev in enabled(a1, q1):
            for pair in ((d1, d2) for d1 in a1.step(q1, ev) for d2 in a2.step(q2, ev)):
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return seen


def _mutated(rng, a):
    """``a`` with one transition dropped or one state's marking flipped."""
    trans = list(transitions(a))
    marked = set(a.marked)
    if trans and rng.random() < 0.5:
        trans.pop(rng.randrange(len(trans)))
    else:
        marked ^= {rng.choice(sorted(a.states))}
    return Automaton.build(a.states, a.initial, a.alphabet, trans, marked)


def test_pair_walk_decides_deterministic_pairs_as_the_oracle(monkeypatch):
    # deterministic pairs never reach the refinement: the pair walk decides
    # them, and a positive relation is the set of reachable pairs
    def refine(*args):
        raise AssertionError("a deterministic pair was refined")

    monkeypatch.setattr(automata, "_refine", refine)
    rng = random.Random(1971)
    makers = (
        lambda: random_automaton(rng, max_states=5, max_events=4, deterministic=True),
        lambda: random_automaton_with_twins(rng, max_states=4, max_events=3, deterministic=True),
        lambda: generic_automaton(rng, rng.randint(1, 6)),
    )
    seen = {"pairs": 0, "bisimilar": 0, "not bisimilar": 0, "not isomorphic": 0}
    for i in range(800):
        make = makers[i % 3]
        a = make()
        twin = renamed(a, {q: "r" + q for q in a.states})
        for other in (make(), twin, unfolded(rng, a), _mutated(rng, a)):
            assert a.deterministic and other.deterministic
            verdict = is_bisimilar(a, other)
            want = per_event_bisim(a, other)
            assert bool(verdict) == bool(want)
            # a tuple operand is walked as its composition is, names included
            product = parallel_compose(a, other)
            assert is_bisimilar((a, other), twin) == is_bisimilar(product, twin)
            assert is_bisimilar(a, (other, a)) == is_bisimilar(a, parallel_compose(other, a))
            seen["pairs"] += 1
            if not verdict:
                seen["not bisimilar"] += 1
                continue
            seen["bisimilar"] += 1
            assert check_bisim_relation(a, other, verdict.relation)
            assert verdict.relation == _reachable_pairs(a, other) <= want.relation
            seen["not isomorphic"] += len(accessible(other).states) > len(accessible(a).states)
    assert seen["pairs"] >= 3000 and min(seen.values()) > 100, seen


# -- the walk ----------------------------------------------------------------


def test_walk_queues_its_starts_first_in_order_and_each_once():
    rows = {"a": {"x": ("b",)}, "b": {"y": ("c", "a")}, "c": {}, "d": {"z": ("b", "c")}}
    parents: dict = {}
    walk = automata._walk(rows.__getitem__, ["d", "b", "d", "a"], parents)
    assert [node for (node, _) in walk] == ["d", "b", "a", "c"]
    # d reaches b, but b is a start: queued once, with no parent
    assert parents == {"d": None, "b": None, "a": None, "c": ("d", "z")}
    assert automata._path(parents, "c") == ("d", ("z",))
    assert automata._path(parents, "b") == ("b", ())


def test_path_reads_a_shortest_path_from_the_starts(rng):
    for _ in range(300):
        a = random_automaton(rng, max_states=6, max_events=3)
        rows = {q: {ev: a.step(q, ev) for ev in enabled(a, q)} for q in a.states}
        starts = rng.sample(sorted(a.states), rng.randint(1, len(a.states)))
        parents: dict = {}
        walked = [node for (node, _) in automata._walk(rows.__getitem__, starts, parents)]
        assert walked[: len(starts)] == starts
        # breadth-first levels from all starts at once
        (distance, level, k) = ({}, set(starts), 0)
        while level:
            distance.update((q, k) for q in level)
            level = {d for q in level for ds in rows[q].values() for d in ds} - distance.keys()
            k += 1
        assert set(walked) == set(parents) == set(distance)
        for node in walked:
            (start, labels) = automata._path(parents, node)
            assert start in starts and len(labels) == distance[node]
            current = {start}
            for label in labels:
                current = {d for q in current for d in rows[q].get(label, ())}
            assert node in current


# -- bounded language enumeration -------------------------------------------


def test_language_empty_string_iff_initial_marked():
    marked = make_auto([], marked={"q0"})
    unmarked = make_auto([], marked=set())
    assert marked_language_upto(marked, 0) == [()]
    assert marked_language_upto(unmarked, 0) == []


def test_language_two_state_loop():
    a = make_auto([("q0", "a", "q1"), ("q1", "a", "q0")])
    assert marked_language_upto(a, 2) == [(), ("a",), ("a", "a")]


def test_language_nondeterministic_dedupes_strings():
    a = make_auto([("q0", "a", "q1"), ("q0", "a", "q2"), ("q1", "b", "q1")],
                  marked={"q1", "q2"})
    assert marked_language_upto(a, 2) == [("a",), ("a", "b")]


def test_language_matches_brute_force(rng):
    for _ in range(20):
        a = random_automaton(rng, max_states=5, max_events=3)
        assert set(marked_language_upto(a, 5)) == brute_language(a, 5)


def test_language_budget_error():
    a = make_auto([("q0", "a", "q0"), ("q0", "b", "q0")])
    with pytest.raises(BoundTooLarge):
        marked_language_upto(a, 20, max_nodes=100)
