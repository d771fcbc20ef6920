import random

import pytest

from conftest import dumps_by_triples, make_auto, renamed

from polaris import exchange
from polaris.automata import Automaton, Event, is_bisimilar, natural_project, parallel_compose
from polaris.errors import InvalidToken, ParseError

SAMPLE = """\
# a small plant
states: O1 R1
initial: R1
marked: R1
controllable: c1
uncontrollable: d11
owners: c1=1 d11=1
trans: O1 d11 R1
trans: R1 c1 O1
"""


def test_round_trip_is_byte_identical_for_canonical_files():
    a = exchange.loads(SAMPLE)
    text = exchange.dumps(a)
    # SAMPLE is canonically ordered except for its comment line
    assert exchange.dumps(exchange.loads(text)) == text
    assert text == "\n".join(SAMPLE.splitlines()[1:]) + "\n"


def test_reader_tolerates_comments_blank_lines_and_order():
    shuffled = """
trans: R1 c1 O1

initial: R1
marked: R1   # the ready state
states: R1 O1
uncontrollable: d11
trans: O1 d11 R1
controllable: c1
"""
    a = exchange.loads(shuffled)
    assert a.initial == "R1"
    assert a.step1("R1", "c1") == "O1"


def test_owner_tags_round_trip():
    a = exchange.loads(SAMPLE)
    assert [e.owners for e in a.alphabet if e.id == "c1"] == [frozenset({1})]
    b = exchange.loads(exchange.dumps(a))
    assert b.alphabet == a.alphabet


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("states: a\nmarked:\n", "initial"),
        ("initial: a\nmarked:\n", "states"),
        ("states: a b\ninitial: a\ntrans: a ? b\n", "invalid token"),
        ("states: a\ninitial: a\nbogus: x\n", "unknown section"),
        ("states: a\ninitial: a\ntrans: a e\n", "trans takes"),
        ("states: a\ninitial: a\ncontrollable: e\nuncontrollable: e\n", "both"),
        ("states: a\ninitial: a b\n", "exactly one"),
        ("states: a\ninitial: a\nowners: e\n", "owners"),
        ("states: a\ninitial: a\ncontrollable: e\nowners: e=1 f=2\n", "undeclared events"),
        ("states: a\ninitial: a\ncontrollable: e\nowners: e=1\nowners: e=2\n", "owners given twice"),
        ("states: a\ninitial: a\ncontrollable: e\nowners: e=0,7\n", "must be 1 or 2"),
        ("states: a b\ninitial: a\ninitial: b\n", "'initial:' given twice"),
        ("states: a\ninitial a\n", "missing ':'"),
        ("states: a\ninitial: a\ncontrollable: e\ntrans: a e zz\n", "unknown endpoint"),
    ],
)
def test_reader_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        exchange.loads(text)
    assert fragment in str(err.value)


def test_writer_renames_composite_state_names():
    a = make_auto([("q0", "a", "q1")], marked={"q1"})
    b = make_auto([("p0", "b", "p1")], initial="p0", marked={"p1"})
    product = parallel_compose(a, b)
    text = exchange.dumps(product)
    reread = exchange.loads(text)
    assert is_bisimilar(reread, product)
    assert all(not q.startswith("⟨") for q in reread.states)


def test_writer_renames_subset_state_names():
    a = make_auto([("q0", "h", "q1"), ("q1", "b", "q2")], marked={"q2"})
    proj = natural_project(a, {"b"})
    reread = exchange.loads(exchange.dumps(proj))
    assert is_bisimilar(reread, proj)


def test_file_io_round_trip(tmp_path):
    a = exchange.loads(SAMPLE)
    path = tmp_path / "plant.aut"
    exchange.write(a, path)
    assert exchange.read(path) == a


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        exchange.read(tmp_path / "nope.aut")


def test_writer_rejects_an_event_id_that_is_not_a_token():
    # a final newline is outside the token set too
    for event in ("e?", "go\n"):
        a = make_auto([("q0", event, "q1")])
        with pytest.raises(InvalidToken, match="not a valid token"):
            exchange.dumps(a)


def test_writer_renames_a_state_name_with_a_final_newline():
    a = make_auto([("s0\n", "go", "s1")], initial="s0\n", marked={"s1"})
    reread = exchange.loads(exchange.dumps(a))
    assert reread.states == {"q000", "s1"}
    assert is_bisimilar(reread, a)


# token-safe names, ``q000``/``q001`` among them so the renamer skips them,
# and names from composition and projection that it must rename
_STATE_NAMES = ("s", "s0", "s1", "R1", "q000", "q001", "⟨q0,q1⟩", "⟨s0,R1⟩", "{a,b}", "{}", "x y")
_OWNER_SETS = ((), (1,), (2,), (1, 2))


def test_dumps_matches_the_per_triple_writer_on_random_automata():
    rng = random.Random(2102)
    seen = {"renamed": 0, "nondeterministic": 0, "unused event": 0}
    seen.update({owners: 0 for owners in _OWNER_SETS})
    for _ in range(1200):
        states = rng.sample(_STATE_NAMES, rng.randint(1, 6))
        events = [
            Event(f"e{i}", rng.random() < 0.5, rng.choice(_OWNER_SETS))
            for i in rng.sample(range(12), rng.randint(1, 6))
        ]
        trans = [
            (q, ev.id, d)
            for q in states for ev in events for d in states
            if rng.random() < 0.7 / len(states)
        ]
        marked = [q for q in states if rng.random() < 0.5]
        a = Automaton.build(states, rng.choice(states), events, trans, marked)
        text = exchange.dumps(a)
        assert text == dumps_by_triples(a)
        mapping = exchange._safe_names(a.states)
        assert exchange.loads(text) == (renamed(a, mapping) if mapping else a)
        seen["renamed"] += bool(mapping)
        seen["nondeterministic"] += not a.deterministic
        seen["unused event"] += len(events) > len({ev for (_, ev, _) in trans})
        for ev in events:
            seen[tuple(sorted(ev.owners))] += 1
    assert min(seen.values()) > 50, seen
