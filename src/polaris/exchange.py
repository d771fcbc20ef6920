"""Line-based text exchange format for automata.

Sections (one directive per line, ``#`` starts a comment)::

    states: s0 s1
    initial: s0
    marked: s0
    controllable: e1 e2
    uncontrollable: d11
    owners: e1=1 stop2=1,2
    trans: s0 e1 s1

Tokens are whitespace separated and must match ``[A-Za-z0-9_+\\-]+``.
:func:`dumps` emits a canonical ordering (states sorted, transitions sorted
by source/event/target) so that writing a canonically ordered file back out
is byte-identical.  State names produced by composition or projection may
contain characters outside the token set; the writer deterministically
renames those as it prints them (``q000``, ``q001``, ... in sorted order),
which preserves all languages and bisimilarity.  It walks the class index
source by source and sorts only each source's (event, target) pairs.  The
``controllable:``, ``uncontrollable:`` and ``owners:`` lines depend only on
the alphabet, and are made once per alphabet of a model set.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .automata import Automaton, Event, _Universe
from .errors import InvalidToken, ParseError, _read_text

TOKEN_RE = re.compile(r"^[A-Za-z0-9_+\-]+\Z")
_TOKENS_RE = re.compile(r"[A-Za-z0-9_+\-]+(?: [A-Za-z0-9_+\-]+)*\Z")

_SECTIONS = ("states", "initial", "marked", "controllable", "uncontrollable", "owners", "trans")


def _safe_names(states) -> dict:
    """Map state names onto the token charset, renaming only when needed."""
    bad = sorted(q for q in states if not TOKEN_RE.match(q))
    if not bad:
        return {}
    taken = set(states) - set(bad)
    mapping = {}
    counter = 0
    for q in bad:
        while True:
            candidate = f"q{counter:03d}"
            counter += 1
            if candidate not in taken:
                break
        taken.add(candidate)
        mapping[q] = candidate
    return mapping


def _joined(ids: list) -> str:
    """``ids`` joined by spaces, or None when one is not a token: the line
    must be tokens split by single spaces, one space fewer than the ids."""
    line = " ".join(ids)
    if ids and not (_TOKENS_RE.match(line) and line.count(" ") == len(ids) - 1):
        return None
    return line


@lru_cache(maxsize=3)
def _alphabet_lines(universe: _Universe, kinds: frozenset) -> str:
    """The ``controllable:``, ``uncontrollable:`` and ``owners:`` lines of
    the alphabet whose (kind, mask) pairs are ``kinds``, over ``universe``.

    Kept per universe object and kinds, for the three alphabets of a model
    set (each agent's and both agents'), so the models of one set, which
    share a universe, make each alphabet's lines once; a universe made
    later, even of the same ids, makes its own.
    """
    ids_of = universe.ids_of
    (controllable, uncontrollable) = (
        _joined(ids_of(sum(m for ((c, _), m) in kinds if c == flag))) for flag in (True, False)
    )
    if controllable is None or uncontrollable is None:
        bad = next(ev for ev in ids_of(sum(m for (_, m) in kinds)) if not TOKEN_RE.match(ev))
        raise InvalidToken(f"event id {bad!r} is not a valid token")
    lines = ["controllable: " + controllable, "uncontrollable: " + uncontrollable]
    tag_of: dict = {}
    for ((_, owners), m) in kinds:
        if owners:
            tag_of.update(dict.fromkeys(ids_of(m), "=" + ",".join(map(str, sorted(owners)))))
    if tag_of:
        owned = ids_of(sum(m for ((_, owners), m) in kinds if owners))
        lines.append("owners: " + " ".join([ev + tag_of[ev] for ev in owned]))
    return "\n".join(lines)


def dumps(a: Automaton) -> str:
    """The canonical text of ``a``, written by walking its class index."""
    mapping = _safe_names(a.states)
    name = {q: mapping.get(q, q) for q in a.states}
    lines = [
        "states: " + " ".join(sorted(name.values())),
        "initial: " + name[a.initial],
        "marked: " + " ".join(sorted(name[q] for q in a.marked)),
        _alphabet_lines(a._sigma.universe, frozenset(a._sigma.kinds.items())),
    ]
    # a space sorts below every token character, so sorting one source's
    # lines sorts its (event, target) pairs.  The lines of one class and
    # target are made by one join, split at the newlines that no token
    # or written state name holds
    (succ, members) = (a._succ, a._members)
    for q in sorted(succ, key=name.__getitem__):
        head = f"trans: {name[q]} "
        row = []
        for c, ds in succ[q].items():
            evs = members[c]
            for d in ds:
                tail = " " + name[d]
                if len(evs) == 1:
                    row.append(head + evs[0] + tail)
                else:
                    row += (head + (tail + "\n" + head).join(evs) + tail).split("\n")
        row.sort()
        lines += row
    return "\n".join(lines) + "\n"


def loads(text: str, path=None) -> Automaton:
    lists: dict = {"states": [], "marked": [], "controllable": [], "uncontrollable": []}
    initial = None
    owners: dict = {}
    transitions: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"missing ':' in {raw!r}", path, lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        tokens = rest.split()
        if key not in _SECTIONS:
            raise ParseError(f"unknown section {key!r}", path, lineno)
        if key == "owners":
            for tok in tokens:
                if "=" not in tok:
                    raise ParseError(f"bad owners entry {tok!r}", path, lineno)
                ev, _, tag_text = tok.partition("=")
                _check_token(ev, path, lineno)
                if ev in owners:
                    raise ParseError(f"owners given twice for {ev!r}", path, lineno)
                tags = set(tag_text.split(","))
                if not tags <= {"1", "2"}:
                    raise ParseError(f"owner tags must be 1 or 2 in {tok!r}", path, lineno)
                owners[ev] = frozenset(map(int, tags))
            continue
        _check_tokens(tokens, path, lineno)
        if key in lists:
            lists[key].extend(tokens)
        elif key == "initial":
            if len(tokens) != 1:
                raise ParseError("initial takes exactly one state", path, lineno)
            if initial is not None:
                raise ParseError("'initial:' given twice", path, lineno)
            initial = tokens[0]
        elif key == "trans":
            if len(tokens) != 3:
                raise ParseError("trans takes 'src event dst'", path, lineno)
            transitions.append((tokens[0], tokens[1], tokens[2]))

    (states, marked, controllable, uncontrollable) = lists.values()
    if initial is None:
        raise ParseError("missing 'initial:' section", path)
    if not states:
        raise ParseError("missing 'states:' section", path)
    overlap = set(controllable) & set(uncontrollable)
    if overlap:
        raise ParseError(f"events both controllable and uncontrollable: {sorted(overlap)}", path)
    undeclared = set(owners).difference(controllable, uncontrollable)
    if undeclared:
        raise ParseError(f"owners given for undeclared events: {sorted(undeclared)}", path)
    alphabet = [
        Event(ev, True, owners.get(ev, frozenset())) for ev in dict.fromkeys(controllable)
    ] + [
        Event(ev, False, owners.get(ev, frozenset())) for ev in dict.fromkeys(uncontrollable)
    ]
    try:
        return Automaton.build(states, initial, alphabet, transitions, marked)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _check_token(tok: str, path, lineno):
    if not TOKEN_RE.match(tok):
        raise ParseError(f"invalid token {tok!r}", path, lineno)


def _check_tokens(tokens, path, lineno):
    for tok in tokens:
        _check_token(tok, path, lineno)


def write(a: Automaton, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(a))


def read(path) -> Automaton:
    return loads(_read_text(path), path=path)
