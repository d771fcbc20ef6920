"""Seeded mutations of the ``.aut`` files that ``build-models`` writes, run
through every command that reads them: the exit code is 0, 1 or 2, exit 2
comes with an ``error: `` line on stderr, and no exception escapes."""

import random
from collections import Counter

import pytest

from polaris import exchange
from polaris.automata import parallel_compose
from polaris.cli import main
from polaris.models import build_models
from polaris.polar import PolarPartition

CASES = 600
KINDS = ("drop", "duplicate", "truncate", "bad token", "unknown name")
BAD_TOKENS = ("b@d", "⟨q0,q1⟩", "=", "x=3", "=1", "1,2", "é", ":", "#", "a\x00b")

# each command's argv over named inputs; every input is one .aut file
COMMANDS = {
    "bisim": ["bisim", "{ac1}", "{ac2}"],
    "check-controllable": ["check-controllable", "--plant", "{a1}", "--spec", "{af1}"],
    "check-decomposable": [
        "check-decomposable", "{ac}", "--events1", "@{ac1}", "--events2", "@{ac2}",
    ],
    "verify-theorem1": [
        "verify-theorem1", "--plant1", "{a1}", "--plant2", "{a2}",
        "--controller", "{ac}", "--spec", "{spec}",
    ],
}


@pytest.fixture(scope="module")
def originals():
    """The texts of the 50,3,3 model files and of the spec ac || (a1 || a2)."""
    models = build_models(PolarPartition(50.0, 3, 3))
    autos = {
        "a1": models.plant1, "a2": models.plant2, "af1": models.formation1,
        "ac": models.collision, "ac1": models.local(1), "ac2": models.local(2),
        "spec": parallel_compose(models.collision, parallel_compose(models.plant1, models.plant2)),
    }
    return {name: exchange.dumps(auto) for (name, auto) in autos.items()}


def mutate(rng, text, kinds):
    """``text`` with one seeded line-level mutation; its kind is counted."""
    lines = text.splitlines()
    kind = rng.choice(KINDS)
    kinds[kind] += 1
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]))]
    else:
        tokens = lines[i].split()
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(BAD_TOKENS) if kind == "bad token" else "zz" + tokens[j]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_aut_inputs_exit_0_1_or_2(originals, tmp_path, capsys):
    rng = random.Random(15)
    (codes, kinds) = (Counter(), Counter())
    for _ in range(CASES):
        command = rng.choice(sorted(COMMANDS))
        argv = COMMANDS[command]
        names = sorted({name for name in originals if f"{{{name}}}" in " ".join(argv)})
        texts = {name: originals[name] for name in names}
        target = rng.choice(names)
        for _ in range(rng.randint(1, 3)):
            texts[target] = mutate(rng, texts[target], kinds)
        paths = {}
        for (name, text) in texts.items():
            paths[name] = tmp_path / f"{name}.aut"
            paths[name].write_text(text, encoding="utf-8")
        case = [arg.format(**paths) for arg in argv]
        code = main(case)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (case, texts[target])
        if code == 2:
            assert captured.err.startswith("error: "), (case, captured.err)
        codes[(command, code)] += 1
    # every command met input it gave a verdict on and input it rejected
    for command in COMMANDS:
        assert codes[(command, 2)] > 0 and codes[(command, 0)] + codes[(command, 1)] > 0, codes
    assert set(kinds) == set(KINDS)
