"""Seeded mutations of the ``.aut`` files that ``build-models`` writes, run
through every command that reads them, and of the bundled ``.cfg``, run
through ``simulate``: the exit code is 0, 1 or 2, exit 2 comes with an
``error: `` line on stderr, and no exception escapes."""

import math
import random
from collections import Counter

import pytest

from polaris import exchange
from polaris.errors import Infeasible, OutsideRegion, PolarisError
from polaris.automata import parallel_compose
from polaris.cli import main
from polaris.models import build_models
from polaris.polar import Mode, PolarPartition, design_controller, eval_control, region_bounds
from polaris.scenario import parse_scenario

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


def test_missing_inputs_exit_2_naming_the_path_once(originals, tmp_path, capsys):
    # one seeded input of each command is missing: the error names its
    # path once, not once more inside the operating system's message
    rng = random.Random(19)
    runs = {
        command: (argv, sorted({name for name in originals if f"{{{name}}}" in " ".join(argv)}))
        for (command, argv) in COMMANDS.items()
    }
    runs["simulate"] = (["simulate", "--scenario", "{cfg}", "-o", "{out}"], ["cfg"])
    for (command, (argv, names)) in sorted(runs.items()):
        folder = tmp_path / command
        folder.mkdir()
        missing = rng.choice(names)
        paths = {name: folder / f"{name}.{'cfg' if name == 'cfg' else 'aut'}" for name in names}
        for name in names:
            if name != missing:
                paths[name].write_text(originals[name], encoding="utf-8")
        paths["out"] = folder / "out"
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[missing]}: "), (command, err)
        assert err.count(str(paths[missing])) == 1, (command, err)


def test_eval_control_rejects_non_finite_points():
    # a point with a NaN or infinite coordinate lies in no region, so
    # eval_control raises OutsideRegion rather than return a velocity
    rng = random.Random(19)
    p = PolarPartition(50.0, 6, 9)
    regions = list(p.regions())
    checked = Counter()
    for _ in range(300):
        idx = rng.choice(regions)
        try:
            vc = design_controller(p, idx, rng.choice(list(Mode)), 2.0)
        except Infeasible:
            continue
        (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, idx)
        (r, th) = (rng.uniform(r_lo, r_hi), rng.uniform(th_lo, th_hi))
        point = [r * math.cos(th), r * math.sin(th)]
        for k in rng.sample((0, 1), rng.randint(1, 2)):
            point[k] = rng.choice((math.nan, math.nan, math.inf, -math.inf))
        with pytest.raises(OutsideRegion):
            eval_control(p, idx, vc, *point)
        checked["nan" if math.isnan(sum(point)) else "inf"] += 1
    assert min(checked.values()) > 50, checked


# .cfg mutations run through simulate: the bundled mission cut to 2 s
CFG_CASES = 1000
BUNDLED_CFG = "src/polaris/data/paper_phase12.cfg"
EDGE_VALUES = ("nan", "inf", "-inf", "5e-324", "1e308", "-0", "0")
JUNK_VALUES = ("", "abc", "1,2", "0x10", "1e", "--1")
BAD_SCHEDULES = ("0:1.0", "0:1,2,3", "x:1,2", "5:1,2 0:3,4", "0:1,2 0:3,4", ":", "0:", "0:,",
                 "0:1,2 -1:3,4", "1:1,2", "0:nan,1", "0:1,2 1e308:3,4")
NON_UTF8 = (b"\xff", b"\xc3\x28", b"\x80abc", b"\xed\xa0\x80")
CFG_KINDS = ("edge value", "junk value", "schedule", "duplicate key", "non-UTF-8")
# the first cases: keys set to extremes that validation or the run must
# handle; the two u_max runs reach the quiet loop's clamp pre-test, and the
# last puts both followers at the center of a partition whose radial step
# and radius floor underflow, so that no horizon test rejects it first
EXTREMES = (
    (("sim.u_max", "1e308"),), (("sim.u_max", "5e-324"),), (("sim.t_end", "1e308"),),
    (("sim.dt", "5e-324"),), (("partition.r_max", "1e308"),), (("partition.r_max", "5e-324"),),
    (("partition.r_max", "5e-324"),
     ("follower1.initial_position", "0,0"), ("follower1.offsets", "0:0,0"),
     ("follower2.initial_position", "0,0"), ("follower2.offsets", "0:0,0")),
)
# skipped before running: a config with more steps or regions than these
MAX_STEPS = 20_000
MAX_REGIONS = 5_000


def mutate_cfg(rng, lines, kinds) -> list:
    """``lines`` of a cfg with one seeded edit of a value or a schedule,
    or with one key line duplicated; its kind is counted."""
    lines = list(lines)
    keyed = [i for (i, line) in enumerate(lines) if "=" in line and not line.startswith("#")]
    kind = rng.choice(CFG_KINDS[:4])
    kinds[kind] += 1
    i = rng.choice(keyed)
    key = lines[i].split("=")[0].strip()
    if kind == "schedule":
        key = rng.choice(("leader.velocity", "follower1.offsets", "follower2.offsets"))
        i = next(j for j in keyed if lines[j].split("=")[0].strip() == key)
        lines[i] = f"{key} = {rng.choice(BAD_SCHEDULES)}"
    elif kind == "duplicate key":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    else:
        value = rng.choice(EDGE_VALUES if kind == "edge value" else JUNK_VALUES)
        if "," in lines[i] and rng.random() < 0.5:  # the last coordinate of a pair
            lines[i] = f"{lines[i].rsplit(',', 1)[0]},{value}"
        else:
            lines[i] = f"{key} = {value}"
    return lines


def test_mutated_cfg_inputs_exit_0_1_or_2(tmp_path, capsys):
    # simulate on seeded mutations of the bundled .cfg: the exit code is
    # 0, 1 or 2, exit 2 prints an error line, and no exception escapes.
    # The two u_max extremes, which the quiet loop's clamp pre-test must
    # send to hypot, complete.
    with open(BUNDLED_CFG, encoding="utf-8") as f:
        lines = f.read().replace("sim.t_end = 150", "sim.t_end = 2").splitlines()
    rng = random.Random(30)
    (codes, kinds, skips) = (Counter(), Counter(), 0)
    path = tmp_path / "mission.cfg"
    for n in range(CFG_CASES):
        if n < len(EXTREMES):
            mutated = lines
            for (key, value) in EXTREMES[n]:
                mutated = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                           for line in mutated]
        else:
            mutated = lines
            for _ in range(rng.choice((1, 1, 2))):
                mutated = mutate_cfg(rng, mutated, kinds)
        data = ("\n".join(mutated) + "\n").encode("utf-8")
        if n >= len(EXTREMES) and rng.random() < 0.2:
            kinds["non-UTF-8"] += 1
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(NON_UTF8) + data[at:]
        path.write_bytes(data)
        try:
            cfg = parse_scenario(path)
        except PolarisError:
            pass
        else:
            # a step count that is not finite is not skipped: the run
            # must reject it
            steps = cfg.t_end / cfg.dt
            p = cfg.partition
            if ((math.isfinite(steps) and round(steps) > MAX_STEPS)
                    or (p.n_r - 1) * (p.n_theta - 1) > MAX_REGIONS):
                skips += 1
                continue
        code = main(["simulate", "--scenario", str(path), "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code in (0, 1, 2) and (n >= 2 or code == 0), (data, captured.err)
        if code == 2:
            # an error in the file names it; a run that failed after its
            # start reports where it stopped instead
            assert captured.err.startswith("error: "), (data, captured.err)
            stopped = captured.err.split("\n")[1].startswith("  at t=")
            assert stopped or captured.err.startswith(f"error: {path}"), (data, captured.err)
            codes["2 after the start"] += stopped
        codes[code] += 1
    print(f"{skips} of {CFG_CASES} mutated configs skipped for their size")
    assert codes[0] >= 30 and codes[2] >= 500 and codes["2 after the start"] >= 1, codes
    assert set(kinds) == set(CFG_KINDS)


def test_a_one_sector_partition_is_rejected_at_its_line(tmp_path, capsys):
    # a single sector has no angular facet: the bundled mission's first
    # avoidance turn would stop the run with an error that names no file
    with open(BUNDLED_CFG, encoding="utf-8") as f:
        lines = f.read().splitlines()
    lineno = next(n for (n, line) in enumerate(lines, start=1)
                  if line.startswith("partition.n_theta ="))
    lines[lineno - 1] = "partition.n_theta = 2"
    path = tmp_path / "mission.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(path), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}:{lineno}: partition.n_theta "), captured.err
    assert not out.exists()
