"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from pathlib import Path

import pytest

from conftest import marked_language_upto, random_automaton, run_polaris

from polaris import kernels
from polaris.automata import (
    is_bisimilar,
    natural_project,
    parallel_compose,
)
from polaris.models import ALARM_EVENTS, agent_alphabet, build_models
from polaris.polar import (
    Mode,
    PolarPartition,
    design_controller,
    locate,
    region_bounds,
    validate_controller,
)
from polaris.scenario import parse_scenario
from polaris.sim import Mission, run_scenario
from polaris.supervision import check_controllability

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_CFG = ROOT / "src" / "polaris" / "data" / "paper_phase12.cfg"

MISSION_PARTITION = PolarPartition(50.0, 6, 9)


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_collision_supervisor_decomposability(tmp_path):
    outdir = tmp_path / "models"
    started = time.monotonic()
    build = run_polaris("build-models", "--partition", "50,6,9", "-o", str(outdir))
    check = run_polaris(
        "check-decomposable",
        str(outdir / "ac.aut"),
        "--events1", f"@{outdir / 'ac1.aut'}",
        "--events2", f"@{outdir / 'ac2.aut'}",
    )
    elapsed = time.monotonic() - started
    ok = (
        build.returncode == 0
        and check.returncode == 0
        and "decomposable: True" in check.stdout
        and "dc1: pass" in check.stdout
        and "dc2: pass" in check.stdout
        and "dc4: pass" in check.stdout
        and elapsed < 5.0
    )
    report("1 decomposability", ok, f"{elapsed:.2f} s")


def test_criterion_2_controllability():
    models = build_models(MISSION_PARTITION)
    joint = parallel_compose(models.plant1, models.plant2)
    times = []
    verdicts = []
    for spec, plant in [
        (models.formation1, models.plant1),
        (models.formation2, models.plant2),
        (models.collision, joint),
    ]:
        t0 = time.monotonic()
        verdicts.append(bool(check_controllability(spec, plant)))
        times.append(time.monotonic() - t0)
    ok = all(verdicts) and all(t < 1.0 for t in times)
    report("2 controllability", ok, f"max {max(times):.3f} s per check")


def merge_intersect(xs, ys):
    """Intersection of two (length, word)-sorted string lists."""
    out = []
    i = j = 0
    key = lambda t: (len(t), t)
    while i < len(xs) and j < len(ys):
        kx, ky = key(xs[i]), key(ys[j])
        if kx == ky:
            out.append(xs[i])
            i += 1
            j += 1
        elif kx < ky:
            i += 1
        else:
            j += 1
    return out


def test_criterion_3_closed_loop_language_equalities():
    # set equality at the bound implies equality at every smaller bound
    # because truncation filters by length; n=6 is checked explicitly below
    budget = 40_000_000
    n = 6
    models = build_models(PolarPartition(40.0, 3, 2))
    a1 = models.plant1
    af1 = models.formation1
    ac1 = models.local(1)

    kf_bar = marked_language_upto(af1, n, budget)  # prefix-closed, all marked
    lm_plant = marked_language_upto(a1, n, budget)
    single_left = marked_language_upto(parallel_compose(af1, a1), n, budget)
    single_ok = single_left == merge_intersect(kf_bar, lm_plant)
    del lm_plant, kf_bar

    k1 = single_left
    k2 = marked_language_upto(parallel_compose(ac1, a1), n, budget)
    modular_left = marked_language_upto(
        parallel_compose(parallel_compose(af1, ac1), a1), n, budget
    )
    modular_ok = modular_left == merge_intersect(k1, k2)

    rng = random.Random(99)
    random_ok = True
    for _ in range(100):
        # shared four-event alphabet: the equalities are stated over one
        # event set, private events would interleave instead of intersect
        plant = random_automaton(rng, max_states=5, max_events=4, min_events=4)
        s1 = random_automaton(rng, max_states=4, max_events=4, min_events=4,
                              all_marked=True)
        s2 = random_automaton(rng, max_states=4, max_events=4, min_events=4,
                              all_marked=True)
        for bound in (3, 6):
            left = set(marked_language_upto(parallel_compose(s1, plant), bound))
            right = set(marked_language_upto(s1, bound)) & set(
                marked_language_upto(plant, bound)
            )
            if left != right:
                random_ok = False
            mod = set(
                marked_language_upto(
                    parallel_compose(parallel_compose(s1, s2), plant), bound
                )
            )
            k2r = set(marked_language_upto(parallel_compose(s2, plant), bound))
            if mod != (left & k2r):
                random_ok = False
    ok = single_ok and modular_ok and random_ok
    report(
        "3 closed-loop language equalities",
        ok,
        f"single={single_ok} modular={modular_ok} random100={random_ok}",
    )


def test_criterion_4_decentralized_equivalence():
    t0 = time.monotonic()
    models = build_models(MISSION_PARTITION)
    p = MISSION_PARTITION
    e1 = frozenset(agent_alphabet(1, p).all_ids)
    e2 = frozenset(agent_alphabet(2, p).all_ids)
    ac = models.collision
    left = parallel_compose(
        parallel_compose(models.plant1, natural_project(ac, e1)),
        parallel_compose(models.plant2, natural_project(ac, e2)),
    )
    right = parallel_compose(ac, parallel_compose(models.plant1, models.plant2))
    verdict = is_bisimilar(left, right)
    elapsed = time.monotonic() - t0
    ok = bool(verdict) and elapsed < 10.0
    report("4 decentralized equivalence", ok, f"{elapsed:.2f} s")


def test_criterion_5_region_controllers():
    p = MISSION_PARTITION
    rng = random.Random(p.n_r * 1000 + p.n_theta)
    speed = 2.0
    dt = 0.02
    violations = []
    for idx in p.regions():
        (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, idx)
        span = th_hi - th_lo
        starts = []
        for _ in range(50):
            r = r_lo + (0.05 + 0.9 * rng.random()) * (r_hi - r_lo)
            th = th_lo + (0.05 + 0.9 * rng.random()) * span
            starts.append((r * math.cos(th), r * math.sin(th)))
        modes = [Mode.INVARIANT, Mode.EXIT_R_PLUS, Mode.EXIT_TH_PLUS, Mode.EXIT_TH_MINUS]
        if idx.i > 1:
            modes.append(Mode.EXIT_R_MINUS)
        for mode in modes:
            vc = design_controller(p, idx, mode, speed)
            if not validate_controller(p, idx, vc):
                violations.append((idx, mode, "validate"))
                continue
            if mode is Mode.INVARIANT:
                results = kernels.integrate_many(
                    r_lo, r_hi, th_lo, span, vc.flat(), starts, dt, 10_000, p.r_eps
                )
                for (code, steps, x, y) in results:
                    if code != kernels.INSIDE or steps != 10_000:
                        violations.append((idx, mode, "left the region"))
                    elif locate(p, x, y) != idx:
                        violations.append((idx, mode, "ended outside"))
            else:
                results = kernels.integrate_many(
                    r_lo, r_hi, th_lo, span, vc.flat(), starts, dt, 100_000, p.r_eps
                )
                for (code, steps, _, _) in results:
                    if code != vc.exit_code:
                        violations.append((idx, mode, f"exit code {code}"))
    report(
        "5 region controllers",
        not violations,
        f"violations={violations[:3]}",
    )


def test_criterion_6_mission_scenario():
    cfg = parse_scenario(BUNDLED_CFG)
    t0 = time.monotonic()
    result = run_scenario(cfg)
    elapsed = time.monotonic() - t0
    problems = []

    switch = cfg.switch_times()[0]
    reach1 = result.verdicts["t_reach_1"].split()
    reach2 = result.verdicts["t_reach_2"].split()
    for name, reach in (("follower1", reach1), ("follower2", reach2)):
        if reach[0] == "none" or float(reach[0]) >= switch:
            problems.append(f"{name} did not reach in phase 1")
        if reach[1] == "none" or float(reach[1]) >= cfg.t_end:
            problems.append(f"{name} did not reach after the switch")

    # phase 1: hold the first circle from first reach until the switch
    reach_t = {1: float(reach1[0]), 2: float(reach2[0])}
    for row in result.rows[1:]:
        cells = row.split(",")
        t = float(cells[0])
        if t > switch:
            break
        for k, col in ((1, 11), (2, 13)):
            if t > reach_t[k] and cells[col] != "1":
                problems.append(f"follower {k} left the first circle at t={t}")

    alarms = [r for r in result.records if r.event in ALARM_EVENTS]
    if len(alarms) != 1:
        problems.append(f"expected exactly one alarm episode, got {len(alarms)}")
    if any(r.t < switch for r in alarms):
        problems.append("alarm before the switch")

    def first_time(event, after=0.0):
        for rec in result.records:
            if rec.event == event and rec.t >= after:
                return rec.t
        return None

    t_alarm = alarms[0].t if alarms else None
    if t_alarm is not None:
        t_stop = first_time("Stop2", t_alarm)
        t_turn = first_time("Cth+1", t_alarm)
        t_release = first_time("R21", t_alarm)
        order = (
            t_stop is not None
            and t_turn is not None
            and t_release is not None
            and t_alarm <= t_stop <= t_turn <= t_release
        )
        if not order:
            problems.append(
                f"stop/turn/release out of order: {t_alarm} {t_stop} {t_turn} {t_release}"
            )

    min_sep = float(result.verdicts["min_separation"].split()[0])
    if not min_sep > 0.5 * cfg.alarm_radius:
        problems.append(f"min separation {min_sep} below {0.5 * cfg.alarm_radius}")

    mission = Mission(cfg)
    for k in (1, 2):
        loop = mission.models.agent_loop(k)
        for segment in result.agent_event_segments(k, mission.alphabet(k)):
            if not loop.generates(segment):
                problems.append(f"agent {k} log segment not in the closed-loop language")

    if elapsed >= 30.0:
        problems.append(f"run took {elapsed:.1f} s")
    report("6 mission scenario", not problems, "; ".join(problems) or f"{elapsed:.2f} s")


def test_criterion_7_simulation_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    r1 = run_polaris("simulate", "--scenario", str(BUNDLED_CFG), "-o", str(out1))
    r2 = run_polaris("simulate", "--scenario", str(BUNDLED_CFG), "-o", str(out2))
    ok = r1.returncode == 0 and r2.returncode == 0
    identical = []
    for name in ("trajectory.csv", "events.log", "verdicts.txt", "controllers.txt"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        identical.append(b1 == b2)
    ok = ok and all(identical)
    report("7 determinism", ok, "byte-identical outputs")
