"""Tests of the benchmark itself: inputs, checks, metric names, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import clock, run, tracing, workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SEED = workloads.DEFAULT_SEED


@pytest.fixture(scope="module")
def pz():
    """Freshly imported polaris modules; the previous ones are put back."""
    saved = {n: m for (n, m) in sys.modules.items() if n == "polaris" or n.startswith("polaris.")}
    yield workloads.import_polaris()
    for name in [n for n in sys.modules if n == "polaris" or n.startswith("polaris.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture(scope="module")
def stored():
    return json.loads(run.DIGESTS.read_text())


def _make(pz, cls, seed=SEED):
    wl = cls(pz, seed, run.SRC, run.WORKDIR)
    wl.prepare()
    return wl


def test_mission_generator_is_deterministic():
    assert workloads.generate_missions(7) == workloads.generate_missions(7)
    assert workloads.generate_missions(7) != workloads.generate_missions(8)


@pytest.mark.parametrize("seed", range(1, 11))
def test_generated_missions_validate_and_meet_preconditions(pz, seed):
    missions = workloads.generate_missions(seed)
    assert len(missions) == workloads.MISSION_COUNT
    for (n, (key, text)) in enumerate(missions):
        assert ("crossing paths" in text) == (n % 2 == 0)
        cfg = pz.scenario.loads_scenario(text)
        assert cfg.validate() is cfg
        assert cfg.switch_times() == (workloads.T_SWITCH,)
        for f in cfg.followers:
            ((_, ox, oy), (_, nx, ny)) = f.offsets
            (px, py) = f.initial_position
            start = math.hypot(px - ox, py - oy)
            assert cfg.partition.delta_r < start < cfg.partition.r_max
            assert 8.0 <= math.hypot(nx - ox, ny - oy) <= 25.0


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == run.per_layer_metrics()
    names = [name for (name, _) in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _checked(pz, stored, wl, items):
    bench = run.Run(wl, SEED, stored, None)
    return [(item, out, bench.check(item, out)) for item in items for out in [wl.run(item)]]


def test_mission_outputs_match_stored_digests(pz, stored):
    wl = _make(pz, workloads.Mission)
    items = [wl.items[0], wl.items[-1]]
    assert items[-1].key == "bundled" and not items[-1].seeded
    for (item, out, problems) in _checked(pz, stored, wl, items):
        assert problems == []
    (result, csv, log, verdicts) = out
    bench = run.Run(wl, SEED, stored, None)
    assert bench.check(item, (result, csv + "0", log, verdicts))


def test_synthesis_output_matches_stored_digest(pz, stored):
    wl = _make(pz, workloads.Synthesis)
    [(item, (code, files), problems)] = _checked(pz, stored, wl, wl.items)
    assert code == 0 and problems == []
    files["report.txt"] += b"elapsed_s = 99.00\n"
    assert run.Run(wl, SEED + 1, stored, None).check(item, (code, files)) == []
    files["ac.aut"] += b"# changed\n"
    assert run.Run(wl, SEED + 1, stored, None).check(item, (code, files))


def test_controller_outputs_match_stored_digests(pz, stored):
    wl = _make(pz, workloads.Controllers)
    for (item, out, problems) in _checked(pz, stored, wl, wl.items[:3]):
        assert problems == []
    (mode, exit_code, valid, results) = out[1]
    out[1] = (mode, exit_code, valid, results[:-1] + [(9, 1, 0.0, 0.0)])
    assert run.Run(wl, SEED, stored, None).check(item, out)


def test_controller_digest_is_the_same_for_both_backends(pz, monkeypatch):
    compiled = pytest.importorskip("polaris.kernels._ckernel")
    wl = _make(pz, workloads.Controllers)
    digests = []
    for backend in (pz.kernels._pure, compiled):
        monkeypatch.setattr(pz.kernels, "integrate_many", backend.integrate_many)
        digests.append([wl.digest(wl.run(item)) for item in wl.items[:20]])
    assert digests[0] == digests[1]


def test_tracing_patches_every_binding_and_restores_it(pz):
    original = pz.polar.locate
    tracer = tracing.Tracer()
    with tracing.installed(tracer, pz):
        assert pz.sim.locate is pz.polar.locate is not original
        assert pz.supervision.natural_project is pz.automata.natural_project
        p = pz.polar.PolarPartition(50.0, 3, 3)
        models = pz.models.build_models(p)
        e1 = frozenset(pz.models.agent_alphabet(1, p).all_ids)
        e2 = frozenset(pz.models.agent_alphabet(2, p).all_ids)
        pz.supervision.check_decomposability(models.collision, e1, e2, n=2)
        pz.sim.locate(p, 1.0, 1.0)
    assert pz.sim.locate is original and pz.polar.locate is original
    assert tracer.calls["polar.locate"] == 1
    assert tracer.calls["automata.natural_project"] >= 2
    outer = tracer.total_s["supervision.check_decomposability"]
    inner = outer - tracer.self_s["supervision.check_decomposability"]
    assert 0.0 < inner < outer
    assert tracer.counters["automata.Automaton.step.calls"] > 0


def test_traced_run_fails_when_a_predicted_function_is_not_called(pz, stored):
    wl = _make(pz, workloads.Controllers)
    wl.items = wl.items[:2]
    wl.exercised = wl.exercised + ("sim.step",)
    with clock.Clock() as c, pytest.raises(RuntimeError, match="never called sim.step"):
        run.traced(run.Run(wl, SEED, stored, c), pz, 0.0)


def test_clock_scales_by_the_reference_loop_and_restores_sigalrm():
    import signal
    from time import perf_counter

    previous = signal.getsignal(signal.SIGALRM)
    with clock.Clock() as c:
        assert signal.getsignal(signal.SIGALRM) == c.sample
        start = perf_counter()
        mark = c.start()
        while perf_counter() - start < 0.2:
            clock.reference_loop()
        (wall, scaled) = c.stop(mark)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert c.loops >= 5
    assert 0.0 < wall < 0.25
    assert scaled / wall == pytest.approx(clock.REF_LOOP_S * c.loops / c.loop_s, rel=0.5)


def test_pass_count_depends_only_on_workload_and_seconds():
    for cls in workloads.WORKLOADS.values():
        assert run.pass_count(cls, 0.001) == 1
        assert run.pass_count(cls, 16) == round(16 / cls.pass_s)
        assert run.pass_count(cls, 16, run.TRACED_PAIR_COST) <= run.pass_count(cls, 16)
