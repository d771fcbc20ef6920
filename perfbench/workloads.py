"""The three benchmark workloads: their inputs, one operation, its checks.

Each workload class is constructed from freshly imported polaris modules
and the seed; construction is the set-up the benchmark times.  ``items`` is
one pass of operations.  ``prepare`` builds the checking oracles once,
``reset`` runs untimed before each operation, ``run`` performs one
operation and is the only timed call, and ``check`` and ``digest`` inspect
its output afterwards.

An item whose ``seeded`` flag is false produces the same output at every
seed, so its stored digest is checked on every run; the digests of seeded
items are stored for :data:`DEFAULT_SEED` only.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

MODULES = (
    "automata", "supervision", "models", "exchange", "polar",
    "kernels", "sim", "scenario", "cli",
)

DEFAULT_SEED = 1

# -- mission inputs -------------------------------------------------------

MISSION_COUNT = 12
T_SWITCH = 40.0

MISSION_HEADER = """\
partition.r_max = 50
partition.n_r = 21
partition.n_theta = 9
sim.dt = 0.02
sim.t_end = 75
sim.u_max = 5
sim.speed = 2
avoid.alarm_radius = 8
avoid.release_radius = 12
avoid.front_half_angle_deg = 60
"""


@dataclass(frozen=True)
class Item:
    key: str
    data: object
    seeded: bool


def import_polaris() -> SimpleNamespace:
    """Import the polaris modules afresh and return them by short name.

    Dropping the cached modules first makes every set-up pay for the
    imports, so set-up time can be measured more than once per process.
    """
    for name in [n for n in sys.modules if n == "polaris" or n.startswith("polaris.")]:
        del sys.modules[name]
    pz = SimpleNamespace(**{m: importlib.import_module(f"polaris.{m}") for m in MODULES})
    pz.errors = importlib.import_module("polaris.errors")
    return pz


def _polar(r: float, angle: float) -> tuple:
    return (r * math.cos(angle), r * math.sin(angle))


def _add(p: tuple, q: tuple) -> tuple:
    return (p[0] + q[0], p[1] + q[1])


def _dist(p: tuple, q: tuple) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _pair(p: tuple) -> str:
    return f"{p[0]:.3f},{p[1]:.3f}"


def _mission_text(rng: random.Random, label: str, crossing: bool) -> str:
    """One two-phase mission as scenario text.

    Phase-1 offsets are at least 16 m apart and the relative start radius
    lies in [6, 43.5] m, inside r_max and outside ring 1.  A crossing
    mission starts the followers at nearly equal distances before a common
    point of their straight approach paths, which cross at 100 to 150
    degrees, so they meet there within the alarm radius.  The phase-2
    offsets move each formation position by 8 to 25 m, so the relative
    position after the switch is again outside ring 1 and inside r_max.
    """
    if crossing:
        meet = (rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        a1 = rng.uniform(0.0, 2.0 * math.pi)
        a2 = a1 + rng.choice((-1.0, 1.0)) * math.radians(rng.uniform(100.0, 150.0))
        d1 = rng.uniform(18.0, 26.0)
        d2 = d1 + rng.uniform(-1.5, 1.5)
        offsets, starts = [], []
        for (angle, d) in ((a1, d1), (a2, d2)):
            length = rng.uniform(11.0, 16.0)
            offsets.append(_add(meet, _polar(length, angle)))
            starts.append(_add(meet, _polar(-d, angle)))
    else:
        b = rng.uniform(0.0, 2.0 * math.pi)
        offsets = [
            _polar(rng.uniform(10.0, 16.0), b),
            _polar(rng.uniform(10.0, 16.0), b + math.pi + rng.uniform(-0.5, 0.5)),
        ]
        starts = [
            _add(off, _polar(rng.uniform(6.0, 40.0), rng.uniform(0.0, 2.0 * math.pi)))
            for off in offsets
        ]
    while True:
        moved = [
            _add(off, _polar(rng.uniform(8.0, 25.0), rng.uniform(0.0, 2.0 * math.pi)))
            for off in offsets
        ]
        if _dist(moved[0], moved[1]) >= 16.0:
            break
    leader = " ".join(
        f"{t:g}:{rng.uniform(0.5, 1.5):.3f},{rng.uniform(-0.5, 0.5):.3f}" for t in (0.0, 20.0)
    )
    lines = [f"# {label}{' (crossing paths)' if crossing else ''}", MISSION_HEADER.rstrip()]
    lines.append(f"leader.velocity = {leader}")
    for k in (1, 2):
        lines.append(f"follower{k}.initial_position = {_pair(starts[k - 1])}")
        lines.append(
            f"follower{k}.offsets = 0:{_pair(offsets[k - 1])} "
            f"{T_SWITCH:g}:{_pair(moved[k - 1])}"
        )
    return "\n".join(lines) + "\n"


def generate_missions(seed: int, count: int = MISSION_COUNT) -> list:
    """Scenario texts of ``count`` missions; even-numbered ones cross."""
    rng = random.Random(seed)
    return [
        (f"gen-{i:02d}", _mission_text(rng, f"gen-{i:02d} seed {seed}", i % 2 == 0))
        for i in range(count)
    ]


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class Workload:
    """Defaults for the hooks a workload may leave out."""

    work_metric = None  # (name, unit) of the work rate, when there is one
    #: Reference-speed seconds of one pass's operations at the default seed,
    #: measured when the benchmark was written; it sizes the fixed number
    #: of passes a run makes (``run.pass_count``).
    pass_s = 1.0

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def work(self, out) -> int:
        return 0


class Mission(Workload):
    """Closed-loop missions on the bundled 21x9 partition.

    An operation parses one scenario text and runs it, formatting the
    trajectory CSV, event log and verdicts as ``simulate`` writes them.
    """

    name = "mission"
    work_metric = ("sim_steps_per_s", "steps/s")
    pass_s = 3.7
    exercised = (
        "scenario.loads_scenario", "sim.run_scenario", "sim.step",
        "sim.detect_events", "sim.supervisor_react", "polar.locate",
        "kernels.eval_cell", "models.build_models",
        "automata.Automaton.step", "automata.Automaton.event_ids",
    )

    def __init__(self, pz, seed: int, src: Path, workdir: Path):
        self.pz = pz
        bundled = (src / "polaris" / "data" / "paper_phase12.cfg").read_text(encoding="utf-8")
        self.items = [Item(key, text, True) for (key, text) in generate_missions(seed)]
        self.items.append(Item("bundled", bundled, False))
        cfgs = [pz.scenario.loads_scenario(item.data) for item in self.items]
        self.models = pz.models.build_models(cfgs[-1].partition)
        for (partition, speed, kappa) in {(c.partition, c.speed, c.kappa) for c in cfgs}:
            _warm_controllers(pz, partition, speed, kappa)

    def prepare(self) -> None:
        self.loops = {k: self.models.agent_loop(k) for k in (1, 2)}

    def run(self, item: Item):
        cfg = self.pz.scenario.loads_scenario(item.data)
        result = self.pz.sim.run_scenario(cfg)
        return (result, result.csv_text(), result.log_text(), result.verdicts_text())

    def check(self, item: Item, out) -> list:
        result = out[0]
        problems = []
        for k in (1, 2):
            segments = result.agent_event_segments(k, self.models.alphabet(k))
            for (n, segment) in enumerate(segments):
                if not self.loops[k].generates(segment):
                    problems.append(f"agent {k} log segment {n} not generated by agent_loop({k})")
        return problems

    def digest(self, out) -> str:
        return _sha256(*out[1:])

    def work(self, out) -> int:
        return len(out[0].rows) - 1


def _warm_controllers(pz, partition, speed, kappa) -> None:
    for region in partition.regions():
        for mode in pz.polar.Mode:
            try:
                pz.polar.cached_controller(partition, region, mode, speed, kappa)
            except pz.errors.Infeasible:
                pass


class Synthesis(Workload):
    """The ``build-models`` pipeline at partition 50,9,13 through cli.main.

    The pipeline is deterministic, so the seed is unused.
    """

    name = "synthesis"
    pass_s = 5.2
    partition = (50.0, 9, 13)
    verdicts = (
        "controllable_formation_1", "controllable_formation_2",
        "controllable_collision", "decomposable_collision",
        "decentralized_equivalent", "mission_nonblocking",
    )
    exercised = (
        "cli.main", "models.build_models", "automata.parallel_compose",
        "automata.natural_project", "automata.is_bisimilar", "automata.accessible",
        "automata.Automaton.build", "supervision.check_decomposability",
        "supervision.check_controllability", "supervision.verify_decentralized",
        "supervision.is_nonblocking", "exchange.write",
    )

    def __init__(self, pz, seed: int, src: Path, workdir: Path):
        self.pz = pz
        self.workdir = workdir
        # kept before tracing replaces the name with a wrapper
        self.build_models = pz.models.build_models
        self.build_models(pz.polar.PolarPartition(*self.partition))
        self.items = [Item("pipeline", None, False)]

    def reset(self) -> None:
        """Drop the cached models, so that every pipeline builds them."""
        self.build_models.cache_clear()

    def run(self, item: Item):
        outdir = Path(tempfile.mkdtemp(prefix="models-", dir=self.workdir))
        try:
            with redirect_stdout(io.StringIO()):
                code = self.pz.cli.main(
                    ["build-models", "--partition", "{:g},{},{}".format(*self.partition),
                     "-o", str(outdir)]
                )
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        finally:
            shutil.rmtree(outdir)
        return (code, files)

    def check(self, item: Item, out) -> list:
        (code, files) = out
        problems = [] if code == 0 else [f"build-models exited with {code}"]
        report = dict(
            line.split(" = ", 1)
            for line in files.get("report.txt", b"").decode("utf-8").splitlines()
        )
        for key in self.verdicts:
            if report.get(key) != "True":
                problems.append(f"{key} = {report.get(key)}")
        return problems

    def digest(self, out) -> str:
        parts = []
        for (name, data) in sorted(out[1].items()):
            if name == "report.txt":
                data = b"".join(
                    line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"elapsed_s = ")
                )
            parts += [name, data]
        return _sha256(*parts)


class Controllers(Workload):
    """Design, validation and integration of every region controller.

    An operation covers one region of the 21x9 partition: every feasible
    mode is designed and validated, then integrated from the region's
    seeded start points.  Invariant integrations stop after
    ``invariant_cap`` steps; exit integrations run until they leave.
    """

    name = "controllers"
    work_metric = ("kernel_steps_per_s", "steps/s")
    pass_s = 3.7
    partition = (50.0, 21, 9)
    starts_per_region = 8
    invariant_cap = 1500
    exit_cap = 100_000
    speed = 2.0
    dt = 0.02
    exercised = (
        "polar.design_controller", "polar.validate_controller", "kernels.integrate_many",
    )

    def __init__(self, pz, seed: int, src: Path, workdir: Path):
        self.pz = pz
        polar = pz.polar
        self.p = polar.PolarPartition(*self.partition)
        rng = random.Random(seed)
        self.items = []
        for idx in self.p.regions():
            (r_lo, r_hi, th_lo, th_hi) = polar.region_bounds(self.p, idx)
            starts = []
            for _ in range(self.starts_per_region):
                r = r_lo + (0.05 + 0.9 * rng.random()) * (r_hi - r_lo)
                th = th_lo + (0.05 + 0.9 * rng.random()) * (th_hi - th_lo)
                starts.append((r * math.cos(th), r * math.sin(th)))
            modes = [polar.Mode.INVARIANT, polar.Mode.EXIT_R_PLUS,
                     polar.Mode.EXIT_TH_PLUS, polar.Mode.EXIT_TH_MINUS]
            if idx.i > 1:
                modes.append(polar.Mode.EXIT_R_MINUS)
            bounds = (r_lo, r_hi, th_lo, th_hi - th_lo)
            self.items.append(
                Item(f"region-{idx.i}-{idx.j}", (idx, bounds, tuple(starts), tuple(modes)), True)
            )

    def run(self, item: Item):
        (idx, (r_lo, r_hi, th_lo, span), starts, modes) = item.data
        polar, kernels = self.pz.polar, self.pz.kernels
        out = []
        for mode in modes:
            vc = polar.design_controller(self.p, idx, mode, self.speed)
            valid = polar.validate_controller(self.p, idx, vc)
            cap = self.invariant_cap if mode is polar.Mode.INVARIANT else self.exit_cap
            results = kernels.integrate_many(
                r_lo, r_hi, th_lo, span, vc.flat(), starts, self.dt, cap, self.p.r_eps
            )
            out.append((mode, vc.exit_code, valid, results))
        return out

    def check(self, item: Item, out) -> list:
        idx = item.data[0]
        polar, kernels = self.pz.polar, self.pz.kernels
        problems = []
        for (mode, exit_code, valid, results) in out:
            if not valid:
                problems.append(f"{mode.value}: validation failed {valid.violations}")
            for (code, steps, x, y) in results:
                if mode is not polar.Mode.INVARIANT:
                    if code != exit_code:
                        problems.append(f"{mode.value}: exit code {code}, expected {exit_code}")
                elif code != kernels.INSIDE or steps != self.invariant_cap:
                    problems.append(f"invariant: left the region (code {code}, step {steps})")
                elif polar.locate(self.p, x, y) != idx:
                    problems.append("invariant: ended outside its region")
        return problems

    def digest(self, out) -> str:
        return _sha256(repr([(mode.value, bool(valid), results)
                             for (mode, _, valid, results) in out]))

    def work(self, out) -> int:
        return sum(r[1] for (_, _, _, results) in out for r in results)


WORKLOADS = {cls.name: cls for cls in (Mission, Synthesis, Controllers)}
