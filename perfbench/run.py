#!/usr/bin/env python3
"""polaris benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mission|synthesis|controllers \\
        [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a polaris checkout and imports polaris from its
``src`` directory, in this one process and thread.  ``--trace 0`` times
whole passes over the workload's operations with tracing off and prints
the end-to-end metrics.  ``--trace 1`` alternates untraced passes with
traced ones and prints the per-layer metrics of a traced pass plus the
tracing overhead.  Times in the result line are in reference-speed
seconds (see clock.py); wall times are printed above it.  A run makes a
fixed number of passes, sized so that their operations take about
``--seconds`` reference-speed seconds (``pass_count``).

Every operation's output is checked.  The last line of standard output is
one JSON object: ``correct`` is false when some operation returned a wrong
output, ``failed`` counts those operations plus the ones that raised, out
of ``attempted``; ``metrics`` holds the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 5

#: Budgeted cost of a traced pair of passes, in untraced passes: the
#: untraced pass, the traced one (1.1 to 1.3 untraced passes when the
#: benchmark was written) and a margin for checking both.
TRACED_PAIR_COST = 3.0

#: End-to-end metrics printed in the result line with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

def per_layer_metrics() -> list:
    """Names and units of the per-layer metrics printed with --trace 1."""
    from perfbench import tracing, workloads

    out = []
    for (module, qualname, counter) in tracing.TIMED:
        name = f"{module}.{qualname}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.total_s", "s")]
        if counter:
            out.append((f"{name}.{counter}", tracing.COUNTERS[counter][1]))
    out.append(("kernels.integrate_many.msteps_per_s", "Msteps/s"))
    out += [(f"{m}.{q}.calls", "count") for (m, q) in tracing.COUNTED]
    for (module, name) in tracing.CACHES:
        out += [(f"{module}.{name}.cache_hits", "count"), (f"{module}.{name}.cache_misses", "count")]
    out += [(f"{m}.self_s", "s") for m in workloads.MODULES]
    out += [("bench.op.calls", "count"), ("bench.op.self_s", "s"), ("bench.op.total_s", "s")]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def _source_id() -> dict:
    """The commit when the checkout is a git work tree, and a digest of the
    sources, which identifies them in an exported tree too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "polaris").rglob("*")):
        if path.suffix in (".py", ".pyx", ".cfg") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            target = ROOT / ".git" / commit[5:]
            commit = target.read_text().strip() if target.is_file() else commit[5:]
    return {"commit": commit, "source_sha256": h.hexdigest()}


class Run:
    """Executes passes over a workload's items and checks every output."""

    def __init__(self, wl, seed: int, stored: dict, clock):
        self.wl = wl
        self.seed = seed
        self.stored = stored
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.op_s: list = []  # reference-speed seconds
        self.op_wall_s: list = []
        self.work = 0
        self.work_s = 0.0
        self.first_digest: dict = {}

    def run_pass(self, tracer=None) -> float:
        """One pass over the items; returns its operations' scaled time.

        Outputs are checked after the pass, so that with a tracer the
        checks run unwrapped and their calls are not counted.
        """
        outputs = []
        spent = 0.0
        for item in self.wl.items:
            self.attempted += 1
            self.wl.reset()
            infos = tracer.cache_infos() if tracer else None
            mark = self.clock.start()
            try:
                if tracer is None:
                    out = self.wl.run(item)
                else:
                    with tracer.span("bench.op"):
                        out = self.wl.run(item)
            except Exception:
                self.failed += 1
                print(f"FAIL {self.wl.name} {item.key}: raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            (wall, took) = self.clock.stop(mark)
            if tracer:
                tracer.count_caches(infos)
            spent += took
            self.op_s.append(took)
            self.op_wall_s.append(wall)
            outputs.append((item, out, took))
        for (item, out, took) in outputs:
            problems = self.check(item, out)
            if problems:
                self.failed += 1
                self.wrong += 1
                print(f"FAIL {self.wl.name} {item.key}: {'; '.join(problems[:5])}",
                      file=sys.stderr)
            else:
                self.work += self.wl.work(out)
                self.work_s += took
        return spent

    def check(self, item, out) -> list:
        problems = self.wl.check(item, out)
        digest = self.wl.digest(out)
        if self.first_digest.setdefault(item.key, digest) != digest:
            problems.append("output differs from an earlier run of the same input")
        if not item.seeded or self.seed == self.stored["default_seed"]:
            expected = self.stored[self.wl.name].get(item.key)
            if expected != digest:
                problems.append(f"digest {digest[:16]} does not match the stored "
                                f"{(expected or 'none')[:16]}")
        return problems


def _tail(samples: list):
    """Highest percentile with at least ten samples beyond it, when that
    percentile lies above the median."""
    n = len(samples)
    if n < 21:
        return None
    return (sorted(samples)[n - 11], 100.0 * (n - 10) / n)


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def pass_count(wl, seconds: float, cost: float = 1.0) -> int:
    """Passes that fill ``seconds`` of operation time at the workload's
    nominal pass time, each pass costing ``cost`` untraced passes.

    The count depends on the workload and ``seconds`` only, never on the
    speed measured during the run, so two runs of one seed attempt the
    same operations and, the program being deterministic, fail the same
    ones.
    """
    return max(1, round(seconds / (wl.pass_s * cost)))


def traced(run: Run, pz, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer figures per pass."""
    from perfbench import tracing

    tracer = tracing.Tracer(
        {f"{m}.{n}": getattr(getattr(pz, m), n) for (m, n) in tracing.CACHES}
    )
    spent = {"plain": 0.0, "traced": 0.0}

    def pair():
        spent["plain"] += run.run_pass()
        with tracing.installed(tracer, pz):
            spent["traced"] += run.run_pass(tracer)

    pairs = pass_count(run.wl, seconds, TRACED_PAIR_COST)
    for _ in range(pairs):
        pair()
    missing = [
        name for name in run.wl.exercised
        if not tracer.calls.get(name) and not tracer.counters.get(f"{name}.calls")
    ]
    if missing:
        raise RuntimeError(f"traced {run.wl.name} never called {', '.join(missing)}")

    metrics = {}
    for (name, unit) in per_layer_metrics():
        (stem, _, stat) = name.rpartition(".")
        if name == "trace.overhead_frac":
            metrics[name] = {"value": spent["traced"] / spent["plain"] - 1.0, "unit": unit}
            continue
        if name == "kernels.integrate_many.msteps_per_s":
            busy = tracer.total_s.get(stem, 0.0)
            steps = tracer.counters.get(f"{stem}.steps", 0)
            metrics[name] = {"value": steps / busy / 1e6 if busy else 0.0, "unit": unit}
            continue
        if stat == "calls":
            value = tracer.calls.get(stem, tracer.counters.get(name, 0))
        elif stat == "self_s" and stem in pz.__dict__:
            value = sum(v for (k, v) in tracer.self_s.items() if k.startswith(stem + "."))
        elif stat in ("self_s", "total_s"):
            value = getattr(tracer, stat).get(stem, 0.0)
        else:
            value = tracer.counters.get(name, 0)
        value = value / pairs
        if unit != "s" and value.is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return {"passes": pairs, "metrics": metrics, "tracer": tracer}


def _report_trace(wl, result: dict, meta: dict, seed: int) -> None:
    tracer = result["tracer"]
    metrics = result["metrics"]
    op_total = metrics["bench.op.total_s"]["value"]
    print(f"# self time of a traced {wl.name} pass, {op_total:.4g} wall s in operations:")
    shares = sorted(((v / result["passes"], k) for (k, v) in tracer.self_s.items()),
                    reverse=True)
    for (value, name) in shares[:12]:
        print(f"#   {name:<40} {value:10.4f} s  {100.0 * value / op_total:5.1f}%")
    for (name, unit) in per_layer_metrics():
        _line(name, metrics[name]["value"], unit)
    path = WORKDIR / f"trace-{wl.name}-seed{seed}.json"
    rows = [dict(name=k, **v, **meta) for (k, v) in metrics.items()]
    path.write_text(json.dumps({
        "meta": meta, "per_layer": rows, "spans": tracer.spans,
        "spans_dropped": tracer.spans_dropped,
    }))
    print(f"# per-layer rows and spans written to {path.relative_to(ROOT)}")


def _report_timed(wl, run: Run, setup: list) -> dict:
    ops = len(run.op_s)
    metrics = {
        "setup_s": statistics.median(s for (_, s) in setup),
        "op_s.p50": statistics.median(run.op_s),
        "ops_per_s": ops / sum(run.op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"median of {len(setup)}", "op_s.p50": f"n={ops}",
             "ops_per_s": f"n={ops}"}
    for (name, unit) in END_TO_END:
        _line(name, metrics[name], unit, notes.get(name, ""))
    tail = _tail(run.op_s)
    if tail is None:
        print(f"op_s.tail = omitted  (n={ops}, fewer than 21 samples)")
    else:
        _line("op_s.tail", tail[0], "s", f"p{tail[1]:.1f}, n={ops}")
    _line("ops_failed_frac", run.failed / run.attempted, "ratio",
          f"{run.failed} of {run.attempted}")
    if wl.work_metric:
        (name, unit) = wl.work_metric
        _line(name, run.work / run.work_s if run.work_s else 0.0, unit,
              f"{run.work} verified steps")
    _line("wall.setup_s", statistics.median(w for (w, _) in setup), "s")
    _line("wall.op_s.p50", statistics.median(run.op_wall_s), "s")
    _line("wall.ops_per_s", ops / sum(run.op_wall_s), "1/s")
    return {name: {"value": metrics[name], "unit": unit} for (name, unit) in END_TO_END}


def record_digests(seed: int) -> None:
    """Store the digests of one pass of every workload at ``seed``."""
    from perfbench import workloads

    stored = {"default_seed": seed}
    for (name, cls) in workloads.WORKLOADS.items():
        wl = cls(workloads.import_polaris(), seed, SRC, WORKDIR)
        wl.prepare()
        stored[name] = {}
        for item in wl.items:
            out = wl.run(item)
            problems = wl.check(item, out)
            if problems:
                raise RuntimeError(f"{name} {item.key}: {problems}")
            stored[name][item.key] = wl.digest(out)
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mission", "synthesis", "controllers"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from one pass at --seed")
    args = parser.parse_args(argv)

    if not (SRC / "polaris" / "__init__.py").is_file():
        print(f"error: no polaris sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    from perfbench.clock import Clock

    WORKDIR.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    stored = json.loads(DIGESTS.read_text())

    with Clock() as clock:
        setup = []
        for _ in range(SETUP_REPEATS):
            mark = clock.start()
            pz = workloads.import_polaris()
            wl = workloads.WORKLOADS[args.workload](pz, args.seed, SRC, WORKDIR)
            setup.append(clock.stop(mark))
        wl.prepare()
        meta = {"backend": pz.kernels.BACKEND, "python": platform.python_version(),
                **_source_id()}
        print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
              + " ".join(f"{k}={v}" for (k, v) in meta.items()))

        run = Run(wl, args.seed, stored, clock)
        if args.trace:
            result = traced(run, pz, args.seconds)
            passes = result["passes"]
        else:
            passes = pass_count(wl, args.seconds)
            for _ in range(passes):
                run.run_pass()
    if args.trace:
        _report_trace(wl, result, meta, args.seed)
        metrics = result["metrics"]
    else:
        metrics = _report_timed(wl, run, setup)
    print(f"# {passes} passes of {len(wl.items)} operations")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
