"""The repository benchmark: one command, three workloads, two modes.

Run from the repository root::

    python3 perfbench/run.py --workload probe  --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload notify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload runner --seed 1 --seconds 30 --trace 1

The workloads and their four inputs are described in
``perfbench/workloads.py``.  ``BENCHMARK.json`` gates ``notify`` and
``runner``; ``probe`` stays runnable for layer work but is not gated:
it was left out while raw times moved by up to 1.7x between host
states, two gated workloads of 45-second runs keep two ten-run sets
within an hour, and the runner still probes through every layer.

A run executes the four inputs round-robin, in this single process and
thread, until ``--seconds`` have passed: it stops after the execution
during which the time ran out, once every input has run twice (once
when traced).  Every execution of an input must write byte-identical
artefacts, so repeated executions double as a determinism check.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``     universe generation, testbed and campaign construction
  (runner: time inside ``generate_universe`` and ``Testbed(...)``);
* ``wall_s``      execution: ``campaign.run`` (runner: all of ``main``);
* ``cpu_s``       process CPU over the same interval;
* ``ops_per_s``   probes (probe), deliveries (notify) or both (runner)
  per second of ``wall_s``;
* ``peak_rss_mb`` ``ru_maxrss`` of this process;
* ``artefact_mb`` bytes of artefacts one input writes.

Every timing is host-normalised (see ``perfbench/workloads.py``): the
seconds the work takes on a host that runs the probe loop in 0.8 ms,
with the host's speed sampled every 50 ms while the program runs.  Each
reported timing is the median over the four inputs of that input's
median execution.  The lines before the result also give the raw
(unscaled) execution time and the host scale factor.

``--trace 1`` executes every input untraced and then traced, and prints
the per-layer ledger of :mod:`ledger` (medians over traced executions),
the explained-time table (self time against set-up plus execution),
``trace.overhead_s`` (traced minus untraced, set-up plus execution) and
``host.ref_loop_s``.  The traced artefact digest must equal the
untraced one, and a layer wrapper that records nothing on a workload
where its layer runs fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; attempted and
failed count operations (probes and deliveries), and a failed self-check
fails every operation of that execution.  Every result is also appended,
with its provenance (git revision, CPU count, Python version, seed,
scale, host reference-loop time), to ``perfbench/history.jsonl``.  The
exit code is 0 when every self-check passed, 1 when one failed and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Iterations of the host reference loop (about 0.04 s on a 2-CPU host).
REF_ITERATIONS = 1_000_000

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artefact_mb": "MB",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("probe", "notify", "runner"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--scale", type=float, default=None, help="override the workload's universe scale")
    parser.add_argument(
        "--history",
        type=Path,
        default=HERE / "history.jsonl",
        help="append-only result history (default: perfbench/history.jsonl)",
    )
    return parser


def import_program():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print("perfbench: imported repro from %s, not this checkout" % repro.__file__, file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def git_revision() -> str:
    """HEAD of this checkout read from ``.git`` directly, or "unknown"."""
    git = ROOT / ".git"
    try:
        text = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Attempted and failed operations, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, slot: int, run) -> None:
        ops = max(run.expected_ops, run.ops, 1)
        self.attempted += ops
        if run.problems:
            self.failed += ops
            self.problems.extend("input %d: %s" % (slot, problem) for problem in run.problems)

    def crashed(self, slot: int) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append("input %d raised:\n%s" % (slot, traceback.format_exc()))


def measure(workload, args, tally: Tally) -> List[list]:
    """Execute the inputs round-robin until ``--seconds`` have passed.

    Returns, per input, its executions as (untraced, traced-or-None)."""
    from ledger import LayerTracer, missing_layers

    work = ROOT / ".perfbench_work" / "out"
    inputs = workload.inputs(args.seed)
    executions: List[list] = [[] for _ in inputs]
    digests: Dict[int, str] = {}
    least = 1 if args.trace else 2
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < least or time.perf_counter() < deadline:
        rounds += 1
        for slot, seeds in enumerate(inputs):
            if rounds > least and time.perf_counter() >= deadline:
                break
            try:
                plain = workload.measure(seeds, work)
                traced = workload.measure(seeds, work, LayerTracer()) if args.trace else None
            except Exception:
                tally.crashed(slot)
                continue
            for run in (plain, traced):
                if run is None:
                    continue
                if digests.setdefault(slot, run.digest) != run.digest:
                    run.problems.append("artefacts differ from the input's first execution")
                if run.readings is not None:
                    run.problems.extend("layer metric %s recorded nothing" % key
                                        for key in missing_layers(args.workload, run.readings))
                tally.add(slot, run)
            executions[slot].append((plain, traced))
    return executions


def typical(executions: List[list], value: Callable, which: int = 0) -> float:
    """Median over inputs of each input's median execution."""
    return statistics.median(
        statistics.median(value(pair[which]) for pair in runs) for runs in executions if runs
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    workloads = import_program()
    from ledger import LAYER_METRICS, explained_table

    workload = workloads.make_workload(args.workload, args.scale)
    print(
        "perfbench %s: seed %d, scale %g, %g s, trace %d; closed loop, 1 caller, 1 thread"
        % (args.workload, args.seed, workload.scale, args.seconds, args.trace),
        flush=True,
    )
    tally = Tally()
    ref = [workloads.probe_loop(REF_ITERATIONS) for _ in range(3)]
    try:
        executions = measure(workload, args, tally)
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    ref += [workloads.probe_loop(REF_ITERATIONS) for _ in range(3)]
    plain = [pair[0] for runs in executions for pair in runs]
    if not plain:
        for problem in tally.problems:
            print("FAILED " + problem, file=sys.stderr)
        return 2

    values = {
        "setup_s": typical(executions, lambda r: r.setup_s),
        "wall_s": typical(executions, lambda r: r.wall_s),
        "cpu_s": typical(executions, lambda r: r.cpu_s),
        "ops_per_s": typical(executions, lambda r: r.ops_per_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artefact_mb": typical(executions, lambda r: r.artefact_bytes / 1e6),
    }
    raw_wall = typical(executions, lambda r: r.raw_wall_s)
    host_scale = typical(executions, lambda r: r.host_scale)
    counts = "/".join(str(len(runs)) for runs in executions)
    print("  %d inputs, executions per input %s; each metric: median over inputs of the median execution"
          % (len(executions), counts))
    for name in ("setup_s", "wall_s", "cpu_s", "ops_per_s"):
        every = [getattr(run, name) for run in plain]
        print("  %-12s %-4s %.6g   every execution: median %.6g  min %.6g  max %.6g  n=%d" % (
            name, E2E_UNITS[name], values[name], statistics.median(every), min(every), max(every), len(every)))
    every = [run.raw_wall_s for run in plain]
    print("  raw wall_s   s    %.6g   every execution: min %.6g  max %.6g; host scale %.4g (min %.4g, max %.4g)" % (
        raw_wall, min(every), max(every), host_scale,
        min(run.host_scale for run in plain), max(run.host_scale for run in plain)))
    for name in ("peak_rss_mb", "artefact_mb"):
        print("  %-12s %-4s %.6g" % (name, E2E_UNITS[name], values[name]))
    print("  operations per execution: %d (%s)" % (
        statistics.median(run.ops for run in plain),
        {"probe": "probes", "notify": "deliveries"}.get(args.workload, "probes + deliveries"),
    ))
    digest = hashlib.sha256("".join(runs[0][0].digest for runs in executions if runs).encode()).hexdigest()
    print("  artefact digest (reports, queries/probes JSONL, tracecheck, metrics): %s" % digest)
    host_ref = statistics.median(ref)
    print("  host.ref_loop_s %.6f (median of %d, around the workload)" % (host_ref, len(ref)))

    if args.trace:
        traced = [pair[1] for runs in executions for pair in runs]
        readings = [run.readings for run in traced]
        layer = {key: statistics.median(r[key] for r in readings) for key, _unit in LAYER_METRICS
                 if key not in ("trace.overhead_s", "host.ref_loop_s")}
        layer["trace.overhead_s"] = (typical(executions, lambda r: r.span_s, which=1)
                                     - typical(executions, lambda r: r.span_s))
        layer["host.ref_loop_s"] = host_ref
        print("explained time, %s (median over %d traced executions):" % (args.workload, len(traced)))
        print(explained_table(traced))
        print("per-layer metrics:")
        for key, unit in LAYER_METRICS:
            print("  %-30s %-6s %.6g" % (key, unit, layer[key]))
        metrics = {key: {"value": layer[key], "unit": unit} for key, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    for problem in tally.problems:
        print("FAILED " + problem)
    correct = not tally.problems
    failed_frac = tally.failed / tally.attempted
    print("  failed_frac %.6g (%d of %d operations)" % (failed_frac, tally.failed, tally.attempted))
    record = {
        "time_unix": time.time(),
        "revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": workload.scale,
        "executions": len(plain),
        "digest": digest,
        "host.ref_loop_s": host_ref,
        "host_scale": host_scale,
        "raw_wall_s": raw_wall,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": failed_frac,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
    }
    with open(args.history, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
