"""Benchmark of the spde-ch CLI on the committed workloads.

Usage, from the repository root:

    python3 bench/run.py --workload ensemble-2d --seed 0 --seconds 32 --trace 0

Each invocation runs ``spde_ch.cli.main`` in a fresh process (see
``child.py``) on ``bench/workloads/<workload>.json`` with the given seed.
With ``--trace 0`` the run invokes at ``--threads 1`` and ``--threads 2``
while the next invocation fits in ``--seconds`` and reports the end-to-end
metrics as medians.  With ``--trace 1`` one traced invocation reports the
per-layer metrics and untraced ones give the base for the tracing overhead.
Every invocation is checked: exit code, sha256 against ``reference.json``
where one is stored for the seed and platform, byte identity with the
run's first invocation (across thread counts, and with tracing on), and
the workload invariants.  The last line of standard output is the JSON
result.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
REFERENCE = BENCH / "reference.json"
WORK_ROOT = ROOT / ".bench_work"

# Every invocation is killed if the whole run passes this many seconds.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "wall_s_threads2": "s", "setup_s": "s",
                    "paths_per_s": "1/s", "peak_rss_mb": "MB"}

_WARNING_RE = re.compile(r"^(?P<file>.+?):(?P<line>\d+): "
                         r"(?P<category>\w*Warning): (?P<message>.*)$")
_DROPPED_RE = re.compile(r"diagonal noise backend drops ([0-9.]+)%")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or workload)."""


@dataclass
class Workload:
    name: str
    config_path: Path
    config: dict

    @property
    def command(self) -> str:
        return self.config["command"]

    @property
    def paths(self) -> int:
        return int(self.config["options"]["paths"])

    @classmethod
    def load(cls, name: str) -> "Workload":
        path = WORKLOADS / f"{name}.json"
        if not path.is_file():
            known = sorted(p.stem for p in WORKLOADS.glob("*.json"))
            raise BenchError(f"unknown workload {name!r}; expected one of {known}")
        with open(path) as fh:
            return cls(name, path, json.load(fh))


@dataclass
class Invocation:
    """One CLI process: its timings, its outputs' digests and any failure."""

    threads: int
    traced: bool
    wall_s: float
    setup_s: float
    cli_s: float                   # process start to the command's return
    rss_mb: float
    returncode: int
    hashes: dict = field(default_factory=dict)     # every file in the outdir
    emitted: list = field(default_factory=list)    # files the manifest lists
    config_hash: str = ""
    output_bytes: int = 0
    warnings: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# ----------------------------------------------------------------------
# one invocation


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def parse_warnings(stderr: str) -> list:
    """Python warnings printed by the child, as {category, message, source}."""
    found = []
    for line in stderr.splitlines():
        m = _WARNING_RE.match(line)
        if m:
            found.append({"category": m["category"], "message": m["message"],
                          "source": f"{Path(m['file']).name}:{m['line']}"})
    return found


def warning_facts(warnings: list) -> dict:
    """Recorded fields derived from warnings that carry a number."""
    facts = {}
    for w in warnings:
        m = _DROPPED_RE.search(w["message"])
        if m:
            facts["noise.dropped_mass"] = float(m.group(1)) / 100.0
    return facts


def invoke(workload: Workload, seed: int, threads: int, work: Path,
           deadline: float, trace_path: Path = None) -> Invocation:
    """Run the CLI once in a fresh process and collect its outputs' digests.

    The output directory is emptied afterwards; only digests, invariants
    and facts are kept.
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, str(BENCH / "child.py")]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    argv += [workload.command, "--config", str(workload.config_path),
             "--seed", str(seed), "--out", str(out), "--threads", str(threads)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=so, stderr=se)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text(errors="replace")

    m = re.search(r"^bench:first_simulate=([0-9.e+-]+)$", stderr, re.M)
    done = re.search(r"^bench:cli_done=([0-9.e+-]+)$", stderr, re.M)
    inv = Invocation(threads=threads, traced=trace_path is not None,
                     wall_s=t1 - t0,
                     setup_s=float(m.group(1)) - t0 if m else math.nan,
                     cli_s=float(done.group(1)) - t0 if done else math.nan,
                     rss_mb=usage.ru_maxrss / 1024.0,
                     returncode=proc.returncode,
                     warnings=parse_warnings(stderr))
    inv.facts.update(warning_facts(inv.warnings))
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or \
            stdout_path.read_text(errors="replace").strip().splitlines()[-1:]
        inv.problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        return inv
    if not inv.traced and not m:
        inv.problems.append("solver.simulate was never entered")
    if not done:
        inv.problems.append("child reported no end of the command")

    for path in sorted(out.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(out))
            inv.hashes[rel] = _sha256(path)
            inv.output_bytes += path.stat().st_size
    try:
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        inv.emitted = sorted(manifest["files"])
        inv.config_hash = manifest["config_hash"]
        for name, digest in manifest["files"].items():
            if inv.hashes.get(name) != digest:
                inv.problems.append(f"{name}: sha256 differs from the manifest")
        inv.problems += check_invariants(workload, out, inv.facts)
    except (OSError, ValueError, KeyError) as e:
        inv.problems.append(f"outputs missing or malformed: {e!r}")
    if trace_path is not None:
        with open(trace_path) as fh:
            inv.layers = json.loads(fh.readline())["metrics"]
    shutil.rmtree(out, ignore_errors=True)
    return inv


# ----------------------------------------------------------------------
# correctness: invariants and reference digests


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_invariants(workload: Workload, out: Path, facts: dict) -> list:
    """Workload invariants on the emitted files; returns the violations."""
    problems = []
    if workload.command == "simulate":
        rows = _read_csv(out / "paths.csv")
        if len(rows) != workload.paths:
            problems.append(f"paths.csv has {len(rows)} rows, "
                            f"expected {workload.paths}")
        for row in rows:
            if row["exploded"] != "false":
                problems.append(f"path {row['path']} exploded")
            cols = ("final_norm", "final_l2_sq", "final_dissipation")
            if not all(_finite(row[c]) for c in cols):
                problems.append(f"path {row['path']} has non-finite values")
        with open(out / "series.jsonl") as fh:
            for line in fh:
                record = json.loads(line)
                if not all(math.isfinite(v) for v in record["norms"]):
                    problems.append(f"series of path {record['path']} "
                                    "has non-finite norms")
    elif workload.command == "malliavin":
        rows = _read_csv(out / "eigenvalues.csv")
        if not rows or not all(_finite(r["eigenvalue"]) for r in rows):
            problems.append("Malliavin eigenvalues missing or non-finite")
        if {int(r["path"]) for r in rows} != set(range(workload.paths)):
            problems.append("eigenvalues.csv does not cover every path")
        with open(out / "density.json") as fh:
            verdict = json.load(fh).get("verdict")
        if not isinstance(verdict, str) or not verdict:
            problems.append("density.json carries no verdict")
    elif workload.command == "regularity":
        lags = {}
        for row in _read_csv(out / "structure.csv"):
            lags.setdefault(row["axis"], set()).add(row["lag"])
            if not _finite(row["value"]):
                problems.append(f"structure function axis {row['axis']} "
                                "is non-finite")
        degenerate = 0
        with open(out / "fits.jsonl") as fh:
            for line in fh:
                fit = json.loads(line)
                if all(math.isfinite(fit[k])
                       for k in ("exponent", "slope", "stderr")):
                    continue
                # A fit over a single distinct snapped lag has no slope; it
                # is recorded, not failed.  Any other non-finite fit fails.
                if len(lags.get(fit["axis"], ())) == 1:
                    degenerate += 1
                else:
                    problems.append(f"Hölder fit on axis {fit['axis']} "
                                    "is non-finite")
        facts["regularity.degenerate_fits"] = degenerate
        for row in _read_csv(out / "moments.csv"):
            if not _finite(row["value"]):
                problems.append("moment track is non-finite")
                break
    return problems


def load_reference(workload: Workload, seed: int, platform_key: dict):
    """Stored digests for (workload, seed) if made on this platform."""
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    if ref["platform"] != platform_key:
        return None
    return ref["sha256"].get(workload.name, {}).get(str(seed))


def check_reference(inv: Invocation, reference) -> None:
    if reference is None or inv.returncode != 0:
        return
    got = {name: inv.hashes.get(name) for name in inv.emitted}
    if got != reference:
        differing = sorted(n for n in set(got) | set(reference)
                           if got.get(n) != reference.get(n))
        inv.problems.append("sha256 differs from reference.json: "
                            + ", ".join(differing))


def _describe(inv: Invocation, base: Invocation) -> str:
    def label(i):
        return f"--threads {i.threads}" + (" traced" if i.traced else "")
    return f"between {label(base)} and {label(inv)}"


def check_identical(inv: Invocation, base: Invocation, what: str) -> None:
    if inv.returncode == 0 and base.returncode == 0 and inv.hashes != base.hashes:
        differing = sorted(n for n in set(inv.hashes) | set(base.hashes)
                           if inv.hashes.get(n) != base.hashes.get(n))
        inv.problems.append(f"outputs differ {what}: " + ", ".join(differing))


# ----------------------------------------------------------------------
# runs


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _median(values):
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def platform_key() -> dict:
    """What the emitted bytes depend on besides config and seed.

    Besides the interpreter, numpy and scipy versions, OpenBLAS picks its
    kernels by CPU and, by default, runs one thread per usable CPU; its
    sums split by thread count, so one BLAS thread gives other last bits
    than two.
    """
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "cpu": _cpu_model(),
            "cpus": len(os.sched_getaffinity(0))}


def environment() -> dict:
    return {**platform_key(), "nproc": os.cpu_count()}


class Run:
    """Repeated invocations of one workload within a time budget."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.invocations = []
        self.reference = load_reference(workload, seed, platform_key())

    def invoke(self, threads, trace_path=None) -> Invocation:
        """One invocation, checked against the reference digests and against
        the outputs of the run's first invocation."""
        inv = invoke(self.workload, self.seed, threads, self.work,
                     self.deadline, trace_path)
        check_reference(inv, self.reference)
        if self.invocations:
            first = self.invocations[0]
            check_identical(inv, first, _describe(inv, first))
        self.invocations.append(inv)
        return inv

    def repeat(self, thread_counts):
        """Invoke once with each thread count, then, while an invocation is
        expected to fit in the run, with the thread count that has the
        fewest untraced samples among those whose last one would fit."""
        last = {}
        for threads in thread_counts:
            last[threads] = self.invoke(threads).wall_s
        while True:
            left = self.seconds - (time.monotonic() - self.start)
            fits = [t for t in thread_counts if last[t] <= left]
            if not fits:
                break
            threads = min(fits, key=lambda t: sum(
                not i.traced and i.threads == t for i in self.invocations))
            last[threads] = self.invoke(threads).wall_s

    def untraced(self) -> dict:
        """--threads 1 and --threads 2 in turn while time is left."""
        self.repeat((1, 2))
        t1 = [i for i in self.invocations if i.threads == 1]
        t2 = [i for i in self.invocations if i.threads == 2]
        paths = self.workload.paths
        return {
            "wall_s": _median([i.wall_s for i in t1]),
            "wall_s_threads2": _median([i.wall_s for i in t2]),
            "setup_s": _median([i.setup_s for i in self.invocations]),
            "paths_per_s": _median([paths / (i.wall_s - i.setup_s)
                                    for i in t1]),
            "peak_rss_mb": _median([i.rss_mb for i in t1]),
        }

    def traced(self, spans_path: Path) -> dict:
        """One traced invocation, then untraced ones as the overhead base."""
        traced = self.invoke(1, trace_path=spans_path)
        self.repeat((1,))
        untraced = [i for i in self.invocations if not i.traced]
        layers = dict(traced.layers or {})
        layers["cli.output_bytes"] = float(traced.output_bytes)
        # Both sides end when the command returns: the traced child writes
        # its spans only after that, and interpreter shutdown is left out.
        layers["trace.overhead_frac"] = (
            traced.cli_s / _median([i.cli_s for i in untraced]) - 1.0)
        layers["trace.wall_s"] = traced.cli_s
        return layers


def _per_layer_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "spde_ch" / "cli.py").is_file():
            raise BenchError(f"spde_ch sources not found under {SRC}")
        workload = Workload.load(args.workload)
        per_layer = _per_layer_names() if args.trace else None
    except (BenchError, OSError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    seed = workload.config.get("seed", 0) if args.seed is None else args.seed

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    run = Run(workload, seed, args.seconds, work)
    try:
        if args.trace:
            spans_dir = WORK_ROOT / "spans"
            spans_dir.mkdir(exist_ok=True)
            layers = run.traced(spans_dir / f"{workload.name}-seed{seed}.jsonl")
            metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                       for name, unit in per_layer}
        else:
            values = run.untraced()
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invs = run.invocations
    failed = sum(i.failed for i in invs)
    facts = {}
    for inv in invs:
        facts.update(inv.facts)
    if args.trace:
        facts["trace.summed_self_s"] = layers.get("trace.summed_self_s")
        facts["trace.wall_s"] = layers.get("trace.wall_s")
    record = {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "config_hash": next((i.config_hash for i in invs if i.config_hash), ""),
        "environment": environment(),
        "reference_checked": run.reference is not None,
        "samples": {"threads1": sum(not i.traced and i.threads == 1
                                    for i in invs),
                    "threads2": sum(i.threads == 2 for i in invs),
                    "traced": sum(i.traced for i in invs)},
        "times_s": [{"threads": i.threads, "traced": i.traced,
                     "wall": _finite_or_none(i.wall_s),
                     "setup": _finite_or_none(i.setup_s)} for i in invs],
        "failure_rate": failed / len(invs),
        "facts": facts,
        "warnings": [],
        "problems": [f"threads={i.threads} traced={i.traced}: {p}"
                     for i in invs for p in i.problems],
    }
    for w in (w for i in invs for w in i.warnings):
        if w not in record["warnings"]:
            record["warnings"].append(w)
    # A metric with no finite sample comes from failed invocations only;
    # it is reported as 0 so that the result stays valid JSON.
    for m in metrics.values():
        m["value"] = _finite_or_none(m["value"]) or 0.0

    for name, m in metrics.items():
        print(f"{workload.name:14s} {name:44s} {m['value']:>14.6g} {m['unit']}",
              flush=True)
    print(f"{workload.name:14s} {'failure_rate':44s} "
          f"{record['failure_rate']:>14.6g} ratio  ({failed}/{len(invs)})")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(invs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
