"""Benchmark of the cavres command line: figure sweeps, dense-oracle audits and
point queries, end to end and layer by layer.

    python3 benchmarks/run.py --workload surface --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client drives the workload as a closed
loop: each request is a `cavres` command run in this process through
`cavres.cli.main(argv)`, and the next starts when it returns.  The run
repeats whole rounds of the workload's seeded requests until the requests
have taken --seconds.  Every output is checked against the dense reference
in `reference.py` and every check is shown to reject a perturbed output.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  See README.md.
"""

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
COLD_STARTS = 5
IMPORT_ROOTS = ("numpy", "scipy", "cavres")


def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "cavres" / "cli.py").is_file():
    fail(f"no cavres sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402  (imports reference.py before any tracing)
from tracing import SPANS, Tracer  # noqa: E402


# --- set-up -------------------------------------------------------------------

def cold_start(importtime):
    """Wall time of a fresh `python -m cavres --version`, and its import times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        ["-m", "cavres", "--version"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"cold start failed: {proc.stderr.strip()[-300:]}")
    return elapsed, (parse_importtime(proc.stderr) if importtime else None)


def parse_importtime(stderr):
    """Cumulative ms of each root package, over its outermost entries.

    `-X importtime` prints children before their parent, two spaces deeper;
    read backwards, each entry's parent is the nearest shallower one.
    """
    totals = dict.fromkeys(IMPORT_ROOTS, 0.0)
    stack = []   # (depth, root) of the open ancestors
    for line in reversed(stderr.splitlines()):
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if not m:
            continue
        depth, root = len(m[2]) // 2, m[3].split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if root in totals and (not stack or stack[-1][1] != root):
            totals[root] += int(m[1]) / 1e3
        stack.append((depth, root))
    return totals


# --- requests -----------------------------------------------------------------

def _cpu_s():
    """CPU time of this process, all its threads, and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def execute(cli, req):
    """Run one request in-process; returns (Result, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_s()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(req.argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:           # a crash is a failed request, not a dead run
            rc = -1
            err.write(traceback.format_exc())
    wall = perf_counter() - t0
    cpu = _cpu_s() - cpu0
    payload = None
    if req.argv[0] == "surface":
        path = Path(req.argv[req.argv.index("--out") + 1])
        if path.exists():
            payload = path.read_bytes()
            path.unlink()
    return wl.Result(rc, out.getvalue(), err.getvalue(), payload), wall, cpu


class Verdicts:
    """Checks each distinct request fully once; a repeat must give the same
    output (byte-identical files for surface), else it is checked again."""

    def __init__(self):
        self.seen = {}        # key -> (digest, error message or None)
        self.samples = {}     # kind -> (request, result) of a passing output

    def judge(self, req, result):
        digest = result.digest()
        first = self.seen.get(req.key)
        if first is not None and first[0] == digest:
            return first[1]
        if first is not None and req.argv[0] == "surface" and first[1] is None:
            error = "output differs from an identical earlier request"
        else:
            try:
                req.check(req, result)
                error = None
            except wl.CheckFailed as exc:
                error = str(exc)
        self.seen.setdefault(req.key, (digest, error))
        if error is None:
            self.samples.setdefault(req.kind, (req, result))
        return error


# --- self-test ----------------------------------------------------------------

def _rejects(case):
    try:
        case()
    except wl.CheckFailed:
        return True
    return False


def _with_stdout(result, stdout):
    return wl.Result(result.rc, stdout, result.stderr, result.payload)


def _surface_perturbations(req, result):
    rows = wl.parse_surface(req, result.payload)
    n_param, n_kt = req.params["shape"]
    mid = (n_param // 2) * n_kt + n_kt // 2

    def edit(fn):
        r = rows.copy()
        fn(r)
        return r
    yield "non-finite cell", edit(lambda r: r.__setitem__((mid, 2), np.inf))
    yield "negative cell", edit(lambda r: r.__setitem__((mid, 2), -1e-3))
    yield "rise along kt", edit(lambda r: r.__setitem__((mid, 2), r[mid - 1, 2] + 1e-3))
    yield "off-grid kt", edit(lambda r: r.__setitem__((mid, 1), r[mid, 1] + 1e-6))
    yield "dense mismatch", edit(lambda r: r.__setitem__((slice(None), 2), r[:, 2] * (1 + 1e-8)))


def _bump_value(stdout, delta):
    return re.sub(r"value (\S+)", lambda m: f"value {float(m[1]) + delta:.3e}", stdout, count=1)


def self_test(verdicts):
    """Each check must reject one deliberately perturbed output."""
    missed, tried = [], 0
    for kind, (req, result) in sorted(verdicts.samples.items()):
        cases = []
        if req.argv[0] == "surface":
            for name, rows in _surface_perturbations(req, result):
                cases.append((name, lambda rows=rows: wl.check_surface(req, result, rows)))
            altered = wl.Result(result.rc, result.stdout, result.stderr, result.payload + b"0")
            probe = Verdicts()
            probe.judge(req, result)
            cases.append(("bytes differ on repeat", lambda: _raise_if(probe.judge(req, altered))))
        elif req.argv[0] == "verify":
            suite = req.params["suite"]
            bumped = (re.sub(r"(min N outside IV = )(\S+),",
                             lambda m: f"{m[1]}{2 * float(m[2]):.3e},", result.stdout)
                      if suite == "regions" else _bump_value(result.stdout, 1e-4))
            cases.append(("worst value", lambda s=bumped: req.check(req, _with_stdout(result, s))))
            failed = result.stdout.replace("[PASS]", "[FAIL]", 1)
            cases.append(("status", lambda s=failed: req.check(req, _with_stdout(result, s))))
        elif req.argv[0] == "esd-time":
            m = wl._DEATH.search(result.stdout.strip())
            if m is None:
                wrong = result.stdout.replace("no finite death time (asymptotic decay)",
                                              "death at kt = 1")
            elif req.params["flag"] == "--p":
                wrong = result.stdout.replace(m[1], repr(float(m[1]) + 1e-2))
            else:
                wrong = result.stdout.replace(m[1], repr(float(m[1]) * (1 + 1e-6)))
            cases.append(("answer", lambda s=wrong: req.check(req, _with_stdout(result, s))))
        elif req.argv[0] == "landmarks":
            failed = result.stdout.replace("[PASS]", "[FAIL]", 1)
            cases.append(("status", lambda s=failed: req.check(req, _with_stdout(result, s))))
        for name, case in cases:
            tried += 1
            if not _rejects(case):
                missed.append(f"{kind}: {name}")
    return tried, missed


def _raise_if(error):
    if error is not None:
        raise wl.CheckFailed(error)


# --- the run ------------------------------------------------------------------

def run(args):
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, out_dir):
    from cavres import cli
    requests = wl.WORKLOADS[args.workload](np.random.default_rng(args.seed), out_dir)
    tracer = None
    if args.trace:
        tracer = Tracer(out_dir)
        tracer.prepare()
    verdicts = Verdicts()
    execute(cli, min(requests, key=lambda r: r.units))   # warm-up, not counted

    times = {r.key: [] for r in requests}
    ok = {r.key: True for r in requests}
    attempted = failed = 0
    correct = True
    round_wall = {False: [], True: []}
    cpu = {False: 0.0, True: 0.0}
    rounds = timed = 0
    starts = []
    min_rounds = wl.MIN_ROUNDS[args.workload]
    while rounds < min_rounds or timed < args.seconds or (tracer and rounds % 2):
        # cold starts spread over the run sample more than one speed phase
        while len(starts) < COLD_STARTS and timed >= len(starts) * args.seconds / COLD_STARTS:
            starts.append(cold_start(args.trace))
        traced = bool(tracer) and rounds % 2 == 1
        wall_sum = 0.0
        for index, req in enumerate(requests):
            if traced:
                tracer.begin(index, keep=rounds == 1)
                tracer.install()
            result, wall, used = execute(cli, req)
            if traced:
                tracer.uninstall()
                tracer.collect()
            wall_sum += wall
            cpu[traced] += used
            error = verdicts.judge(req, result)
            attempted += 1
            if error is None:
                times[req.key].append(wall)
                continue
            failed += 1
            ok[req.key] = False
            if req.known_fault is None:
                correct = False
                print(f"FAILED {req.key}: {error}", file=sys.stderr)
        round_wall[traced].append(wall_sum)
        if not traced:
            timed += wall_sum
        rounds += 1

    while len(starts) < COLD_STARTS:
        starts.append(cold_start(args.trace))
    tried, missed = self_test(verdicts)
    for name in missed:
        correct = False
        print(f"self-test: check accepted a perturbed output ({name})", file=sys.stderr)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "self_test_cases": tried,
               "times_s": times,
               "known_faults": sorted({r.known_fault for r in requests if r.known_fault})}
    (OUT / f"times-{args.workload}.json").write_text(json.dumps(summary, indent=1))

    if tracer:
        n = len(round_wall[True])
        metrics = {}
        for fid, (prefix, _, _) in enumerate(SPANS):
            metrics[f"{prefix}.calls"] = (int(tracer.calls[fid]) // n, "count")
            metrics[f"{prefix}.self_ms"] = (float(tracer.self_s[fid]) * 1e3 / n, "ms")
        for name, value in tracer.counted.items():
            metrics[name] = (value // n, "count")
        imports = [s[1] for s in starts]
        for root in IMPORT_ROOTS:
            metrics[f"setup.import_ms.{root}"] = (
                statistics.median(i[root] for i in imports), "ms")
        n_plain = len(round_wall[False])
        metrics["process.cpu_s"] = (cpu[False] / n_plain, "s")
        metrics["process.wall_s"] = (sum(round_wall[False]) / n_plain, "s")
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.mean(round_wall[True]) / statistics.mean(round_wall[False]) - 1.0),
            "%")
        tracer.write(OUT / f"trace-{args.workload}.npz")
    else:
        reduce_times = min if wl.REQUEST_TIME[args.workload] == "least" else statistics.fmean
        passed = [(reduce_times(times[r.key]), r.units) for r in requests if ok[r.key]]
        if not passed:
            fail("no request passed its checks; nothing to measure")
        metrics = {
            "setup_s": (statistics.median(s[0] for s in starts), "s"),
            "units_per_s": (sum(u for _, u in passed) / sum(t for t, _ in passed), "1/s"),
            "request_ms_p50": (statistics.median(t for t, _ in passed) * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} attempted {attempted}, failed {failed} "
          f"({len(requests)} requests per round, {rounds} rounds); self-test: "
          f"{tried - len(missed)} of {tried} perturbed outputs rejected")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
