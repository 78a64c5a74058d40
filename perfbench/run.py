"""End-to-end and per-layer benchmark of the ``bertini`` command line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every measured call is one
``bertinilab.cli.main(argv)`` in a fresh child interpreter (``child.py``),
with ``--output`` pointing at a temporary file; children run strictly one
at a time.  The run keeps starting calls until ``--seconds`` would be
exceeded (at least ``MIN_ROUNDS``), checks every report against the digest
recorded in ``digests.json`` (or, for a seed with no record, against the
first call of the run), and prints a table followed by one JSON line.

``--trace 0`` reports the end-to-end metrics, with timings scaled to a
reference machine speed by a calibration kernel timed around every call
(see "Speed calibration" below).  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
ones, their exact count invariants and the tracing overhead.  A full
record, with machine facts and a noise record, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

MIN_ROUNDS = 2
CALL_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple            # CLI arguments, without --seed
    seeded: bool
    item: str              # what items_per_s counts
    items: Callable        # report "results" -> work items the call completed
    invariant: tuple       # (per-layer count, exact value) checked on every traced call
    kernel: str            # the calibration kernel doing the run's kind of work

    def argv(self, seed):
        return list(self.args) + (["--seed", str(seed)] if self.seeded else [])


MULTIFIBER_N = 5000
BSW_N = 4000
CONIC_N = 100000

WORKLOADS = {w.name: w for w in (
    Workload("multifiber-p1",
             ("multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7",
              "--r", "4", "--samples", str(MULTIFIBER_N)),
             True, "section x fiber", lambda r: r["samples"] * len(r["primes"]),
             ("p1sections.binary_section_report.calls", 4 * MULTIFIBER_N), "interp"),
    Workload("maximal-orders",
             ("bsw", "--d", "3", "--R", "1000", "--T", "1000",
              "--samples", str(BSW_N)),
             True, "polynomial", lambda r: r["samples"],
             ("arithlab.discriminant.calls", BSW_N), "interp"),
    Workload("density-conic",
             ("fiber-density", "--scheme", "schemes/conic_f2.json", "--p", "3",
              "--d", "6", "--r", "5", "--mode", "mc", "--samples", str(CONIC_N)),
             True, "section", lambda r: r["samples"],
             ("fiberlab.census.rows", CONIC_N), "interp"),
    Workload("zeta-deep",
             ("zeta", "--scheme", "schemes/p1z.json", "--p", "2", "--s", "3",
              "--r", "17"),
             False, "closed point", lambda r: sum(r["a_e"]),
             ("cli.render_report.calls", 1), "bigint"),
)}

# name -> (unit, better); printed with --trace 0, in this order
END_TO_END = {
    "run_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
MAX_CLOSED_POINT_DEGREE = 5


def per_layer_metrics():
    """name -> (unit, better) of every metric printed with --trace 1."""
    out = {"cli.run.total_s": ("s", "lower")}
    for module, path, kind in tracer.TARGETS:
        out[f"{module}.{path}.calls"] = ("count", "lower")
        if kind != tracer.COUNT:
            out[f"{module}.{path}.self_s"] = ("s", "lower")
    out["cli.report_bytes"] = ("bytes", "lower")
    out["p1sections.rescued_points"] = ("count", "lower")
    for e in range(1, MAX_CLOSED_POINT_DEGREE + 1):
        out[f"projgeom.closed_points.deg{e}"] = ("count", "lower")
    for key in ("rows", "singular_rows", "rescued_points"):
        out[f"fiberlab.census.{key}"] = ("count", "lower")
    out["arithlab.dedekind.shortcut_ratio"] = ("ratio", "higher")
    out["trace_overhead"] = ("ratio", "lower")
    return out


# ----------------------------------------------------------------------
# Speed calibration.
#
# On a shared host the same code runs 20-50% slower in phases that last
# from seconds to minutes, longer than a run, and the guest sees no steal
# time for it.  So the parent times a fixed kernel right before and right
# after every call, in its own process, and the timings are reported in
# reference seconds: measured seconds x (reference kernel time / kernel
# time around the call).  Each workload uses the kernel that does its kind
# of work: interpreted integer loops, or big-integer-to-text conversion,
# which feels those phases differently.  Set-up (interpreter start and imports)
# is interpreted work on every workload.  The kernels never touch
# bertinilab.

def _interp_kernel():
    acc = 0
    data = [i % 97 for i in range(20000)]
    for _ in range(40):
        for i, c in enumerate(data):
            acc = (acc * 31 + c * i) % 1000003
    return acc


def _bigint_kernel():
    return len(str(3 ** 150000))


# kernel -> (function, its seconds on the reference machine: a 2-vCPU
# Intel Xeon VM, Python 3.11.7)
KERNELS = {"interp": (_interp_kernel, 0.080), "bigint": (_bigint_kernel, 0.085)}


def calibrate():
    """{kernel: seconds} of one pass of every kernel."""
    out = {}
    for name, (fn, _) in KERNELS.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


# ----------------------------------------------------------------------
# Output digests.

def report_digest(text):
    """sha256 of a JSON report with ``duration_s`` removed.

    Integers are kept as their decimal text (tagged, so they stay apart
    from strings), which avoids converting the huge numerators of deep
    zeta truncations; the canonical re-serialization makes the digest
    independent of whitespace and key order.
    """
    doc = json.loads(text, parse_int=lambda s: "int:" + s)
    doc.pop("duration_s", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def argv_key(argv):
    return " ".join(argv)


# ----------------------------------------------------------------------
# One CLI call.

def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def one_call(workload, seed, traced, tmp):
    """Run one CLI call; return its measurements or the reason it failed."""
    report = os.path.join(tmp, "report.json")
    measured = os.path.join(tmp, "measured.json")
    spans = os.path.join(tmp, "spans.npz")
    for path in (report, measured, spans):
        if os.path.exists(path):
            os.remove(path)
    argv = workload.argv(seed)
    cmd = [sys.executable, CHILD, measured, spans if traced else "-", "--",
           *argv, "--output", report]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {CALL_TIMEOUT_S} s"}
    err = proc.stderr.decode(errors="replace").strip()[-500:]
    if proc.returncode != 0 or not os.path.exists(measured):
        return {"traced": traced, "error": f"child exited {proc.returncode}: {err}"}
    with open(measured, encoding="utf-8") as fh:
        m = json.load(fh)
    if m["status"] != 0:
        return {"traced": traced, "error": f"bertini exited {m['status']}: {err}"}
    try:
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
        # the few fields read here are small; skipping the huge zeta
        # numerators avoids a quadratic text-to-int conversion
        results = json.loads(text, parse_int=lambda s: int(s) if len(s) < 100 else None)
        results = results["results"]
        items = workload.items(results)
        digest = report_digest(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"traced": traced, "error": f"unreadable report: {exc!r}"}
    if workload.seeded and results.get("seed") != seed:
        return {"traced": traced, "error": f"report echoes seed {results.get('seed')}"}
    call = {"traced": traced, "setup_s": m["t_imported"] - t_spawn, "run_s": m["run_s"],
            "cpu_s": m["cpu_s"], "peak_rss_mb": m["maxrss_kb"] / 1024.0,
            "items": items, "report_bytes": len(text.encode()), "digest": digest}
    if traced:
        call["spans"], call["counts"] = tracer.load(spans)
    return call


def layer_values(call):
    """Per-layer metric values of one traced call."""
    spans, counts = call["spans"], call["counts"]
    values = {"cli.run.total_s": spans["cli.run"]["total_s"],
              "cli.report_bytes": call["report_bytes"]}
    for name, agg in spans.items():
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.self_s"] = agg["self_s"]
    values.update(counts)
    ded_calls = spans["arithlab.dedekind_p_maximal"]["calls"]
    values["arithlab.dedekind.shortcut_ratio"] = (
        counts.get("arithlab.dedekind.shortcuts", 0) / ded_calls if ded_calls else 0.0)
    values.pop("arithlab.dedekind.shortcuts", None)
    return values


# ----------------------------------------------------------------------
# Machine facts and noise record (read-only reads of /proc).

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def noise_sample():
    stat = _read("/proc/stat") or ""
    cpu = next((line.split() for line in stat.splitlines() if line.startswith("cpu ")), None)
    return {"monotonic": time.monotonic(),
            "loadavg": (_read("/proc/loadavg") or "").strip() or None,
            "cpu_jiffies": {"user": int(cpu[1]), "system": int(cpu[3]),
                            "idle": int(cpu[4]), "steal": int(cpu[8])} if cpu else None}


def git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts():
    import numpy
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "platform": platform.platform(),
            "git_commit": git_commit(),
            "limits": "wall-clock and per-process CPU/RSS only: no system-wide "
                      "tracing and no hardware counters (an unprivileged "
                      "container has neither)"}


# ----------------------------------------------------------------------
# Statistics.

def tail_percentile(values):
    """(q, value) for the highest q in 99/95/90/75 with >= 10 samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def summarize(values, unit):
    line = f"median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    line += f", p{tail[0]} {tail[1]:.6g} {unit}" if tail else ", no tail beyond the median (n < 40)"
    return line + f", n={len(values)}"


# ----------------------------------------------------------------------
# The run.

def measure(workload, seed, seconds, trace, tmp):
    """Alternate rounds of calls until the next round would overrun ``seconds``.

    Each call gets ``cal_s``, per kernel the mean of the timings just
    before and just after it.
    """
    kinds = (False, True) if trace else (False,)
    calls, round_s = [], []
    t_end = time.monotonic() + seconds
    cal = calibrate()
    while True:
        t0 = time.monotonic()
        for traced in kinds:
            call = one_call(workload, seed, traced, tmp)
            cal_next = calibrate()
            call["cal_s"] = {k: (cal[k] + cal_next[k]) / 2 for k in cal}
            cal = cal_next
            calls.append(call)
        round_s.append(time.monotonic() - t0)
        if (len(round_s) >= MIN_ROUNDS
                and time.monotonic() + statistics.median(round_s) > t_end):
            return calls


def check(workload, seed, calls, recorded):
    """Mark failed calls in place; return the digest every call had to match."""
    expected = recorded.get(argv_key(workload.argv(seed)))
    for call in calls:
        if "error" in call:
            continue
        if expected is None:
            expected = call["digest"]       # unrecorded seed: the run must agree
        if call["digest"] != expected:
            call["error"] = f"report digest {call['digest'][:12]} != {expected[:12]}"
        elif call["traced"]:
            name, value = workload.invariant
            got = layer_values(call).get(name, 0)
            if got != value:
                call["error"] = f"invariant {name} = {got}, expected {value}"
    return expected


def end_to_end(workload, calls, raw=False):
    """Per-call values of each end-to-end metric, from the untraced calls
    that completed (a wrong report fails the run, but its timing shows).

    Timings are in reference seconds unless ``raw``.
    """
    ok = [c for c in calls if "run_s" in c and not c["traced"]]
    run = [1.0 if raw else speed(c, workload.kernel) for c in ok]
    setup = [1.0 if raw else speed(c, "interp") for c in ok]
    return {
        "run_s": [c["run_s"] * k for c, k in zip(ok, run)],
        "items_per_s": [c["items"] / (c["run_s"] * k) for c, k in zip(ok, run)],
        "cpu_s": [c["cpu_s"] * k for c, k in zip(ok, run)],
        "setup_s": [c["setup_s"] * k for c, k in zip(ok, setup)],
        "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
    }


def speed(call, kernel):
    """Reference seconds per measured second around this call."""
    return KERNELS[kernel][1] / call["cal_s"][kernel]


def per_layer(calls, kernel):
    """(medians of the traced calls' layer values, error or None).

    Counts and ratios are deterministic for a fixed seed, so they must
    agree between the traced calls of a run.  A traced call that completed
    counts here even when it failed a check, so that the failure shows
    next to its numbers.
    """
    traced = [layer_values(c) for c in calls if "spans" in c]
    out, error = {}, None
    for name, (unit, _) in per_layer_metrics().items():
        if name == "trace_overhead":
            continue
        vals = [t.get(name, 0) for t in traced]
        exact = unit in ("count", "ratio")
        if exact and len(set(vals)) > 1 and error is None:
            error = f"{name} differs between traced calls: {sorted(set(vals))}"
        out[name] = vals[0] if exact else statistics.median(vals)
    def median_run_s(ok):
        return statistics.median(c["run_s"] * speed(c, kernel) for c in calls if ok(c))

    out["trace_overhead"] = (median_run_s(lambda c: "spans" in c)
                             / median_run_s(lambda c: "run_s" in c and not c["traced"])
                             - 1.0)
    return out, error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)   # for the big-integer calibration kernel

    if not os.path.isfile(os.path.join(ROOT, "src", "bertinilab", "cli.py")):
        print(f"error: no bertinilab sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    recorded = load_digests()
    os.makedirs(OUT, exist_ok=True)

    noise_before = noise_sample()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        warm = subprocess.run([sys.executable, CHILD, os.path.join(tmp, "warm.json"), "-",
                               "--", "--version"], cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CALL_TIMEOUT_S)
        if warm.returncode != 0:
            print(f"error: the child cannot import bertinilab:\n"
                  f"{warm.stderr.decode(errors='replace')}", file=sys.stderr)
            return 2
        calls = measure(workload, args.seed, args.seconds, args.trace == 1, tmp)
    noise_after = noise_sample()

    digest = check(workload, args.seed, calls, recorded)
    failed = [c for c in calls if "error" in c]
    e2e = end_to_end(workload, calls)
    e2e_raw = end_to_end(workload, calls, raw=True)
    if not e2e["run_s"] or (args.trace and not any("spans" in c for c in calls)):
        for c in failed[:5]:
            print(f"failed call: {c['error']}", file=sys.stderr)
        print("error: no call completed", file=sys.stderr)
        return 1
    layers, layer_error = per_layer(calls, workload.kernel) if args.trace else (None, None)
    correct = not failed and layer_error is None

    print(f"workload {workload.name}: {' '.join(workload.argv(args.seed))}")
    print(f"  item: {workload.item}; calls attempted {len(calls)}, failed {len(failed)}, "
          f"failed_ratio {len(failed) / len(calls):.6g} ratio; digest {digest[:16]} "
          f"({'recorded' if argv_key(workload.argv(args.seed)) in recorded else 'run-consistent'})")
    for name, values in e2e.items():
        unit = END_TO_END[name][0]
        print(f"  {name:12s} {summarize(values, unit)}; "
              f"measured median {statistics.median(e2e_raw[name]):.6g} {unit}")
    for c in failed:
        print(f"  FAILED ({'traced' if c['traced'] else 'untraced'}): {c['error']}")
    if layer_error:
        print(f"  FAILED: {layer_error}")

    if args.trace:
        units = per_layer_metrics()
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in layers.items()}
        for name, v in layers.items():
            if v:
                print(f"  {name:50s} {v:.6g} {units[name][0]}")
    else:
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k][0]}
                   for k, v in e2e.items()}

    record = {"workload": workload.name, "argv": workload.argv(args.seed),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "item": workload.item, "machine": machine_facts(),
              "noise": {"before": noise_before, "after": noise_after},
              "digest": digest, "correct": correct, "attempted": len(calls),
              "failed": len(failed), "failed_ratio": len(failed) / len(calls),
              "metrics": metrics,
              "tails": {k: tail_percentile(v) for k, v in e2e.items()},
              "measured_medians": {k: statistics.median(v) for k, v in e2e_raw.items()},
              "calibration": {"run_kernel": workload.kernel, "setup_kernel": "interp",
                              "reference_s": {k: v[1] for k, v in KERNELS.items()}},
              "calls": [{**{k: v for k, v in c.items() if k not in ("spans", "counts")},
                         **({"layers": layer_values(c)} if "spans" in c else {})}
                        for c in calls]}
    path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
