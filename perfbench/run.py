#!/usr/bin/env python3
"""Benchmark of mahlerlift.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  One run
builds the workload's requests from the seed, then times a cold set-up
(importing the program, converting the inputs to its types, and warm-up
requests outside the timed set that pay first-call costs), times S rounds of
requests in one process and one thread, then checks every output against the
reference code in ``oracles.py``.  Times are reported at a reference machine
speed: a probe that never touches the program is timed between rounds and
scales each round's times (see ``Timing``).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same requests first run untraced in a child process, then traced in this
one; the metrics are the per-layer ones plus the tracing overhead, and the
two runs must produce identical outputs.  The exit code is 0 only when every
output is correct.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REF_PROBE_S = 0.01  # what probe() takes on the reference machine when it runs fast


def probe():
    """Time a fixed piece of work that never touches the program: the machine's speed now.

    Products of big rationals (like late iterates), many small Fractions and
    dict, list and string churn (like parsing a request); the minimum of three tries.
    The garbage collector is collected first and kept off while the probe runs,
    so the program's live heap does not change what the probe costs.
    """
    gc.collect()
    gc.disable()
    try:
        return min(_probe_once() for _try in range(3))
    finally:
        gc.enable()


def _probe_once():
    t = time.perf_counter()
    x = Fraction(5, 7)
    for _ in range(12):
        x = x * x + Fraction(1, 3)
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i, i + 2)
    doc = {str(i): [i, str(i * i)] for i in range(6000)}
    json.loads(json.dumps(doc))
    return time.perf_counter() - t


class Timing:
    """Per-request latencies and per-round wall and CPU times, with a probe between rounds.

    The machine's speed drifts by tens of percent over minutes, so every
    time is also scaled to the reference speed: a round's times are
    multiplied by REF_PROBE_S over the mean of the probes before and after it.
    This assumes that the probe's cost does not depend on the program's state.
    """

    def __init__(self):
        self.lat, self.lat_round = [], []
        self.wall, self.cpu = [], []
        self.probes = [probe()]

    def scale(self, r):
        return REF_PROBE_S / ((self.probes[r] + self.probes[r + 1]) / 2)

    def scaled_latencies(self):
        return [x * self.scale(r) for x, r in zip(self.lat, self.lat_round)]

    def scaled_wall(self):
        return sum(w * self.scale(r) for r, w in enumerate(self.wall))

    def scaled_cpu(self):
        return sum(c * self.scale(r) for r, c in enumerate(self.cpu))


def run_requests(rounds, tracer=None):
    """Call each request once, in order; returns (outputs, errors, Timing)."""
    outs, errors = [], []
    timing = Timing()
    clock = time.perf_counter
    for r, reqs in enumerate(rounds):
        c0, t0 = time.process_time(), clock()
        for req in reqs:
            if tracer is not None:
                tracer.request = len(outs) + 1
            s = clock()
            try:
                out, err = req.call(), None
            except Exception as e:  # a failed request is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            timing.lat.append(clock() - s)
            timing.lat_round.append(r)
            outs.append(out)
            errors.append(err)
        timing.wall.append(clock() - t0)
        timing.cpu.append(time.process_time() - c0)
        timing.probes.append(probe())
    return outs, errors, timing


def check_outputs(env, reqs, outs, errors):
    """(number of wrong outputs, self-test failures), reporting each on stderr."""
    from oracles import Mismatch

    env.known_answers()
    wrong = 0
    for req, out, err in zip(reqs, outs, errors):
        if err is not None:
            print(f"failed: {req.kind} {req.label}: {err}", file=sys.stderr)
            continue
        try:
            req.check(out)
        except Exception as e:  # an output the check cannot even read is wrong too
            wrong += 1
            kind = "" if isinstance(e, Mismatch) else f"{type(e).__name__}: "
            print(f"WRONG: {req.kind} {req.label}: {kind}{e}", file=sys.stderr)
    # each check must reject a corrupted copy of an output it accepted
    selftest = 0
    seen = set()
    for req, out, err in zip(reqs, outs, errors):
        if err is not None or req.kind in seen:
            continue
        seen.add(req.kind)
        for i, corrupt in enumerate(req.corrupts):
            try:
                req.check(corrupt(out))
            except Exception:  # rejected, as it must be
                continue
            selftest += 1
            print(f"SELF-TEST: the {req.kind} check accepted corrupted output {i}",
                  file=sys.stderr)
    return wrong, selftest


def digest(reqs, outs):
    h = hashlib.sha256()
    for req, out in zip(reqs, outs):
        h.update(req.canon(out).encode() if out is not None else b"<failed>")
        h.update(b"\0")
    return h.hexdigest()


def setup(args, root, sysdir):
    """Build the requests, then set up the program cold; returns (env, rounds, setup_s).

    The inputs and their reference data are made from the seed before the
    program is imported.  ``setup_s`` runs from just before the program's
    import to the end of the warm-up requests, and covers the conversion of
    every request's inputs to the program's types.
    """
    import workloads

    env = workloads.Env(root)
    warmup, rounds = workloads.build(args.workload, args.seed, max(1, args.seconds), env,
                                     sysdir)
    t0 = time.perf_counter()
    env.load_program()
    for req in warmup + [req for rnd in rounds for req in rnd]:
        req.prepare()
    for req in warmup:
        req.call()
    return env, rounds, time.perf_counter() - t0


def end_to_end(n, setup_s, timing, rss_mb, scaled):
    lat = timing.scaled_latencies() if scaled else timing.lat
    f0 = REF_PROBE_S / timing.probes[0] if scaled else 1.0
    wall = timing.scaled_wall() if scaled else sum(timing.wall)
    return {
        "setup_s": (setup_s * f0, "s"),
        "requests_per_s": (n / wall, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "cpu_s": (timing.scaled_cpu() if scaled else sum(timing.cpu), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def untraced(args, root, sysdir):
    env, rounds, setup_s = setup(args, root, sysdir)
    outs, errors, timing = run_requests(rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = [req for rnd in rounds for req in rnd]
    wrong, selftest = check_outputs(env, timed, outs, errors)
    failed = sum(e is not None for e in errors)
    raw = end_to_end(len(timed), setup_s, timing, rss_mb, scaled=False)
    print(f"backend {env.backend}")
    print(f"digest {digest(timed, outs)}")
    print(f"timed_s {timing.scaled_wall()!r}")
    print(f"requests {len(timed)} wrong {wrong} selftest_failures {selftest}")
    print("unscaled " + json.dumps({k: v for k, (v, _) in raw.items()}))
    print("probes_s " + json.dumps(timing.probes))
    metrics = end_to_end(len(timed), setup_s, timing, rss_mb, scaled=True)
    return wrong == 0 and selftest == 0, len(timed), failed, metrics


def traced(args, root, sysdir):
    import tracer as T

    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
    info = dict(line.split(" ", 1) for line in child.stdout.splitlines()
                if line.startswith(("digest ", "timed_s ")))
    if child.returncode != 0 or len(info) != 2:
        sys.stderr.write(child.stderr)
        print("the untraced run failed", file=sys.stderr)
        return False, 1, 1, None

    env, rounds, _ = setup(args, root, sysdir)
    tr = T.Tracer()
    certify = T.install(tr)
    before = certify.cache_info()
    outs, errors, timing = run_requests(rounds, tr)
    after = certify.cache_info()
    timed = [req for rnd in rounds for req in rnd]
    wrong, selftest = check_outputs(env, timed, outs, errors)
    same = digest(timed, outs) == info["digest"]
    if not same:
        print("the traced run's outputs differ from the untraced run's", file=sys.stderr)
    base, wall = float(info["timed_s"]), timing.scaled_wall()
    metrics = T.metrics(tr, after.hits - before.hits, after.misses - before.misses,
                        100.0 * (wall - base) / base)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    T.dump(tr, os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"),
           {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "backend": env.backend, "requests": [r.kind for r in timed],
            "latency_s": timing.lat, "probes_s": timing.probes,
            "traced_scaled_s": wall, "untraced_scaled_s": base})
    print(f"backend {env.backend}")
    print(f"traced_s {wall!r} untraced_s {base!r}")
    failed = sum(e is not None for e in errors)
    return wrong == 0 and selftest == 0 and same, len(timed), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ideal-ranks", "series-relations", "request-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="rounds of requests; one round is about a second of work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mahlerlift", "__init__.py")):
        print("perfbench: no src/mahlerlift here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    sysdir = os.path.join(HERE, "out", f"systems-{os.getpid()}")
    os.makedirs(sysdir, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(args, root, sysdir)
    finally:
        shutil.rmtree(sysdir, ignore_errors=True)
    if metrics is None:
        return 1
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="ascii") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
