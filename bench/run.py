"""The demaz benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload zoo-small --seed 1 --seconds 25 --trace 0

Workloads (bench/workloads.py): zoo-small, finitary-large, periodic, cli.
Each runs as a closed loop with one caller in a fresh interpreter: ops run
one at a time, and the results of a group of ops are checked before the next
group starts.  Every result is checked outside the timed section by a
separate checker process (bench/ops.py); a wrong or raising op counts as
failed and makes the exit code 1.  The failed ratio is the result line's failed / attempted.

With --trace 0 the last stdout line carries the end-to-end metrics:

    setup_s           median over five fresh interpreters of import,
                      input generation and warm-up
    throughput_ops_s  completed ops per second of op time
    latency_p50_ms    median latency over all ops
    latency_tail_ms   latency at the workload's fixed tail percentile,
                      printed with the number of samples beyond it
    product_p50_ms    median over star/tll/tlr/compose and CLI products
    query_p50_ms      median over order, ess, inv and render ops
    peak_rss_mb       peak resident memory of the workload process; for
                      cli, of the largest CLI subprocess

With --trace 1 the ops run through the library's public pipeline stages,
each inside a span (bench/tracer.py), and the line carries the per-layer
metrics: ``<layer>.ms`` is the layer's total self time over the run and
``<layer>.calls`` its span count; cli.main_ms and cli.startup_ms are
medians per call and cli.import_*_ms medians per interpreter.  A layer a
workload never calls reads 0.  Spans go to .bench_out/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MEASURE = os.path.join(HERE, "measure.py")
WORKLOADS = ("zoo-small", "finitary-large", "periodic", "cli")
SETUP_RUNS = 5
TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "product_p50_ms": "ms",
    "query_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "slipface.sf_from_perm.hit_ratio": "ratio",
    "perm.window_len.mean": "entries",
    "perm.diff_bound.mean": "steps",
    "trace.throughput_ops_s": "1/s",
    "trace.span_cost_us": "us",
}


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "ms" if name.endswith(("_ms", ".ms")) else "count"


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--inject-wrong",
        action="store_true",
        help="corrupt the first op's result before its check (self-test)",
    )
    return ap.parse_args(argv)


def _last_json(text: str, phase: str):
    lines = text.strip().splitlines()
    if not lines:
        raise SystemExit(f"the {phase} process printed no result")
    return json.loads(lines[-1])


def _setup_once(child_args):
    proc = subprocess.run(
        [sys.executable, MEASURE, "setup", *child_args],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the setup process exited with {proc.returncode}")
    return _last_json(proc.stdout, "setup")["setup_s"]


def _measure(child_args):
    """Run the measured process with a checker process wired to it."""
    to_checker_r, to_checker_w = os.pipe()
    from_checker_r, from_checker_w = os.pipe()
    checker = subprocess.Popen(
        [sys.executable, MEASURE, "check", *child_args],
        stdin=to_checker_r,
        stdout=from_checker_w,
        cwd=ROOT,
    )
    try:
        measured = subprocess.Popen(
            [
                sys.executable, MEASURE, "measure", *child_args,
                "--fds", f"{to_checker_w},{from_checker_r}",
            ],
            pass_fds=(to_checker_w, from_checker_r),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
    finally:
        for fd in (to_checker_r, to_checker_w, from_checker_r, from_checker_w):
            os.close(fd)
    try:
        out, err = measured.communicate(timeout=TIMEOUT_S)
    finally:
        if measured.poll() is None:
            measured.kill()
        measured.wait()
        # the checker ends when the measured process closes its pipe
        try:
            checker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            checker.kill()
            checker.wait()
    if measured.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"the measured process exited with {measured.returncode}")
    return _last_json(out, "measured")


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "demaz", "__init__.py")):
        print(f"no demaz sources under {SRC}", file=sys.stderr)
        return 2
    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--inject-wrong"] if args.inject_wrong else [])
    setups = [_setup_once(child_args) for _ in range(SETUP_RUNS - 1)]
    res = _measure(child_args)
    setups.append(res["setup_s"])

    tail = res["tail"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("inputs " + json.dumps(res["inputs"], sort_keys=True))
    print(f"latency_tail_ms is p{tail['pct']:g}: {tail['beyond']} of {tail['n']} samples beyond it")
    print(f"setup_s samples {[round(s, 4) for s in setups]}")
    print(f"failed_ratio {res['failed']}/{res['attempted']}")
    for cls, n in sorted(res["errors"].items()):
        print(f"errors.{cls}.count {n}")
    for reason in res["reasons"]:
        print(f"failure: {reason}")

    e2e = dict(res["e2e"], setup_s=statistics.median(setups))
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        metrics = res["layers"]
        for name, share in sorted(res["shares"].items()):
            print(f"share {name} {share:.3f}")
        _print_overhead(args, e2e)
    else:
        metrics = e2e
        path = os.path.join(OUT, f"result-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "e2e": e2e}, fh)
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]} {unit(name)}")

    correct = res["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _print_overhead(args, traced):
    """Tracing overhead: this traced run against the untraced run of the
    same workload and seed, when one was made before."""
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}.json")
    if not os.path.exists(path):
        print("tracing overhead: make a --trace 0 run of this seed to compare")
        return
    with open(path, encoding="utf-8") as fh:
        plain = json.load(fh)
    for k in ("latency_p50_ms", "throughput_ops_s"):
        a, b = plain["e2e"][k], traced[k]
        if a:
            print(f"tracing overhead {k}: {b - a:+.4f} ({b / a - 1:+.1%}) against the untraced run")


if __name__ == "__main__":
    sys.exit(main())
