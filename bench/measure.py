"""The processes behind bench/run.py: workload set-up, measurement, checking.

    measure.py setup   ...  set up once, print {"setup_s": ...}
    measure.py measure ...  set up, run the closed loop, print the raw results
    measure.py check   ...  read ops on stdin, answer one verdict per line

The checker is a process of its own, so checks never touch the measured
process's caches or memory.  The measured process times a group of ops
back to back, then sends their results and waits for the verdicts before it
starts the next group.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _import_demaz():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import demaz

    if not os.path.abspath(demaz.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"demaz imported from {demaz.__file__}, not from {SRC}")


def _jsonable(out):
    return json.loads(json.dumps(out))


def _pct(values, pct):
    """Nearest-rank percentile of a nonempty list."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * pct / 100) - 1)]


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0


# ---------------------------------------------------------------------------
# the checker process


def serve_checks(args) -> int:
    import ops
    from tracer import NullTracer

    memo: dict = {}
    # a check is a function of its message alone, so a message seen before
    # (an op a whole-pass workload repeats, with the same output) gets the
    # verdict it got then, and later passes spend no time checking
    verdicts: dict = {}

    def reference(argv):
        key = tuple(argv)
        if key not in memo:
            memo[key] = ops.cli_reference(NullTracer(), argv)
        return memo[key]

    for line in sys.stdin:
        if line in verdicts:
            sys.stdout.write(verdicts[line])
            sys.stdout.flush()
            continue
        msg = json.loads(line)
        kind, op_args, out = msg["kind"], msg["args"], msg["out"]
        try:
            reason = ops.check(kind, op_args, out, reference, msg.get("star"))
            if reason is None and args.trace:
                reason = _traced_equal(ops, kind, op_args, out, msg, reference)
        except Exception as e:  # a check that cannot run fails the op
            reason = f"check raised {e!r}"
        verdicts[line] = json.dumps({"reason": reason}) + "\n"
        sys.stdout.write(verdicts[line])
        sys.stdout.flush()
    return 0


def _traced_equal(ops, kind, op_args, out, msg, reference):
    """The traced run must give the untraced run's results."""
    if kind.startswith("cli."):
        want = list(reference(op_args))
        for name in ("main", "pipeline"):
            if msg[name] != want:
                return f"in-process {name} gave {msg[name]!r}, expected {want!r}"
        return None
    if _jsonable(ops.run_op(kind, op_args, SRC)) != out:
        return "traced result differs from the untraced one"
    return None


# ---------------------------------------------------------------------------
# the measured process


class Loop:
    """The closed loop: one op at a time; a group's ops are checked
    together once the group has run, before the next group starts."""

    def __init__(self, args, tracer, checker):
        import ops
        from demaz import sf_from_perm

        self.ops = ops
        self.cache_info = sf_from_perm.cache_info
        self.tr = tracer
        self.traced = bool(args.trace)
        self.checker = checker
        self.inject = args.inject_wrong
        self.lat: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.reasons: list[str] = []
        self.repeats = 0
        self.operands: set = set()
        self.cache = [0, 0]
        self.cli_main: list[float] = []
        self.cli_startup: list[float] = []

    def _fail(self, kind, cls, detail):
        self.failed += 1
        self.errors[cls] = self.errors.get(cls, 0) + 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{kind}: {detail}")

    def group(self, group, deadline=None, record=True):
        """Run one group of ops; False when the deadline cut it short."""
        from workloads import STAR

        ops, tr = self.ops, self.tr
        star_out = None
        done = []  # (kind, latency, message) of the ops to check
        whole = True
        for kind, args, checked in group:
            if deadline is not None and time.perf_counter() >= deadline:
                whole = False
                break
            args = tuple(star_out if a == STAR else a for a in args)
            if record:
                self.attempted += 1
                self.repeats += all(a in self.operands for a in args)
                self.operands.update(args)
            tr.op_id += 1
            ci = self.cache_info()
            t0 = time.perf_counter()
            try:
                if self.traced:
                    out = tr.call("op." + kind, ops.run_traced, tr, kind, args, SRC)
                else:
                    out = ops.run_op(kind, args, SRC)
            except Exception as e:  # a raising op is a failed op, not a crash
                if record:
                    self._fail(kind, type(e).__name__, repr(e))
                continue
            dt = time.perf_counter() - t0
            if kind == "star":
                star_out = out
            if not record:
                continue
            msg = {"kind": kind, "args": args, "out": out, "star": star_out}
            if self.traced:
                msg.update(self._probes(kind, args, out))
            ci2 = self.cache_info()
            self.cache[0] += ci2.hits - ci.hits
            self.cache[1] += ci2.misses - ci.misses
            if self.inject and checked:
                msg["out"], self.inject = ["corrupted", out], False
            done.append((kind, dt, msg if checked else None))
        msgs = [m for _, _, m in done if m is not None]
        reasons = iter(tr.call("oracle.check", self._check, msgs) if msgs else ())
        for kind, dt, msg in done:
            reason = None if msg is None else next(reasons)
            if reason is not None:
                self._fail(kind, "CheckFailed", reason)
            else:
                self.lat.append((kind, dt))
        return whole

    def _check(self, msgs):
        self.checker[0].write("".join(json.dumps(m) + "\n" for m in msgs))
        self.checker[0].flush()
        reasons = []
        for _ in msgs:
            line = self.checker[1].readline()
            if not line:
                raise SystemExit("the checker process ended early")
            reasons.append(json.loads(line)["reason"])
        return reasons

    def _probes(self, kind, args, out) -> dict:
        """Per-layer probes of the traced run, off the timed path."""
        ops, tr = self.ops, self.tr
        extra = {}
        if kind.startswith("cli."):
            span = tr.spans[-1]  # the cli.subprocess span just closed
            t0 = time.perf_counter()
            extra["main"] = tr.call("cli.main", ops.cli_main_captured, args)
            main_s = time.perf_counter() - t0
            self.cli_main.append(main_s)
            self.cli_startup.append(span[2] - span[1] - main_s)
            extra["pipeline"] = ops.cli_reference(tr, args)
            out = out[1]
        for text in out if isinstance(out, tuple) else (out,):
            if isinstance(text, str):
                tr.call("perm.from_window", ops.revalidate, text)
        return extra


def _import_probes(n=5):
    """Medians of bare, numpy and demaz interpreter start-ups, in seconds."""
    codes = {
        "bare": "pass",
        "numpy": "import numpy",
        "demaz": f"import sys; sys.path.insert(0, {SRC!r}); import demaz",
    }
    times = {k: [] for k in codes}
    for _ in range(n):
        for k, code in codes.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            times[k].append(time.perf_counter() - t0)
    return {k: statistics.median(v) for k, v in times.items()}


def measure(args) -> int:
    import resource

    import tracer
    from ops import category
    from workloads import WORKLOADS

    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    tr = tracer.Tracer() if args.trace else tracer.NullTracer()
    checker = None
    if args.phase == "measure":
        w, r = (int(fd) for fd in args.fds.split(","))
        checker = (os.fdopen(w, "w"), os.fdopen(r, "r"))
    loop = Loop(args, tr, checker)
    for g in wl.warmup():
        loop.group(g, record=False)
    setup_s = time.perf_counter() - _T0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probes = span_cost = None
    if args.trace:
        span_cost = tracer.span_cost_s()
        if wl.name == "cli":
            probes = _import_probes()
        tr.spans.clear()
        tr.counters.clear()
        tr.op_id = -1
    deadline = time.perf_counter() + args.seconds
    for i, g in enumerate(wl.groups()):
        if not wl.pass_groups:
            if not loop.group(g, deadline):
                break
        elif i % wl.pass_groups == 0 and time.perf_counter() >= deadline:
            break
        else:
            loop.group(g)

    all_s = [d for _, d in loop.lat]
    prod = [d for k, d in loop.lat if category(k) == "product"]
    query = [d for k, d in loop.lat if category(k) == "query"]
    tail = _pct(all_s, wl.tail_pct) if all_s else 0.0
    rss = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    e2e = {
        "throughput_ops_s": len(all_s) / sum(all_s) if all_s else 0.0,
        "latency_p50_ms": _median_ms(all_s),
        "latency_tail_ms": tail * 1e3,
        "product_p50_ms": _median_ms(prod),
        "query_p50_ms": _median_ms(query),
        "peak_rss_mb": resource.getrusage(rss).ru_maxrss / 1024.0,
    }
    result = {
        "setup_s": setup_s,
        "e2e": e2e,
        "tail": {
            "pct": wl.tail_pct,
            "beyond": sum(1 for d in all_s if d > tail),
            "n": len(all_s),
        },
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "reasons": loop.reasons,
        "inputs": _input_stats(loop),
    }
    if args.trace:
        result["layers"], result["shares"] = _layers(loop, probes, span_cost, e2e)
        os.makedirs(OUT, exist_ok=True)
        tr.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


def _input_stats(loop):
    from demaz import parse_perm

    ps = [parse_perm(t) for t in loop.operands if t.startswith("ep(")]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return {
        "distinct_operands": len(ps),
        "window_len_mean": mean([len(p.vals) for p in ps]),
        "window_len_max": max((len(p.vals) for p in ps), default=0),
        "period_max": max((p.period for p in ps), default=0),
        "periodic_share": mean([p.period > 1 for p in ps]),
        "diff_bound_mean": mean([p.diff_bound for p in ps]),
        "abs_chi_max": max((abs(p.chi) for p in ps), default=0),
        "repeat_share": loop.repeats / loop.attempted if loop.attempted else 0.0,
    }


LAYER_MS = (
    "slipface.sf_star",
    "slipface.sf_tll",
    "slipface.sf_tlr",
    "slipface.sf_to_perm",
    "slipface.sf_from_perm",
    "slipface.sf_leq_ess",
    "slipface.ess_set",
    "order.bruhat_leq",
    "order.weak_left_leq",
    "perm.compose",
    "perm.inverse",
    "perm.inv_count",
    "perm.from_window",
    "demazure.reduce",
    "demazure.is_reduced_pair",
    "grammar.parse_perm",
    "grammar.format_perm",
    "render.render",
    "oracle.check",
)
KERNEL_COUNTS = (
    "slipface.kernel_cells",
    "slipface.result_box_cells",
    "slipface.widen_retries",
)


def _layers(loop, probes, span_cost, e2e):
    tr = loop.tr
    selfs = tr.self_times()
    out = {}
    for name in LAYER_MS:
        total, calls = selfs.get(name, (0.0, 0))
        out[name + ".ms"] = total * 1e3
        out[name + ".calls"] = calls
    for name in KERNEL_COUNTS:
        out[name] = tr.counters.get(name, 0)
    hits, misses = loop.cache
    out["slipface.sf_from_perm.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    n = tr.counters.get("perm.operands", 0)
    out["perm.window_len.mean"] = tr.counters.get("perm.window_len", 0) / n if n else 0.0
    out["perm.diff_bound.mean"] = tr.counters.get("perm.diff_bound", 0) / n if n else 0.0
    if probes:
        out["cli.import_numpy_ms"] = (probes["numpy"] - probes["bare"]) * 1e3
        out["cli.import_demaz_ms"] = (probes["demaz"] - probes["numpy"]) * 1e3
    else:
        out["cli.import_numpy_ms"] = out["cli.import_demaz_ms"] = 0.0
    out["cli.main_ms"] = _median_ms(loop.cli_main)
    out["cli.startup_ms"] = _median_ms(loop.cli_startup)
    out["errors.count"] = loop.failed
    out["trace.latency_p50_ms"] = e2e["latency_p50_ms"]
    out["trace.throughput_ops_s"] = e2e["throughput_ops_s"]
    out["trace.span_cost_us"] = span_cost * 1e6
    # the layer picture printed beside the metrics: the kernels' share of
    # product-op time and of all op time
    kernel = sum(selfs.get(f"slipface.sf_{k}", (0.0, 0))[0] for k in ("star", "tll", "tlr"))
    product = sum(d for k, d in loop.lat if k in ("star", "tll", "tlr"))
    total = sum(d for _, d in loop.lat)
    share = {
        "kernel_of_products": kernel / product if product else 0.0,
        "kernel_of_all_ops": kernel / total if total else 0.0,
    }
    if loop.cli_startup:
        share["startup_of_cli_latency"] = sum(loop.cli_startup) / total
    return out, share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("phase", choices=("setup", "measure", "check"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", action="store_true")
    ap.add_argument("--fds", help="the checker's input and output pipes")
    args = ap.parse_args(argv)
    _import_demaz()
    if args.phase == "check":
        return serve_checks(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
