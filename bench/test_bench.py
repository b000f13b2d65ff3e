"""Self-tests of the benchmark.

    python3 -m pytest -p no:cacheprovider bench/test_bench.py

They run the benchmark for one second per workload, so the whole file takes
about a minute.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELFTEST_DIR = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402
from demaz import format_perm, make_from_one_line  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=root,
    )


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_code_has():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_minimal_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert f"\n{name} = {m['value']} {m['unit']}\n" in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _groups(workload, seed, n):
    out_dir = os.path.join(SELFTEST_DIR, f"inputs-{workload}")
    wl = workloads.WORKLOADS[workload](seed, out_dir)
    gen = wl.groups()
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("workload", NAMES)
def test_one_seed_gives_one_input_list(workload):
    assert _groups(workload, 11, 12) == _groups(workload, 11, 12)
    assert _groups(workload, 11, 12) != _groups(workload, 12, 12)


@pytest.mark.parametrize("workload", [w for w in NAMES if workloads.WORKLOADS[w].pass_groups])
def test_a_pass_runs_the_whole_pool_for_every_seed(workload):
    """Whole passes time one multiset of ops, whichever seed orders them."""
    n = workloads.WORKLOADS[workload].pass_groups
    first, second = _groups(workload, 11, 2 * n), _groups(workload, 12, n)
    assert first[:n] == first[n:]
    assert first[:n] != second
    assert sorted(first[:n]) == sorted(second)


def test_sd_ep_is_the_canonical_form():
    rng = random.Random(5)
    for d in (1, 2, 5, 48):
        for _ in range(20):
            line = list(range(1, d + 1))
            rng.shuffle(line)
            assert workloads.sd_ep(line) == format_perm(make_from_one_line(line))


def _wrong(out):
    """A plausible but wrong result of the same type."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, int):
        return out + 1
    if isinstance(out, str):
        return "ep(k=1, lo=0; 0)" if out != "ep(k=1, lo=0; 0)" else "ep(k=1, lo=0; 0 2 1 3)"
    if isinstance(out, tuple) and isinstance(out[0], int):  # CLI (code, stdout)
        return (out[0], out[1] + "x")
    if isinstance(out, tuple) and isinstance(out[0], str):  # reduce
        return (out[0], _wrong(out[1]))
    points, periodic, period = out  # ess
    return (points + ((0, 0, 0),), periodic, period)


@pytest.mark.parametrize("workload", NAMES)
def test_checks_catch_wrong_results(workload):
    """Every check passes the library's result and refuses a wrong one."""
    memo = {}
    reference = lambda argv: memo.setdefault(tuple(argv), ops.cli_reference(NullTracer(), argv))
    src = os.path.join(ROOT, "src")
    for group in _groups(workload, 4, 2):
        star_out = None
        for kind, args, _ in group:
            args = tuple(star_out if a == workloads.STAR else a for a in args)
            out = ops.run_op(kind, args, src)
            if kind == "star":
                star_out = out
            assert ops.check(kind, args, out, reference) is None, (kind, args)
            assert ops.check(kind, args, _wrong(out), reference) is not None, (kind, args)


def test_injected_wrong_result_fails_the_run():
    proc = _run("--workload", "zoo-small", "--seed", "3", "--seconds", "1", "--inject-wrong")
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "errors.CheckFailed.count" in proc.stdout


def test_refuses_to_run_without_the_library_sources():
    bare = os.path.join(SELFTEST_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "zoo-small", "--seed", "1", "--seconds", "1", root=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
