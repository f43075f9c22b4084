"""inconlog benchmark: one closed-loop client driving cli.run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  See perfbench/README.md
for the workloads and how to read the output.  The last line of stdout is
one JSON object; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 12
CHILD_TIMEOUT_S = 150
# The tail is this percentile of every attempt of the run, lowered only
# when fewer than 200 samples would leave under TAIL_BEYOND beyond it.
TAIL_PERCENTILE = 95.0
TAIL_BEYOND = 10
# The host's speed is sampled with harness.probe at least this often
# during the loop, and every reported time is scaled, pass by pass, to a
# host on which the probe takes PROBE_REFERENCE_S (see README, "Host speed").
PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.0005


@dataclass
class Pass:
    tag: str
    attempts: list  # harness.Attempt per query, in query order
    wall: float
    probes: List[float]  # harness.probe seconds during the pass; empty if not probed
    outcomes: Optional[List[str]] = None

    @property
    def scale(self) -> float:
        """Factor from this pass's times to the reference host's.

        A trimmed mean, not a median: the host switches between speed
        levels, and the median of a two-level sample jumps between them.
        The slowest and fastest 5% of probes are cut as interruptions.
        """
        cut = len(self.probes) // 20
        kept = sorted(self.probes)[cut:len(self.probes) - cut]
        return PROBE_REFERENCE_S / statistics.mean(kept)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _write_inputs(queries, root: Path, tag: str) -> None:
    for template in {q.template.name: q.template for q in queries}.values():
        template.path(root, tag).write_text(template.text.replace("@", tag), encoding="utf-8")


def run_pass(queries, runner, tag: str, tracer=None, probe: bool = False) -> Pass:
    """One pass over the query list on freshly written inputs.

    With `probe`, host probes run between queries and once at the end;
    they do not count in the pass's wall time.
    """
    _write_inputs(queries, WORK, tag)
    gc.collect()
    attempts = []
    probes: List[float] = []
    probing = 0.0
    start = last_probe = time.perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.query = f"{tag}{q.qid}"
        attempts.append(runner.run(q.argv(WORK, tag)))
        if probe and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            before = time.perf_counter()
            probes.append(harness.probe())
            last_probe = time.perf_counter()
            probing += last_probe - before
    wall = time.perf_counter() - start - probing
    if probe:
        probes.append(harness.probe())
    return Pass(tag, attempts, wall, probes)


def check(queries, expected, passes: List[Pass]) -> None:
    """Classify every attempt against its expected answer (outside the loop)."""
    for p in passes:
        p.outcomes = []
        for q, attempt in zip(queries, p.attempts):
            exp = expected[q.qid]
            written_ok = True
            if exp.written is not None and attempt.status is None and attempt.rc == 0:
                out = q.out_path(WORK, p.tag)
                written_ok = out.is_file() and out.read_text(encoding="utf-8") == exp.written(p.tag)
            p.outcomes.append(attempt.outcome(exp.rc, exp.stdout(p.tag), written_ok))


def _failed(outcome: str) -> bool:
    return outcome not in ("ok", "no")


def _latencies(p: Pass) -> List[float]:
    """Per-query seconds; a failed query counts as the whole deadline."""
    return [harness.DEADLINE_S if _failed(o) else a.seconds for a, o in zip(p.attempts, p.outcomes)]


def _tail(samples: List[float]) -> Tuple[float, int]:
    """(value, rank): nearest-rank TAIL_PERCENTILE, with TAIL_BEYOND samples beyond it."""
    rank = max(1, min(math.ceil(TAIL_PERCENTILE / 100 * len(samples)), len(samples) - TAIL_BEYOND))
    return sorted(samples)[rank - 1], rank


def _plan(queries, mode: str) -> Path:
    """Write the inputs and the plan file a child process runs."""
    plan = WORK / f"plan-{mode}.json"
    tag = f"{mode}_"
    _write_inputs(queries, WORK, tag)
    plan.write_text(json.dumps({
        "src": str(SRC), "queries": [q.argv(WORK, tag) for q in queries],
    }), encoding="utf-8")
    return plan


def _child(plan: Path, mode: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), str(plan), mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
    )
    if done.returncode != 0:
        _fail(f"{mode} child failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report_outcomes(name: str, queries, passes: List[Pass]) -> Counter:
    counts = Counter(o for p in passes for o in p.outcomes)
    print(f"{name} outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    rows: Dict[tuple, list] = defaultdict(list)
    for p in passes:
        for q, a, o in zip(queries, p.attempts, p.outcomes):
            t = q.template
            rows[(t.family, q.command)].append((a.seconds, o))
    print(f"{'family':<16} {'command':<20} {'n':>4} {'median_ms':>10} {'max_ms':>9}  outcomes")
    for (family, command), values in sorted(rows.items()):
        times = [s * 1000 for s, _ in values]
        tally = Counter(o for _, o in values)
        print(f"{family:<16} {command:<20} {len(values):>4} {statistics.median(times):>10.2f} "
              f"{max(times):>9.2f}  " + ",".join(f"{k}={v}" for k, v in sorted(tally.items())))
    return counts


def _write_results(path: Path, queries, passes: List[Pass]) -> None:
    """One JSON line per attempt, with the input properties to split results by."""
    with path.open("w", encoding="utf-8") as handle:
        for p in passes:
            for q, a, o in zip(queries, p.attempts, p.outcomes):
                t = q.template
                handle.write(json.dumps({
                    "pass": p.tag, "query": q.qid, "command": q.command, "family": t.family,
                    "template": t.name, "premises": t.premises, "atoms": t.atoms,
                    "density": t.density, "seconds": a.seconds, "outcome": o,
                }) + "\n")


def end_to_end(queries, expected, runner, seconds: float):
    # Template order, not the seed's shuffle, so the peak comes at the same point.
    by_template = sorted(queries, key=lambda q: (q.template.name, q.qid))
    rss = _child(_plan(by_template, "rss"), "rss")["peak_rss_mb"]
    setup_plan = _plan(queries[:1], "setup")
    setup: List[Tuple[float, float]] = []  # (measured, scaled by the pass before it)
    passes: List[Pass] = []
    spent = 0.0
    while not passes or spent < seconds:
        p = run_pass(queries, runner, f"r{len(passes)}_", probe=True)
        passes.append(p)
        spent += p.wall
        # The set-up interpreters due by now, so they span the loop.
        due = SETUP_RUNS if spent >= seconds else int(SETUP_RUNS * spent / seconds)
        while len(setup) < due:
            measured = _child(setup_plan, "setup")["setup_s"]
            setup.append((measured, measured * p.scale))
    check(queries, expected, passes)
    counts = _report_outcomes("untraced", queries, passes)
    _write_results(WORK / "results.jsonl", queries, passes)

    attempted = sum(len(p.attempts) for p in passes)
    failed = sum(v for k, v in counts.items() if _failed(k))
    # A failure counts as the deadline, scaled or not.
    measured = [s for p in passes for s in _latencies(p)]
    scaled = [s if _failed(o) else s * p.scale
              for p in passes for s, o in zip(_latencies(p), p.outcomes)]
    tail_s, rank = _tail(scaled)
    percentile = 100.0 * rank / len(scaled)
    print(f"latency tail: p{percentile:.1f} of {len(scaled)} attempts over {len(passes)} passes, "
          f"{len(scaled) - rank} beyond it")
    print("set-up runs s: " + ", ".join(f"{m:.4f}" for m, _ in setup))
    print("pass walls s: " + ", ".join(f"{p.wall:.3f}" for p in passes))
    print(f"host probe: scale per pass to a host where it takes {PROBE_REFERENCE_S * 1000:g} ms: "
          + ", ".join(f"{p.scale:.3f}" for p in passes)
          + f" ({sum(len(p.probes) for p in passes)} probes)")
    (WORK / "probes.json").write_text(json.dumps({p.tag: p.probes for p in passes}), encoding="utf-8")

    # The JSON line holds only value and unit per metric; the unscaled
    # figures are printed here, beside the scaled ones.
    raw = {
        "setup_s": statistics.median(m for m, _ in setup),
        "queries_per_s": attempted / sum(p.wall for p in passes),
        "latency_p50_ms": statistics.median(measured) * 1000,
        "latency_tail_ms": _tail(measured)[0] * 1000,
    }
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "queries_per_s": _metric(attempted / sum(p.wall * p.scale for p in passes), "1/s"),
        "latency_p50_ms": _metric(statistics.median(scaled) * 1000, "ms"),
        "latency_tail_ms": _metric(tail_s * 1000, "ms"),
        "failed_ratio": _metric(failed / attempted, "ratio"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    for name, value in raw.items():
        print(f"  {name:<16} scaled {metrics[name]['value']:>12.4f}  measured {value:>12.4f} "
              f"{metrics[name]['unit']}")
    return counts, attempted, failed, metrics


def traced(queries, expected, runner, seconds: float, workload: str):
    """Traced and untraced passes in turn for `seconds`; the untraced ones give the overhead."""
    import layers
    import spans

    tracer = spans.Tracer()
    traced_passes: List[Pass] = []
    plain: List[Pass] = []
    while not plain or sum(p.wall for p in traced_passes + plain) < seconds:
        tracer.install()
        try:
            traced_passes.append(run_pass(queries, runner, f"t{len(traced_passes)}_", tracer=tracer))
        finally:
            tracer.uninstall()
        plain.append(run_pass(queries, runner, f"u{len(plain)}_"))
    check(queries, expected, traced_passes + plain)
    counts = _report_outcomes("traced", queries, traced_passes)
    _write_results(WORK / "results.jsonl", queries, traced_passes + plain)
    tracer.write(WORK / "spans.jsonl")
    metrics = layers.layer_metrics(tracer.spans, len(traced_passes))
    attempted = sum(len(p.attempts) for p in traced_passes)
    traced_qps = attempted / sum(p.wall for p in traced_passes)
    plain_qps = sum(len(p.attempts) for p in plain) / sum(p.wall for p in plain)
    metrics["trace.queries_per_s"] = traced_qps
    metrics["trace.overhead_ratio"] = plain_qps / traced_qps
    print(f"tracing overhead: untraced {plain_qps:.2f} vs traced {traced_qps:.2f} queries/s "
          f"over {len(traced_passes)} passes each; {len(tracer.spans)} spans in {WORK / 'spans.jsonl'}")
    if tracer.absent:
        print("absent (their counters read 0): " + ", ".join(tracer.absent))
    for line in layers.sanity(workload, tracer.spans, queries, traced_passes[0], metrics):
        print(line)
    for name, unit in layers.PER_LAYER.items():
        print(f"  {name:<36} {metrics[name]:>14.4f} {unit}")
    failed = sum(v for k, v in counts.items() if _failed(k))
    counts["wrong"] = sum(o == "wrong" for p in traced_passes + plain for o in p.outcomes)
    return counts, attempted, failed, {
        name: _metric(metrics[name], unit) for name, unit in layers.PER_LAYER.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    if not (SRC / "inconlog" / "__init__.py").is_file() or not (TESTS / "util.py").is_file():
        _fail(f"no inconlog sources under {ROOT}: run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    import gen

    if ns.workload not in gen.WORKLOADS:
        _fail(f"unknown workload {ns.workload!r}; choose from {', '.join(gen.WORKLOADS)}")
    import expect
    from inconlog import cli, errors

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    queries = gen.build(ns.workload, ns.seed, SRC / "inconlog" / "fixtures")
    try:
        expected = expect.expected_answers(queries)
    except expect.BenchmarkFault as fault:
        _fail(str(fault))
    runner = harness.Runner(cli, errors)
    # The benchmark's own objects (inputs, expected answers) are set aside so
    # the collector's work in the loop is the library's.
    gc.collect()
    gc.freeze()

    print(f"workload {ns.workload}, seed {ns.seed}, {len(queries)} queries per pass, "
          f"deadline {harness.DEADLINE_S:.1f} s, closed loop, one client")
    if ns.trace:
        counts, attempted, failed, metrics = traced(
            queries, expected, runner, ns.seconds, ns.workload)
    else:
        counts, attempted, failed, metrics = end_to_end(
            queries, expected, runner, ns.seconds)
    wrong = counts.get("wrong", 0)
    if wrong:
        print(f"{wrong} wrong answers; see {WORK / 'results.jsonl'}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
