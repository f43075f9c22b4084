"""Run one CLI query in-process under a deadline, and the fresh-interpreter child.

Queries go through `inconlog.cli.run(argv, out=StringIO())`, one at a time
(closed loop, one client).  The per-query deadline is an interval timer
in this same process: SIGALRM raises `DeadlineExceeded` inside the query,
so no thread or process is started for it.

Run as a script, this module is the child that measures set-up time and
peak memory in a fresh interpreter:

    python3 perfbench/harness.py PLAN.json setup   # import + first query, CPU s
    python3 perfbench/harness.py PLAN.json rss     # every query, then ru_maxrss

PLAN.json holds {"src": <path of src/>, "queries": [argv, ...]}.  The child
prints one JSON object.  Nothing runs on import.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import signal
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

DEADLINE_S = 3.0

_PROBE_ATOMS = [f"x{i}" for i in range(40)]


def _probe_tree(depth: int, i: int):
    if depth == 0:
        return _PROBE_ATOMS[i % 40]
    return (("&", "|", "->")[i % 3], _probe_tree(depth - 1, i * 3 + 1), _probe_tree(depth - 1, i * 7 + 2))


def _probe_atoms(node, acc: set) -> set:
    if isinstance(node, str):
        acc.add(node)
        return acc
    _probe_atoms(node[1], acc)
    return _probe_atoms(node[2], acc)


def probe() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work resembles the library's (recursive tuples, frozensets, dict
    lookups, string joins) but calls none of it, so a change to inconlog
    does not change the probe.  The collector is off, so the probe does
    not pay for the library's heap.
    """
    gc.disable()
    start = time.perf_counter()
    try:
        for k in range(2):
            atoms = frozenset(_probe_atoms(_probe_tree(5, k), set()))
            index = {a: i for i, a in enumerate(sorted(atoms))}
            seen: dict = {}
            for mask in range(64):
                key = frozenset(a for a in atoms if mask >> (index[a] % 6) & 1)
                seen[key] = seen.get(key, 0) + 1
            " ".join(sorted(atoms)).split()
        return time.perf_counter() - start
    finally:
        gc.enable()


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; BaseException so no handler swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Attempt:
    seconds: float
    rc: Optional[int]
    stdout: str
    status: Optional[str]  # "deadline", "crashed:<type>" or None when run returned
    refusal: Optional[str]  # CapExceeded subclass raised during the query

    def outcome(self, rc: int, stdout: str, written_ok: bool = True) -> str:
        """ok, no, refused:<class>, crashed:<type>, deadline or wrong."""
        if self.status:
            return self.status
        if self.rc == 3:
            return "refused:" + (self.refusal or "exit-3")
        if self.rc != rc or self.stdout != stdout or not written_ok:
            return "wrong"
        return "ok" if rc == 0 else "no"


class Runner:
    """Calls cli.run with a deadline and records which cap refused a query.

    The refusal class is taken from a hook on CapExceeded.__init__: cli.run
    turns the exception into exit code 3, and the hook costs nothing unless
    a cap is hit.
    """

    def __init__(self, cli, errors):
        self.cli = cli
        self.refusal: Optional[str] = None
        original = errors.CapExceeded.__init__

        def record(exc, *args, **kwargs):
            self.refusal = type(exc).__name__
            original(exc, *args, **kwargs)

        errors.CapExceeded.__init__ = record
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, argv: Sequence[str]) -> Attempt:
        out = io.StringIO()
        self.refusal = None
        rc: Optional[int] = None
        status: Optional[str] = None
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                rc = self.cli.run(list(argv), out=out)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            status = "deadline"
        except Exception as exc:  # any crash escaping cli.run is a measured outcome
            status = "crashed:" + type(exc).__name__
        seconds = time.perf_counter() - start
        if status is None and seconds >= DEADLINE_S:
            status = "deadline"
        return Attempt(seconds, rc, out.getvalue(), status, self.refusal)


def _child(plan_path: str, mode: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    # CPU time: on a shared machine the wall clock of a 50 ms start-up is
    # dominated by scheduling, while the work moved into set-up is not.
    start = time.process_time()
    from inconlog import cli, errors

    runner = Runner(cli, errors)
    queries: List[List[str]] = plan["queries"]
    first = runner.run(queries[0])
    if mode == "setup":
        print(json.dumps({"setup_s": time.process_time() - start, "status": first.status}))
        return
    for argv in queries[1:]:
        runner.run(argv)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024}))


if __name__ == "__main__":
    _child(sys.argv[1], sys.argv[2])
