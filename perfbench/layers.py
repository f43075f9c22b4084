"""Per-layer metrics and sanity shapes from the traced run's spans.

Counts and times are totals per pass over the workload's query list, so
they do not depend on how many passes fit in the run.  Each metric is
listed with the end-to-end metric and workload it should move in
perfbench/README.md.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List

# name -> unit, in report order
PER_LAYER = {
    "formulas.index_builds": "count",
    "formulas.index_atoms_max": "atoms",
    "formulas.bitmask_calls": "count",
    "formulas.bitmask_ms": "ms",
    "formulas.dpll_calls": "count",
    "formulas.dpll_ms": "ms",
    "formulas.parse_ms": "ms",
    "files.load_ms": "ms",
    "files.save_ms": "ms",
    "bridges.parse_ms": "ms",
    "theory.linear_extensions_calls": "count",
    "theory.orders_visited": "count",
    "theory.linear_extensions_ms": "ms",
    "theory.validate_ms": "ms",
    "extensions.members": "count",
    "extensions.greedy_ms": "ms",
    "extensions.members_per_order": "ratio",
    "arguments.mus_subsets_tested": "count",
    "arguments.muses_found": "count",
    "arguments.muses_per_test": "ratio",
    "arguments.mus_ms": "ms",
    "arguments.support_subsets_tested": "count",
    "arguments.supports_found": "count",
    "arguments.support_ms": "ms",
    "arguments.sweep_ms": "ms",
    "semantics.interpretations_scanned": "count",
    "semantics.models_found": "count",
    "semantics.preferred_models_ms": "ms",
    "semantics.revise_ms": "ms",
    "af.attacks": "count",
    "af.build_ms": "ms",
    "af.stable_found": "count",
    "af.stable_ms": "ms",
    "af.render_ms": "ms",
    "bridges.atms_ms": "ms",
    "cli.self_ms": "ms",
    "trace.queries_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Iterable, passes: int) -> Dict[str, float]:
    """Every PER_LAYER metric except the trace.* ones, per pass."""
    by_name: Dict[str, list] = defaultdict(list)
    every = list(spans)
    for span in every:
        by_name[span.name].append(span)

    def ms(name: str, self_time: bool = False) -> float:
        return sum(s.self_seconds if self_time else s.seconds for s in by_name[name]) * 1000

    def info(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in by_name[name])

    def leaves(key: str, name: str = None) -> float:
        return sum(s.leaves.get(key, 0) for s in (by_name[name] if name else every))

    ext_ids = {s.sid for s in by_name["extensions.all_extensions"]}
    enumerated = [s for s in by_name["theory.linear_extensions"] if s.parent in ext_ids]
    enumerating = {s.parent for s in enumerated}
    members_enum = sum(s.info.get("members", 0) for s in by_name["extensions.all_extensions"]
                       if s.sid in enumerating)
    tested = leaves("consistent", "arguments.mus")
    found = info("arguments.mus", "found")
    totals = {
        "formulas.index_builds": len(by_name["formulas.index"]),
        "formulas.bitmask_calls": leaves("bitmask"),
        "formulas.bitmask_ms": leaves("bitmask_s") * 1000,
        "formulas.dpll_calls": leaves("dpll"),
        "formulas.dpll_ms": leaves("dpll_s") * 1000,
        "formulas.parse_ms": ms("formulas.parse"),
        "files.load_ms": ms("files.load"),
        "files.save_ms": ms("files.save"),
        "bridges.parse_ms": ms("bridges.parse"),
        "theory.linear_extensions_calls": len(by_name["theory.linear_extensions"]),
        "theory.orders_visited": info("theory.linear_extensions", "orders")
        + info("theory.first_linear_extension", "orders"),
        "theory.linear_extensions_ms": ms("theory.linear_extensions"),
        "theory.validate_ms": ms("theory.validate"),
        "extensions.members": info("extensions.all_extensions", "members"),
        "extensions.greedy_ms": ms("extensions.all_extensions", self_time=True),
        "arguments.mus_subsets_tested": tested,
        "arguments.muses_found": found,
        "arguments.mus_ms": ms("arguments.mus"),
        "arguments.support_subsets_tested": leaves("entails", "arguments.supports"),
        "arguments.supports_found": info("arguments.supports", "found"),
        "arguments.support_ms": ms("arguments.supports"),
        "arguments.sweep_ms": ms("arguments.sweep"),
        "semantics.interpretations_scanned": info("semantics.preferred_models", "interpretations"),
        "semantics.models_found": info("semantics.preferred_models", "models"),
        "semantics.preferred_models_ms": ms("semantics.preferred_models"),
        "semantics.revise_ms": ms("semantics.revise"),
        "af.attacks": info("af.build", "attacks"),
        "af.build_ms": ms("af.build"),
        "af.stable_found": info("af.stable", "found"),
        "af.stable_ms": ms("af.stable"),
        "af.render_ms": ms("af.render"),
        "bridges.atms_ms": ms("bridges.atms"),
        "cli.self_ms": ms("cli", self_time=True),
    }
    out = {name: value / passes for name, value in totals.items()}
    out["formulas.index_atoms_max"] = max((s.info.get("atoms", 0) for s in by_name["formulas.index"]), default=0)
    out["extensions.members_per_order"] = _ratio(members_enum, sum(s.info.get("orders", 0) for s in enumerated))
    out["arguments.muses_per_test"] = _ratio(found, tested)
    return out


def _per_query(spans: Iterable) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[s.query]
        if s.name == "theory.linear_extensions":
            row["orders"] += s.info.get("orders", 0)
        elif s.name == "extensions.all_extensions":
            row["members"] += s.info.get("members", 0)
        elif s.name == "arguments.mus":
            row["mus_tested"] += s.leaves.get("consistent", 0)
    return out


def sanity(workload: str, spans, queries, first_pass, metrics: Dict[str, float]) -> List[str]:
    """The shapes ROADMAP item 1 reports, as report lines (informational)."""
    rows = _per_query(spans)
    lines = []
    if workload == "belief-queries":
        shape = []
        for q, outcome in zip(queries, first_pass.outcomes):
            if q.template.family == "antichain" and q.command == "extensions":
                row = rows[f"{first_pass.tag}{q.qid}"]
                n = q.template.premises
                expected_ok = (outcome == "refused:ExtensionCapExceeded") if n >= 9 else (
                    row["orders"] == math.factorial(n) and row["members"] == 2)
                shape.append(expected_ok)
                lines.append(f"sanity antichain-one-clash n={n}: orders_visited={row['orders']:.0f} "
                             f"(n!={math.factorial(n)}), members={row['members']:.0f}, {outcome}")
        lines.append("sanity antichain shape (n! orders, 2 members, n=9 refused by "
                     f"ExtensionCapExceeded) matches ROADMAP item 1: {'yes' if all(shape) else 'no'}")
        lines.append(f"sanity arguments.mus_subsets_tested on belief-queries: "
                     f"{metrics['arguments.mus_subsets_tested']:.0f} (expected 0)")
    if workload == "argumentation":
        for q in queries:
            if q.template.family == "clash-chain" and q.command == "af":
                row = rows[f"{first_pass.tag}{q.qid}"]
                n = q.template.premises
                lines.append(f"sanity chained clashes n={n}: mus_subsets_tested={row['mus_tested']:.0f}, "
                             f"2^n={2 ** n}, ratio {row['mus_tested'] / 2 ** n:.3f}")
        lines.append(f"sanity theory.orders_visited on argumentation: "
                     f"{metrics['theory.orders_visited']:.0f} per pass (first_linear_extension only)")
    return lines
