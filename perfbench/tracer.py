"""Spans around faircap's public functions, recorded from outside the package.

Each wrapped function is replaced at the name its caller looks up (for
example ``capclust.knapsack_select``, which the k-medoids assignment step
calls as a module global), so the program's own code is unchanged. A span
holds its name, start, end, parent index and a few counters read from the
call's arguments or result. Spans stay in memory until the child writes them
out after the sweep.

Counters are read defensively: a later version of faircap may rename an
argument or drop a function, and the benchmark must keep running on it, so
a missing function is skipped and an unreadable counter is left out;
both then read 0, and the run prints a note for the latter.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable


def _knapsack(args: tuple, kwargs: dict, result: Any) -> dict:
    inst = args[0] if args else kwargs["inst"]
    weights = [int(w) for w in inst.weights]
    return {
        "items": len(weights),
        "cells": len(weights) * (int(inst.capacity) + 1),
        "classes": len(set(weights)),
    }


def _kmedoids(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"swap_rounds": sum(1 for e in result.trace if e.get("event") == "swap")}


def _hierarchical(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"merges": sum(1 for e in result.trace if e.get("event") == "merge")}


def _flow(args: tuple, kwargs: dict, result: Any) -> dict:
    net = args[0] if args else kwargs["net"]
    return {"nodes": int(net.num_nodes), "arcs": len(net.arcs)}


def _medoid(args: tuple, kwargs: dict, result: Any) -> dict:
    members = args[1] if len(args) > 1 else kwargs["members"]
    size = len(members)
    return {"bytes": size * size * 8}


def _decomposition(args: tuple, kwargs: dict, result: Any) -> dict:
    from faircap import fairlets

    data, threshold = args[0], args[1]
    report = fairlets.validate(result, data, threshold)
    return {
        "count": len(result.fairlets),
        "weight_classes": len({fl.weight for fl in result.fairlets}),
        "cost": float(fairlets.fairlet_cost(result, data)),
        "violations": list(report.violations[:5]),
    }


# (module, attribute the caller looks up, span name, counter reader)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("ingest", "load_csv", "ingest.load_csv", None),
    ("fairlets", "mcf_decompose", "fairlets.mcf_decompose", _decomposition),
    ("fairlets", "vanilla_decompose", "fairlets.vanilla_decompose", _decomposition),
    ("fairlets", "solve_min_cost_flow", "flow.solve_min_cost_flow", _flow),
    ("fairlets", "medoid_index", "core.medoid_index", _medoid),
    ("capclust", "knapsack_select", "capclust.knapsack_select", _knapsack),
    ("capclust", "hierarchical_fair_capacitated", "capclust.hierarchical", _hierarchical),
    ("capclust", "kmedoids_fair_capacitated", "capclust.kmedoids", _kmedoids),
    ("baselines", "pipeline", "baselines.pipeline", None),
    ("baselines", "kmedoids_vanilla", "baselines.kmedoids_vanilla", None),
    ("baselines", "kcenter_greedy", "baselines.kcenter_greedy", None),
    ("baselines", "compose_assignment", "core.compose_assignment", None),
    ("baselines", "medoid_index", "core.medoid_index", _medoid),
    ("baselines", "evaluate", "metrics.evaluate", None),
    ("core", "medoid_index", "core.medoid_index", _medoid),
)


class Tracer:
    """In-memory span recorder that patches module attributes while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name, reader in TARGETS:
            module = importlib.import_module(f"faircap.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, span_name, reader))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, name: str, reader: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[index]["raised"] = type(exc).__name__
                raise
            finally:
                self.close(index)
            if reader is not None:
                # Reading counters costs time of its own; give it a span so
                # that it is not charged to the caller's self time.
                check = self.open("trace.check")
                try:
                    self.spans[index].update(reader(args, kwargs, result))
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    self.spans[index]["reader_error"] = repr(exc)
                finally:
                    self.close(check)
            return result

        return traced
