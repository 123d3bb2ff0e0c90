"""Span tracer for the traced benchmark run.

Wrappers are installed from outside the package on the public functions of
each spantree module, at every module that binds them (``from .x import f``
copies the reference), so nothing under ``src/`` changes.  Each wrapped call
records a span -- name, start, end and parent -- in flat in-memory arrays;
the spans are written out when the run ends and each layer's self time is
its spans' duration minus the part their child spans cover.  Signing,
verification and digests of the model backend are counted, not timed: they
are short enough that timing them would cost more than the work itself.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name); Graph.with_added_node is wrapped on the class
SPANS = (
    ("graph", "generate_erdos_renyi", "graph.generate"),
    ("graph", "extract_largest_component", "graph.lcc"),
    ("graph", "bfs_distances", "graph.bfs"),
    ("graph", "bfs_distances_avoiding", "graph.bfs_avoiding"),
    ("graph", "metrics", "graph.metrics"),
    ("graph", "triangle_counts", "graph.triangle_counts"),
    ("graph", "exact_diameter", "graph.exact_diameter"),
    ("adversary", "place_attack_edges", "adversary.place"),
    ("adversary", "adversary_step", "adversary.step"),
    ("analysis", "containment_sets", "analysis.containment"),
    ("analysis", "simulated_lost_set", "analysis.simulated_lost_set"),
    ("campaign", "run_campaign", "campaign.run_campaign"),
    ("campaign", "campaign_csv", "campaign.csv"),
    ("campaign", "oracle_check", "campaign.oracle"),
    ("simcore", "snapshot_status", "simcore.snapshot_status"),
    ("simcore", "detect_stable", "simcore.detect_stable"),
    ("simcore", "count_disturbances", "simcore.count_disturbances"),
    ("protocol", "step_honest_attested", "protocol.step_attested"),
    ("protocol", "step_honest_baseline", "protocol.step_baseline"),
    ("attestation", "extend", "attestation.extend"),
    ("attestation", "is_valid_att", "attestation.is_valid_att"),
    ("attestation", "is_valid_link", "attestation.is_valid_link"),
    ("attestation", "is_consistent", "attestation.is_consistent"),
)


def _module(name: str):
    return sys.modules[f"spantree.{name}"]


def rebind(target, replacement) -> list[tuple[object, str, object]]:
    """Point every spantree module attribute bound to ``target`` at
    ``replacement``; returns the (module, attribute, old value) undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "spantree" and not modname.startswith("spantree."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, target))
    return undo


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_run(self, fn):
        """simcore.run: a span, plus a span around the per-round hook it
        receives, plus round and edge-round counts from its outcome."""
        span_run = self._span("simcore.run", fn)
        counts = self.counts

        def run(cfg, *args, **kwargs):
            hook = kwargs.get("per_round_hook")
            if hook is not None:
                kwargs["per_round_hook"] = self._span("campaign.consistency_hook", hook)
            out = span_run(cfg, *args, **kwargs)
            counts["simcore.rounds"] += out.rounds_executed
            counts["simcore.edge_rounds"] += out.rounds_executed * len(cfg.graph.indices)
            return out

        return run

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        for modname, attr, name in SPANS:
            target = getattr(_module(modname), attr)
            self._undo += rebind(target, self._span(name, target))
        run_fn = _module("simcore").run
        self._undo += rebind(run_fn, self._traced_run(run_fn))
        digest_fn = _module("crypto").digest
        self._undo += rebind(digest_fn, self._counted("crypto.digest", digest_fn))

        graph_cls = _module("graph").Graph
        method = graph_cls.__dict__["with_added_node"]
        graph_cls.with_added_node = self._span("graph.with_added_node", method)
        self._undo.append((graph_cls, "with_added_node", method))

        model = _module("crypto").MODEL
        for op in ("sign", "verify"):
            setattr(model, op, self._counted(f"crypto.{op}", getattr(model, op)))
            self._undo.append((model, op, None))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is None:
                delattr(owner, attr)  # instance attribute shadowing a method
            else:
                setattr(owner, attr, old)
        self._undo = []

    # -- results -----------------------------------------------------------

    def _arrays(self):
        # copies: a live numpy view would stop the arrays from growing
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_parent, dtype=np.int32),
                np.array(self.span_start, dtype=np.float64),
                np.array(self.span_end, dtype=np.float64))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, label in enumerate(self._names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "total": float(dur[sel].sum()),
                "self": float(self_time[sel].sum()),
            }
        return out

    def dump(self, path: Path) -> None:
        """Write every span (name id, parent index, start, end) plus the
        name table and the counters."""
        name, parent, start, end = self._arrays()
        np.savez(
            path, name=name, parent=parent, start=start, end=end,
            names=np.array(json.dumps(self._names)),
            counts=np.array(json.dumps(dict(self.counts))),
        )
