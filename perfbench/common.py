"""Shapes shared by the workload modules."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Seed-state failures: defects of the package at the state this benchmark
# was written against, listed once, in NOTES.json.  A check that recognises
# one returns "known:<id>"; such answers are counted and printed, and only
# other failures make a run incorrect, unless one pass meets a defect more
# often than its recorded ``max_per_pass``.  Fixing a defect turns its
# answers into checked successes.
NOTES = json.loads((Path(__file__).resolve().parent / "NOTES.json").read_text())
KNOWN = {f["id"]: f for f in NOTES["seed_state_failures"]}


def known(defect: str, detail: str = "") -> str:
    if defect not in KNOWN:
        raise KeyError(f"{defect!r} is not a seed-state failure of NOTES.json")
    return f"known:{defect}" + (f": {detail}" if detail else "")


def known_id(verdict: str) -> str:
    """The defect id of a verdict made by ``known``."""
    return verdict[len("known:"):].split(":", 1)[0]


@dataclass
class Query:
    qid: int
    kind: str
    call: Callable[[], object]
    # check(result, exception) -> None when the answer holds, else a reason
    check: Callable[[object, BaseException | None], str | None]
    prepare: Callable[[], None] | None = None
    shared: bool = False
    # a query answering faster than this is timed in windows of back-to-back
    # calls spread over each pass (run.run_pass)
    min_time: float = 0.0


@dataclass
class Workload:
    queries: list
    inputs: object = None          # JSON-able description of the generated inputs
    notes: dict = field(default_factory=dict)
    # bytes of the files the last pass left in its --out targets
    report_bytes: Callable[[], int] = lambda: 0
    min_passes: int = 1

    def fingerprint(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def summary(self, first_pass) -> dict:
        out = {k: v() if callable(v) else v for k, v in self.notes.items()}
        kinds = {}
        for q, (lat, _) in zip(self.queries, first_pass):
            n, t = kinds.get(q.kind, (0, 0.0))
            kinds[q.kind] = (n + 1, t + lat)
        out["queries by kind (count, first-pass seconds)"] = ", ".join(
            f"{k} {n} {t:.3f}" for k, (n, t) in sorted(kinds.items()))
        out["input fingerprint"] = self.fingerprint()
        return out


class Jitter:
    """Numbers for one generated instance: a template fixed by the instance's
    slot, moved by a small seeded perturbation.  Every seed then builds
    different inputs of the same shape and nearly the same cost, so that
    run-to-run spreads measure the program and not the draw."""

    def __init__(self, template, seeded, eps: float = 0.05):
        self.template, self.seeded, self.eps = template, seeded, eps

    def standard_normal(self, size=None):
        return self.template.standard_normal(size) + \
            self.eps * self.seeded.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        v = self.template.uniform(low, high, size) + \
            self.eps * (high - low) * (self.seeded.random(size) - 0.5)
        return np.clip(v, low, high)

    def random(self, size=None):
        return self.uniform(0.0, 1.0, size)


def instance_rngs(seed: int, tag: int, family: int, slot: int):
    """(shape, values) for slot ``slot`` of query family ``family``.

    The shape generator (sizes, flags, which instances are rescaled or
    refuted) ignores the seed; the value generator is a Jitter around a
    per-slot template.
    """
    shape = np.random.default_rng([tag, family, slot])
    values = Jitter(np.random.default_rng([tag, family, slot, 1]),
                    np.random.default_rng([seed, tag, family, slot]))
    return shape, values
