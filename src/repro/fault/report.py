"""Structured results of a fault-injection campaign.

Outcome classes per injection:

* ``masked`` — the fault never changed live state, or its effect was
  absorbed (output bit-identical to golden, nothing detected).
* ``corrected`` — the integrity layer detected the corruption and the
  final output still matches golden (bounded replay / degradation won).
* ``detected`` — detected, but the surfaced output is still wrong
  (retries exhausted under a persistent fault, or policy is
  detect-only).
* ``silent`` — output differs from golden and **nothing** detected it:
  the outcome campaigns exist to drive to zero.
* ``crash`` — the model raised (e.g. a mux-select fault broke the
  routing bijection).

Serialization is deliberately deterministic — sorted keys, stable event
order — so equal seeds produce byte-identical JSON (the seeded-
determinism audit depends on it).  The JSON is summary + seed: the
per-event rows are reproducible from the seed, so they are pinned by
``events_digest`` (sha256 over the canonical rows) rather than
archived.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.fault.injector import FaultSpec

OUTCOMES = ("masked", "corrected", "detected", "silent", "crash")


@dataclass(frozen=True)
class FaultEvent:
    """One injection experiment and its classified outcome."""

    index: int
    spec: FaultSpec
    outcome: str
    fired: bool
    detection_latency: int | None
    retries: int
    degrade_level: int

    def to_dict(self) -> dict:
        out = {"index": self.index, "outcome": self.outcome,
               "fired": self.fired,
               "detection_latency": self.detection_latency,
               "retries": self.retries, "degrade_level": self.degrade_level}
        out.update(self.spec.to_dict())
        return out


@dataclass
class FaultReport:
    """The full campaign record (counters + per-event detail; the
    detail stays in memory, its digest goes into the JSON)."""

    workload: str
    policy: str
    seed: int
    n: int
    m: int
    q: int
    sites: tuple[str, ...]
    events: list[FaultEvent] = field(default_factory=list)

    @property
    def injections(self) -> int:
        return len(self.events)

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.outcome] = counts.get(event.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def per_site(self) -> dict[str, dict[str, int]]:
        """Outcome counts per fault-site class (coverage table)."""
        table: dict[str, dict[str, int]] = {}
        for event in self.events:
            row = table.setdefault(event.spec.site, {})
            row[event.outcome] = row.get(event.outcome, 0) + 1
        return {site: dict(sorted(row.items()))
                for site, row in sorted(table.items())}

    @property
    def detection_rate_live(self) -> float:
        """Detected fraction of injections that reached live output:
        ``(corrected + detected) / (corrected + detected + silent)``.
        Masked and crashed injections are excluded — there is nothing
        for a checksum to catch."""
        counts = self.outcome_counts()
        detected = counts.get("corrected", 0) + counts.get("detected", 0)
        live = detected + counts.get("silent", 0)
        return 1.0 if live == 0 else detected / live

    def events_digest(self) -> str:
        """sha256 over the canonical JSON of the event rows, in order:
        two runs agree on it iff they agree on every event field."""
        rows = json.dumps([event.to_dict() for event in self.events],
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(rows.encode()).hexdigest()

    def to_dict(self) -> dict:
        from repro.obs.export import host_envelope

        latencies = sorted(event.detection_latency for event in self.events
                           if event.detection_latency is not None)
        out = host_envelope("faults")
        out.update({
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "q": self.q,
            "sites": list(self.sites),
            "injections": self.injections,
            "outcomes": self.outcome_counts(),
            "per_site": self.per_site(),
            "detection_rate_live": round(self.detection_rate_live, 4),
            "detection_latency_cycles": {
                "count": len(latencies),
                "mean": (round(sum(latencies) / len(latencies), 3)
                         if latencies else None),
                "max": latencies[-1] if latencies else None,
            },
            "retries": sum(event.retries for event in self.events),
            "degradations": sum(1 for event in self.events
                                if event.degrade_level > 0),
            "events_digest": self.events_digest(),
        })
        return out

    def to_json(self) -> str:
        """Deterministic JSON: byte-identical for equal campaign seeds."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
