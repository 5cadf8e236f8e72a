"""Shrink a violating schedule to a minimal replayable reproduction.

A violation found by the explorer names the kernel event index at which an
oracle fired.  Because every ``(template, seed, perturb, max_events)``
replay is bit-identical (see :mod:`repro.check.explorer`), the schedule can
be truncated: re-run the same world with ``max_events=k`` and ask whether
the violation still occurs.  Shrinking is then two deterministic passes:

1. **Perturbation ablation** — greedily switch off adversarial layers
   (tiebreak randomization, faults, churn) that the violation does not
   actually need, so the reproduction names its true trigger.
2. **Prefix bisection** — binary-search the smallest event count whose
   prefix still violates (violations are prefix-monotone: oracles only
   accumulate evidence, so a superset of a violating prefix violates too).

The result is a :class:`CheckReport`: template, seed, surviving
perturbation layers, minimal event count, schedule hash, the violation,
and a Tracer waterfall of every operation alive in the shrunk prefix.
Reports serialize to JSON and replay with :meth:`CheckReport.replay`.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.check.explorer import Perturbations, RunOutcome, run_schedule


def _violates(template: str, seed: int, perturb: Perturbations,
              max_events: Optional[int]) -> bool:
    outcome = run_schedule(template, seed, perturb, max_events=max_events)
    return not outcome.clean


def _bisect_prefix(template: str, seed: int, perturb: Perturbations,
                   upper: int) -> int:
    """Smallest event count whose prefix still violates (<= upper)."""
    lo, hi = 1, upper
    while lo < hi:
        mid = (lo + hi) // 2
        if _violates(template, seed, perturb, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def shrink_violation(outcome: RunOutcome) -> "CheckReport":
    """Shrink one violating run to its minimal reproducing prefix."""
    template, seed = outcome.template, outcome.seed
    violation = outcome.first_violation
    assert violation is not None, "cannot shrink a clean run"

    # Upper bound: the event index the oracle fired at (+1 so the prefix
    # includes the violating callback).  A final-sweep violation has no
    # live index; start from the whole run.
    upper = outcome.events
    if violation.event_index >= 0:
        upper = max(1, min(upper, violation.event_index + 1))

    # Pass 1: ablate perturbation layers the violation does not need.
    perturb = outcome.perturb
    for layer in Perturbations.LAYERS:
        if not getattr(perturb, layer):
            continue
        candidate = perturb.without(layer)
        if _violates(template, seed, candidate, upper):
            perturb = candidate
        elif _violates(template, seed, candidate, None):
            # Still violates, just later in the schedule: adopt the
            # simpler world and recompute the bound from its own run.
            ablated = run_schedule(template, seed, candidate)
            if not ablated.clean:
                perturb = candidate
                v = ablated.first_violation
                upper = ablated.events
                if v is not None and v.event_index >= 0:
                    upper = max(1, min(upper, v.event_index + 1))

    # Pass 2: bisect to the minimal violating prefix.
    min_events = _bisect_prefix(template, seed, perturb, upper)
    shrunk = run_schedule(template, seed, perturb, max_events=min_events,
                          trace=True)
    return CheckReport.from_outcome(shrunk, min_events=min_events)


class CheckReport:
    """A replayable reproduction of one invariant violation."""

    def __init__(self, template: str, seed: int, perturb: Perturbations,
                 min_events: int, schedule_hash: str,
                 violation: Optional[dict], horizon: float,
                 waterfalls: Optional[List[str]] = None) -> None:
        self.template = template
        self.seed = seed
        self.perturb = perturb
        self.min_events = min_events
        self.schedule_hash = schedule_hash
        self.violation = violation
        self.horizon = horizon
        self.waterfalls = waterfalls or []

    # ------------------------------------------------------------------
    @classmethod
    def from_outcome(cls, outcome: RunOutcome, min_events: int) -> "CheckReport":
        violation = outcome.first_violation
        tracer = outcome.tracer
        waterfalls: List[str] = ([tracer.waterfall(op_id)
                                  for op_id in tracer.op_ids()]
                                 if tracer is not None else [])
        return cls(outcome.template, outcome.seed, outcome.perturb,
                   min_events, outcome.schedule_hash,
                   violation.to_dict() if violation is not None else None,
                   outcome.horizon, waterfalls)

    # ------------------------------------------------------------------
    def replay(self, trace: bool = False) -> RunOutcome:
        """Re-run the shrunk schedule; deterministic per this report."""
        return run_schedule(self.template, self.seed, self.perturb,
                            max_events=self.min_events, trace=trace)

    # ------------------------------------------------------------------
    def headline(self) -> str:
        oracle = self.violation["oracle"] if self.violation else "?"
        return (f"{oracle}: template={self.template} seed={self.seed} "
                f"events={self.min_events} "
                f"perturb={'+'.join(self.perturb.enabled()) or 'none'}")

    def render(self) -> str:
        lines = [
            "CheckReport",
            f"  template      : {self.template}",
            f"  seed          : {self.seed}",
            f"  perturbations : {'+'.join(self.perturb.enabled()) or 'none'}",
            f"  shrunk prefix : {self.min_events} kernel events",
            f"  schedule hash : {self.schedule_hash[:16]}…",
        ]
        if self.violation is not None:
            lines.append(f"  oracle        : {self.violation['oracle']}")
            lines.append(f"  event         : {self.violation['event']} "
                         f"@event {self.violation['event_index']}")
            lines.append(f"  detail        : {self.violation['detail']}")
        lines.append(
            f"  replay        : repro check --replay "
            f"'{json.dumps(self.to_json_obj(), sort_keys=True)}'")
        for waterfall in self.waterfalls:
            lines.append("")
            lines.extend("  " + line for line in waterfall.splitlines())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "template": self.template,
            "seed": self.seed,
            "perturb": self.perturb.to_dict(),
            "min_events": self.min_events,
            "schedule_hash": self.schedule_hash,
            "violation": self.violation,
            "horizon": self.horizon,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        data = json.loads(text)
        return cls(data["template"], int(data["seed"]),
                   Perturbations.from_dict(data["perturb"]),
                   int(data["min_events"]), data["schedule_hash"],
                   data.get("violation"), float(data.get("horizon", 0.0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CheckReport {self.headline()}>"
