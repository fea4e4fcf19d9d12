"""Benchmark workloads: scenario documents made from a seed, and what each must do.

Seed 0 runs the bundled configs unchanged (``fine_step_trot`` is the bundled
``flat_trot`` at half the plant step). A nonzero seed draws one input per
workload from ``random.Random(seed)``:

* ``beam_walk``, ``fine_step_trot``: forward speed in [0.15, 0.25] m/s;
* ``push_pair``: lateral push magnitude in [38.4, 38.9] N, applied to both
  scenarios of the pair, with the bundled 1.0 s onset kept.

The push range is narrow because the number of IK failures during the fall,
and with it the tick tail, steps with the push: ``push_no_thrust`` has 4 at
37 N, 8 throughout [38.4, 38.9] N and 17 at 40 N. The onset is never moved:
at 40 N an onset of 1.15 s makes even the thrust-assisted robot fall.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "huskysim" / "scenarios"

SPEED_RANGE = (0.15, 0.25)  # m/s
PUSH_RANGE = (38.4, 38.9)  # N

SUCCESS = "success"
FALL = "fall"  # any fall; the seed-0 pin fixes which kind
FALL_KINDS = ("RollDivergence", "HeightCollapse")

# wall seconds of one pass on a 2-vCPU x86 VM (Python 3.11, OpenBLAS, one
# thread); a run makes round(seconds / PASS_SECONDS) passes, at least one, so
# the work in a run is fixed by --seconds and never by how fast the host is
PASS_SECONDS = {"beam_walk": 10.0, "push_pair": 7.0, "fine_step_trot": 14.5}


@dataclass(frozen=True)
class Case:
    """One scenario run: its config document and the outcome it must have."""

    name: str
    doc: dict
    expect: str


def _bundled(name: str) -> dict:
    return json.loads((BUNDLED / f"{name}.json").read_text())


def _with_speed(doc: dict, rng: random.Random) -> dict:
    doc["command"]["v_d_mps"][0] = round(rng.uniform(*SPEED_RANGE), 4)
    return doc


def cases(workload: str, seed: int) -> list[Case]:
    """The scenario runs of one pass of ``workload``, generated from ``seed``."""
    rng = random.Random(seed)
    perturb = seed != 0
    if workload == "beam_walk":
        doc = _bundled("beam_walk")
        return [Case("beam_walk", _with_speed(doc, rng) if perturb else doc, SUCCESS)]
    if workload == "fine_step_trot":
        doc = _bundled("flat_trot")
        doc["name"] = "fine_step_trot"
        doc["sim_dt_s"] = 0.0005
        return [Case("fine_step_trot", _with_speed(doc, rng) if perturb else doc, SUCCESS)]
    if workload == "push_pair":
        push = round(rng.uniform(*PUSH_RANGE), 3) if perturb else None
        out = []
        for name, expect in (("push_with_thrust", SUCCESS), ("push_no_thrust", FALL)):
            doc = _bundled(name)
            if push is not None:
                for dist in doc["disturbances"]:
                    dist["force_n"] = [0.0, push, 0.0]
            out.append(Case(name, doc, expect))
        return out
    raise KeyError(workload)


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))
