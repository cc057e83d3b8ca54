"""Recorded outputs for the default seed, and the check against them.

Counts (unknowns, cut elements, segments) must match exactly.  Each other
value must match to a relative plus an absolute tolerance, set from two
measurements on the default seed:

- round-off: scaling every matrix and load entry by an independent
  1 + 1e-13 N(0, 1) factor moved the L2 errors by at most 1.2e-8 relative
  (h-sweep nx = 128) and
  5e-13 absolute (p-sweep p = 8, at the floor), the energy errors by at most
  1.2e-13 relative and 2e-11 absolute (p = 8, where the error itself is
  2e-12), and the Rayleigh quotients by at most 3e-4 (gamma1 = 0.01, where
  the Lanczos tolerance of 1e-8 on the shifted operator is loosest);
- a change of discretisation: one more quadrature order in the assembly
  moved the L2 error by 8e-7 relative; dropping the J1 block from the
  matrix moved the errors by a factor of 25 or more and turned every
  quotient at gamma0 = 1000 (0.86 to 0.92) negative.

Reruns are bitwise identical, so any mismatch is a change of the program.
Record again with ``PYTHONPATH=src python3 -m perfbench.reference`` only
when a change of discretisation is intended.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0
# value name -> (relative, absolute) tolerance
TOLERANCE = {"l2": (1e-7, 1e-11), "energy": (1e-8, 1e-10), "quotient": (2e-3, 2e-3)}
EXACT = ("dofs", "cut_elements", "segments")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_reference(items, recorded: dict) -> None:
    """Append a failure to each item whose values differ from ``recorded``
    ({item name: {value name: number}})."""
    for item in items:
        for key, want in recorded.get(item.name, {}).items():
            got = item.values.get(key)
            if got is None:
                item.failures.append(f"{key} missing, recorded {want!r}")
            elif key in EXACT:
                if got != want:
                    item.failures.append(f"{key} = {got}, recorded {want}")
            elif not math.isclose(got, want, rel_tol=TOLERANCE[key][0], abs_tol=TOLERANCE[key][1]):
                item.failures.append(f"{key} = {got!r}, recorded {want!r} "
                                     f"(rel, abs tolerance {TOLERANCE[key]})")


def record() -> dict:
    from .inputs import make_inputs
    from .workloads import WORKLOADS

    out = {}
    for name, run in WORKLOADS.items():
        result = run(make_inputs(name, DEFAULT_SEED))
        bad = [(i.name, i.failures) for i in result.items if not i.ok]
        if bad:
            raise SystemExit(f"{name}: refusing to record failing items {bad}")
        kept = {i.name: {k: v for k, v in i.values.items() if k in EXACT or k in TOLERANCE}
                for i in result.items}
        out[name] = {item: values for item, values in kept.items() if values}
    return out


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
