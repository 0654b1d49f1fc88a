"""One resolver for the enum-valued ``REPRO_*`` environment knobs.

``REPRO_FIDELITY`` (:func:`repro.sim.fidelity.resolve_fidelity`) and
``REPRO_BACKEND`` (:func:`repro.dram.backend.resolve_backend`) follow
the same rule: an explicit value wins; otherwise the environment
variable decides, stripped and lowercased, and an unset or blank
variable means the first valid value.  Anything else raises a
``ValueError`` that lists the valid values and, when the bad value came
from the environment, names the variable — a typo must not silently
change what is simulated.

This module imports nothing from the package, so ``dram`` and ``sim``
can both use it without an import cycle.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence


def resolve_env_choice(kind: Optional[str], env_var: str,
                       valid: Sequence[str], noun: str,
                       plural: str) -> str:
    """Resolve one knob value against ``valid`` (default ``valid[0]``).

    ``noun`` and ``plural`` word the error, e.g. ``"backend"`` and
    ``"memory backends"``.
    """
    from_env = kind is None
    if from_env:
        kind = os.environ.get(env_var, "").strip().lower() or valid[0]
    if kind not in valid:
        raise ValueError("unknown {} {!r}{}; valid {}: {}".format(
            noun, kind,
            " (from the {} environment variable)".format(env_var)
            if from_env else "",
            plural, ", ".join(valid)))
    return kind
