"""Fidelity-tier selection for node simulations.

Two tiers produce :class:`~repro.sim.node.NodeResult` objects:

* ``cycle`` — the trace-driven cycle-level simulator (the reference;
  every paper figure is defined by it), and
* ``fast`` — the calibrated closed-form analytical model
  (:mod:`repro.fastmodel`), ~10^3-10^4x cheaper per cell, cross-checked
  against the cycle tier on the Figure 12 grid.

:func:`resolve_fidelity` applies the shared knob rule of
:func:`repro.knobs.resolve_env_choice`: an explicit kind wins, otherwise
the ``REPRO_FIDELITY`` environment variable decides (defaulting to
``cycle``), and unknown values raise rather than silently changing
which model produced the numbers.
"""

from __future__ import annotations

from typing import Optional

from ..knobs import resolve_env_choice

#: Environment variable consulted by :func:`resolve_fidelity` when no
#: explicit fidelity kind is passed.
FIDELITY_ENV_VAR = "REPRO_FIDELITY"

#: Fidelity tiers :func:`resolve_fidelity` understands.
VALID_FIDELITIES = ("cycle", "fast")


class FidelityError(ValueError):
    """A configuration asks a fidelity tier for something it cannot
    model — e.g. fault-injection knobs under the closed-form fast tier.

    Raised at *config-validation* time by every entry point
    (``NodeConfig`` / ``ExperimentRunner`` / ``SweepConfig`` /
    ``repro hpc`` / ``ChaosConfig``), so a bad combination fails
    immediately with the offending knob named instead of silently
    computing or dying deep inside a worker.
    """


def ensure_fidelity_supported(kind: Optional[str] = None,
                              knobs: Optional[dict] = None,
                              source: Optional[str] = None) -> str:
    """Resolve ``kind`` and reject knobs the tier cannot honor.

    ``knobs`` maps knob names to their configured values; any truthy
    value is unsupported under the fast tier (the closed-form model has
    no event stream to inject faults into, and no per-channel state to
    specialize).  Returns the resolved fidelity when the combination is
    legal; raises :class:`FidelityError` naming every offending knob
    (and ``source``, the entry point being validated) otherwise.
    """
    resolved = resolve_fidelity(kind)
    if resolved != "fast" or not knobs:
        return resolved
    offending = ["{}={!r}".format(name, value)
                 for name, value in knobs.items() if value]
    if offending:
        raise FidelityError(
            "fast fidelity cannot model {}{}; drop the knob(s) or use "
            "fidelity='cycle'".format(
                ", ".join(offending),
                " (from {})".format(source) if source else ""))
    return resolved


def resolve_fidelity(kind: Optional[str] = None) -> str:
    """Resolve a fidelity tier name.

    ``kind`` may be ``"cycle"``, ``"fast"``, or None, in which case the
    ``REPRO_FIDELITY`` environment variable decides (defaulting to the
    cycle reference tier).  Environment values are stripped and
    lowercased; anything else raises — a typo in ``REPRO_FIDELITY``
    must not silently change the model under test.
    """
    return resolve_env_choice(kind, FIDELITY_ENV_VAR, VALID_FIDELITIES,
                              "fidelity", "fidelity tiers")
