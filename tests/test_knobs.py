"""The shared resolver behind the ``REPRO_FIDELITY`` and
``REPRO_BACKEND`` environment knobs."""

import pytest

from repro.dram.backend import (BACKEND_ENV_VAR, VALID_BACKENDS,
                                resolve_backend)
from repro.sim.fidelity import (FIDELITY_ENV_VAR, VALID_FIDELITIES,
                                resolve_fidelity)

pytestmark = pytest.mark.filterwarnings("error")

KNOBS = {
    "backend": (resolve_backend, BACKEND_ENV_VAR, VALID_BACKENDS),
    "fidelity": (resolve_fidelity, FIDELITY_ENV_VAR, VALID_FIDELITIES),
}


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_env_knob_resolver(knob, monkeypatch):
    resolve, env_var, valid = KNOBS[knob]
    default, other = valid
    monkeypatch.delenv(env_var, raising=False)
    assert resolve() == default
    assert resolve(other) == other
    # Environment values are stripped and lowercased; blank means unset.
    monkeypatch.setenv(env_var, "  {} \n".format(other.upper()))
    assert resolve() == other
    monkeypatch.setenv(env_var, "   ")
    assert resolve() == default
    # An environment typo names the variable and lists the valid
    # values; an explicit value still wins over the broken environment.
    monkeypatch.setenv(env_var, other + "x")
    with pytest.raises(ValueError) as err:
        resolve()
    message = str(err.value)
    assert repr(other + "x") in message
    assert env_var in message
    assert all(value in message for value in valid)
    assert resolve(default) == default
    # An explicit typo lists the valid values but names no variable.
    with pytest.raises(ValueError) as err:
        resolve("warp")
    message = str(err.value)
    assert "'warp'" in message
    assert env_var not in message
    assert all(value in message for value in valid)
