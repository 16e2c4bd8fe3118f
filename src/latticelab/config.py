"""Size caps and environment overrides."""

from __future__ import annotations

import os

ENV_MAX_SIZE = "LATTICELAB_MAX_SIZE"

DEFAULT_LATTICE_CAP = 64
DEFAULT_ENUM_CAP = 20
# abelian._endo_sweep packs subgroups into np.uint64 element masks, one bit
# per group element, so this cap must stay at most 64
DEFAULT_GROUP_ORDER_CAP = 64
DEFAULT_ENDO_CAP = 262144


def lattice_size_cap(override: int | None = None) -> int:
    """Largest lattice buildable from a cover specification.

    `override` wins; otherwise the LATTICELAB_MAX_SIZE environment variable,
    then the built-in default.
    """
    if override is not None:
        return override
    env = os.environ.get(ENV_MAX_SIZE)
    if env is not None:
        return int(env)
    return DEFAULT_LATTICE_CAP


def enum_size_cap(override: int | None = None) -> int:
    """Largest lattice accepted by exhaustive morphism enumeration."""
    return DEFAULT_ENUM_CAP if override is None else override
