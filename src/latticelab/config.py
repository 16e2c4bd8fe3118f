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


def lattice_size_cap() -> int:
    """Largest lattice buildable from a cover specification: the
    LATTICELAB_MAX_SIZE environment variable, else the built-in default."""
    env = os.environ.get(ENV_MAX_SIZE)
    if env is not None:
        return int(env)
    return DEFAULT_LATTICE_CAP
