"""Size caps, read at call time, so a program may raise them."""

from __future__ import annotations

DEFAULT_LATTICE_CAP = 64
DEFAULT_ENUM_CAP = 20
# abelian._endo_sweep packs subgroups into np.uint64 element masks, one bit
# per group element, so this cap must stay at most 64
DEFAULT_GROUP_ORDER_CAP = 64
DEFAULT_ENDO_CAP = 262144

