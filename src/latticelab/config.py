"""Size caps, read at call time, so a program may raise them."""

from __future__ import annotations

DEFAULT_LATTICE_CAP = 64
DEFAULT_ENUM_CAP = 20
# bounds the subgroup lattice the bridge builds: at order 64, 2,2,2,2,2,2 has
# 2,825 subgroups and its lattice takes about 16 s to build on a 2-vCPU host
DEFAULT_GROUP_ORDER_CAP = 64
DEFAULT_ENDO_CAP = 262144

