"""Size caps, read at call time, so a program may raise them."""

from __future__ import annotations

DEFAULT_LATTICE_CAP = 64
DEFAULT_ENUM_CAP = 20
# bounds the subgroup lattice the bridge builds: at order 64, 2,2,2,2,2,2 has
# 2,825 subgroups; on a 2-vCPU Xeon host their masks take about 3 ms and the
# lattice about 3 s, half of it in lattice._assemble. Subgroup masks are
# 64-bit words, so a raised cap still stops at order 64
# (SizeLimitExceededError from the subgroup builder).
DEFAULT_GROUP_ORDER_CAP = 64
DEFAULT_ENDO_CAP = 262144

