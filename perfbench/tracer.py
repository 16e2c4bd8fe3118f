"""Outside-in tracer: times calls into latticelab's public functions.

The library imports across modules with `from .x import y`, so one function
object is bound under several names (its home module, every importer, the
package root). `Tracer.install` rebinds every `latticelab.*` module attribute
that is the target object, swaps the conformance `REGISTRY` entries and the
`EndoMonoid.comp` property, and `Tracer.uninstall` puts the originals back.

Spans (group, start, end, parent) are kept in compact arrays in memory; the
per-layer numbers are computed from them when the traced section ends.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array

# group name -> (module, public function names) wrapped under that group
FUNCTION_GROUPS = {
    "lattice.build": ("lattice", ("build_lattice", "lattice_from_json", "direct_product")),
    "lattice.is_modular": ("lattice", ("is_modular",)),
    "lattice.complements": ("lattice", ("complements_of", "complemented_elements")),
    "lattice.is_boolean": ("lattice", ("is_boolean",)),
    "lattice.interval": ("lattice", ("interval",)),
    "morphisms.validate_linear": ("morphisms", ("validate_linear",)),
    "morphisms.projection": ("morphisms", ("projection",)),
    "morphisms.compose": ("morphisms", ("compose",)),
    "morphisms.enumerate_linmors": ("morphisms", ("enumerate_linmors",)),
    "morphisms.enumerate_interval_isos": ("morphisms", ("enumerate_interval_isos",)),
    "monoid.build": ("monoid", ("full_monoid", "generated_monoid", "monoid_from_spec")),
    "monoid.annihilator": ("monoid", ("annihilator", "coset_index", "monoid_predicate")),
    "properties.check_rickpix": ("properties", ("check_rickpix",)),
    "properties.check_condition": ("properties", ("check_condition",)),
    "properties.other": ("properties", (
        "check_rickart_family", "check_summand_property", "check_nonsingularity",
        "check_retractable", "check_generation", "check_cross_rickart")),
    "abelian.subgroup_lattice": ("abelian", ("subgroup_lattice",)),
    "abelian.induced_monoid": ("abelian", ("induced_monoid",)),
    "abelian.rickart_module_direct": ("abelian", ("rickart_module_direct",)),
    "cli.run": ("cli", ("run",)),
}

COMP_GROUP = "monoid.comp"

# registry checks timed on their own; the rest fall into coarser groups
NAMED_CHECKS = ("rickpix", "kerpi", "exmorf", "isolin", "splits")
ANNIHILATOR_CHECKS = frozenset((
    "ricendoric", "dricendodric", "baercar", "dbaercar",
    "kercompkergenann", "imcompintkercogen", "baer_symmetry"))


def check_group(name: str, kind: str) -> str:
    if name in NAMED_CHECKS:
        return f"conformance.check.{name}"
    if name in ANNIHILATOR_CHECKS:
        return "conformance.check.annihilator_checks"
    if kind == "pair":
        return "conformance.check.pair_checks"
    if kind == "global":
        return "conformance.check.global_checks"
    return "conformance.check.other"


CHECK_GROUPS = tuple(
    [f"conformance.check.{n}" for n in NAMED_CHECKS]
    + [f"conformance.check.{g}" for g in
       ("annihilator_checks", "pair_checks", "global_checks", "other")])

ALL_GROUPS = tuple(FUNCTION_GROUPS) + (COMP_GROUP,) + CHECK_GROUPS


def _library_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "latticelab" or name.startswith("latticelab."))]


class Tracer:
    """Wraps library entry points while installed; records one span per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.group_ids = {g: i for i, g in enumerate(ALL_GROUPS)}
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("b")
        self._stack: list[int] = []
        self._depth = [0] * len(ALL_GROUPS)
        self.span_outer = array("b")  # no enclosing span of the same group
        self.interval_new = 0
        self._interval_seen: set[tuple[int, int, int]] = set()
        self._interval_keep: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.installed = False

    # -- span recording ---------------------------------------------------

    def _wrap(self, group: str, fn, on_call=None):
        gid = self.group_ids[group]
        groups, parents = self.span_group, self.span_parent
        starts, ends, errors, outer = (self.span_start, self.span_end,
                                       self.span_error, self.span_outer)
        stack, depth, clock = self._stack, self._depth, self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            i = len(starts)
            groups.append(gid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[gid] == 0)
            errors.append(0)
            ends.append(0.0)
            stack.append(i)
            depth[gid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                depth[gid] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _on_interval(self, args, kwargs):
        lattice, lo, hi = args  # every library call site passes them positionally
        key = (id(lattice), lo, hi)
        if key not in self._interval_seen:
            self._interval_seen.add(key)
            self._interval_keep[id(lattice)] = lattice  # pins the id
            self.interval_new += 1

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        bound = 0
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    bound += 1
        return bound

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        from latticelab import cli, conformance, monoid  # noqa: F401  (loads every module)

        for group, (modname, names) in FUNCTION_GROUPS.items():
            mod = sys.modules[f"latticelab.{modname}"]
            for name in names:
                original = getattr(mod, name)
                hook = self._on_interval if group == "lattice.interval" else None
                if not self._rebind(original, self._wrap(group, original, hook)):
                    raise RuntimeError(f"latticelab.{modname}.{name} is not bound anywhere")

        prop = vars(monoid.EndoMonoid)["comp"]
        first_read = self._wrap(COMP_GROUP, prop.fget)

        def comp(m):
            return first_read(m) if m._comp is None else prop.fget(m)

        self._restore.append((monoid.EndoMonoid, "comp", prop))
        monoid.EndoMonoid.comp = property(comp, doc=prop.__doc__)

        registry = conformance.REGISTRY
        for name, check in list(registry.items()):
            self._restore.append((registry, name, check))
            registry[name] = dataclasses.replace(
                check, fn=self._wrap(check_group(name, check.kind), check.fn))
        self.installed = True

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()
        self.installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-layer numbers ------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls, self seconds, inclusive seconds and error count per group."""
        n = len(self.span_start)
        ngroups = len(ALL_GROUPS)
        child_time = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * ngroups
        self_s = [0.0] * ngroups
        incl_s = [0.0] * ngroups
        errors = [0] * ngroups
        for i in range(n):
            g = self.span_group[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[g] += 1
            self_s[g] += dur - child_time[i]
            errors[g] += self.span_error[i]
            if self.span_outer[i]:
                incl_s[g] += dur
        out: dict[str, float] = {}
        for g, name in enumerate(ALL_GROUPS):
            out[f"{name}.calls"] = calls[g]
            out[f"{name}.self_s"] = self_s[g]
            out[f"{name}.incl_s"] = incl_s[g]
            out[f"{name}.errors"] = errors[g]
        out["lattice.interval.new"] = self.interval_new
        return out
