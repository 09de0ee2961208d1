"""Outside-in tracer: spans around the calls into each module's public
functions, installed from the benchmark without touching the package.

``Tracer.install`` wraps the functions listed in ``LAYERS`` and rebinds
every alias of them across all loaded ``coset_radon`` namespaces, including
module-level dicts such as ``groups._ATOM_MAKERS`` and ``verify.SUITES``;
``from x import f`` copies and dispatch tables would otherwise keep calling
the unwrapped function. Spans are kept in memory as
``[name, start, end, parent, query, work]`` and written out once, at the
end of the pass. ``layer_metrics`` turns them into self time per layer and
work counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# layer -> (module, public functions timed as that layer)
LAYERS = {
    "groups.build": ("groups", (
        "from_name", "from_cayley_table", "make_trivial", "make_cyclic",
        "make_dihedral", "make_dicyclic", "make_symmetric", "make_alternating",
        "make_direct_product", "make_semidirect", "quotient",
        "quotient_with_projection",
    )),
    "groups.structure": ("groups", (
        "is_abelian", "is_cyclic", "invariant_factors", "abelian_basis",
    )),
    "geodesics.enum": ("geodesics", (
        "prime_geodesics", "maximal_geodesics", "cyclic_subgroups",
        "maximal_cyclic_subgroups", "homomorphisms_cn", "composite_orbit",
    )),
    "radon.build_system": ("radon", ("build_system",)),
    "radon.decide": ("radon", ("is_injective", "decide_system")),
    "radon.kernel": ("radon", ("kernel",)),
    "radon.apply": ("radon", ("apply",)),
    "exactla.rank_mod": ("exactla", ("rank_mod",)),
    "exactla.int_echelon": ("exactla", ("int_echelon", "rank_exact")),
    "exactla.nullspace": ("exactla", ("rational_nullspace", "field_nullspace")),
    "exactla.field_rref": ("exactla", ("field_rref",)),
    "spectral.characters": ("spectral", (
        "characters", "faithful_characters", "char_value", "dft",
        "plancherel_defect", "char_sum_check_characters", "fourier_radon_check",
    )),
    "spectral.reps": ("spectral", (
        "matrix_rep", "geodesic_sum", "check_projection", "fixed_space_analysis",
        "char_sum_check", "matrix_coefficient_vectors", "quaternion_rep_set",
        "load_rep",
    )),
    "flows.orbits": ("flows", (
        "validate_flow", "group_flow", "constant_flow", "flow_orbits",
        "flow_radon_system",
    )),
    "iso.search": ("iso", (
        "find_embedding", "find_isomorphism", "are_isomorphic",
        "generating_sequence",
    )),
    "cli.load_group": ("cli", ("load_group",)),
}

# one layer per regression suite, named after its key in verify.SUITES
SUITE_NAMES = (
    "abelian", "products", "catalog", "bound", "lemma-prime",
    "subgroup-monotone", "spectral-abelian", "maximal", "flows",
)

# the span around each cli.main call; its self time is the CLI's own work
ROOT = "cli.main"

# constructors that validate and freeze exactly one table each
# (from_name, make_trivial and quotient only dispatch to these)
_BUILDERS = (
    "from_cayley_table", "make_cyclic", "make_dihedral", "make_dicyclic",
    "make_symmetric", "make_alternating", "make_direct_product",
    "make_semidirect", "quotient_with_projection",
)


def _ncols(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["ncols"]


def _table_cells(out, args, kwargs):
    g = out[0] if isinstance(out, tuple) else out
    return g.order * g.order


# work recorded on a span, from (result, args, kwargs)
WORK = {
    **{f"groups.{name}": _table_cells for name in _BUILDERS},
    "geodesics.prime_geodesics": lambda out, a, k: len(out),
    "geodesics.maximal_geodesics": lambda out, a, k: len(out),
    "radon.build_system": lambda out, a, k: len(out.matrix) * out.ncols,
    "exactla.rank_mod": lambda out, a, k: int(out >= _ncols(a, k)),
    "exactla.rational_nullspace": lambda out, a, k: len(out),
    "exactla.field_nullspace": lambda out, a, k: len(out),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap every listed function and rebind all of its aliases."""
        wrapped = {}
        targets = [(mod, fns) for mod, fns in LAYERS.values()]
        verify = importlib.import_module("coset_radon.verify")
        targets.append(("verify", tuple(verify.SUITES[s].__name__ for s in SUITE_NAMES)))
        for modname, names in targets:
            mod = importlib.import_module(f"coset_radon.{modname}")
            for fname in names:
                fn = getattr(mod, fname)
                wrapped[id(fn)] = (fn, self.wrap(f"{modname}.{fname}", fn))
        rebound = set()

        def swap(value):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                rebound.add(id(value))
                return hit[1]
            return value

        for modname, mod in list(sys.modules.items()):
            if modname != "coset_radon" and not modname.startswith("coset_radon."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not item:
                            value[key] = new
                else:
                    new = swap(value)
                    if new is not value:
                        setattr(mod, attr, new)
        missed = [fn.__qualname__ for key, (fn, _) in wrapped.items() if key not in rebound]
        if missed:
            raise RuntimeError(f"tracer could not rebind: {', '.join(missed)}")


def layer_of() -> dict[str, str]:
    """Span name -> layer name."""
    out = {ROOT: "cli.self"}
    for layer, (modname, names) in LAYERS.items():
        for fname in names:
            out[f"{modname}.{fname}"] = layer
    return out


def layer_metrics(spans: list[list], suite_functions: dict[str, str]) -> dict[str, float]:
    """Self time per layer (span duration minus the time its child spans
    cover) plus the work counts. suite_functions maps suite key -> the
    function name verify.SUITES held for it."""
    names = layer_of()
    for suite, fname in suite_functions.items():
        names[f"verify.{fname}"] = f"verify.{suite}"
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for i, rec in enumerate(spans):
        name = rec[0]
        layer = names[name]
        self_s[layer] = self_s.get(layer, 0.0) + (rec[2] - rec[1]) - child[i]
        calls[name] = calls.get(name, 0) + 1
        if rec[5] is not None:
            work[name] = work.get(name, 0) + rec[5]
    rank_mod_calls = calls.get("exactla.rank_mod", 0)
    out = {
        "groups.build_s": self_s.get("groups.build", 0.0),
        "groups.builds": sum(calls.get(f"groups.{n}", 0) for n in _BUILDERS),
        "groups.table_cells": sum(work.get(f"groups.{n}", 0) for n in _BUILDERS),
        "groups.structure_s": self_s.get("groups.structure", 0.0),
        "geodesics.enum_s": self_s.get("geodesics.enum", 0.0),
        "geodesics.rows": work.get("geodesics.prime_geodesics", 0)
        + work.get("geodesics.maximal_geodesics", 0),
        "radon.build_system_s": self_s.get("radon.build_system", 0.0),
        "radon.build_system_calls": calls.get("radon.build_system", 0),
        "radon.matrix_cells": work.get("radon.build_system", 0),
        "radon.decide_s": self_s.get("radon.decide", 0.0),
        "radon.kernel_s": self_s.get("radon.kernel", 0.0),
        "radon.kernel_calls": calls.get("radon.kernel", 0),
        "radon.apply_s": self_s.get("radon.apply", 0.0),
        "radon.apply_calls": calls.get("radon.apply", 0),
        "exactla.rank_mod_s": self_s.get("exactla.rank_mod", 0.0),
        "exactla.rank_mod_calls": rank_mod_calls,
        "exactla.modular_certify_ratio": (
            work.get("exactla.rank_mod", 0) / rank_mod_calls if rank_mod_calls else 0.0
        ),
        "exactla.int_echelon_s": self_s.get("exactla.int_echelon", 0.0),
        "exactla.nullspace_s": self_s.get("exactla.nullspace", 0.0),
        "exactla.field_rref_s": self_s.get("exactla.field_rref", 0.0),
        "exactla.field_rref_calls": calls.get("exactla.field_rref", 0),
        "exactla.kernel_vectors": work.get("exactla.rational_nullspace", 0)
        + work.get("exactla.field_nullspace", 0),
        "spectral.characters_s": self_s.get("spectral.characters", 0.0),
        "spectral.reps_s": self_s.get("spectral.reps", 0.0),
        "flows.orbits_s": self_s.get("flows.orbits", 0.0),
        "iso.search_s": self_s.get("iso.search", 0.0),
    }
    for suite in SUITE_NAMES:
        out[f"verify.{suite}_s"] = self_s.get(f"verify.{suite}", 0.0)
    out["cli.self_s"] = self_s.get("cli.self", 0.0)
    out["cli.load_group_s"] = self_s.get("cli.load_group", 0.0)
    return out
