"""Span tracing around ramcalc's public entry points, from outside the package.

`Tracer.install()` replaces each entry point in `ENTRY_POINTS` by a
wrapper that records one span per call: name, start, end, parent span
and the benchmark item it ran for.  A function is replaced on its
defining module and on every loaded `ramcalc` module that imported it
by name; a method is replaced on its class, together with any alias of
the same function object there (`__rmul__ = __mul__`).  `uninstall()`
puts every original back.  Spans stay in memory until the run ends.

Private kernels (`_irreducible_factors`, `_image_poly`, `_charpoly`,
`_resultant_qq`, `_check_step`) are deliberately not wrapped: their
time shows up as self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path); attribute paths with a dot
# name a method on a class
ENTRY_POINTS = [
    ("sympy.factor_list", "sympy", "Poly.factor_list"),
    ("exact.Poly.mul", "ramcalc.exact", "Poly.__mul__"),
    ("exact.Poly.divmod", "ramcalc.exact", "Poly.__divmod__"),
    ("exact.Poly.call", "ramcalc.exact", "Poly.__call__"),
    ("exact.resultant", "ramcalc.exact", "resultant"),
    ("exact.squarefree_part", "ramcalc.exact", "squarefree_part"),
    ("exact.poly_gcd", "ramcalc.exact", "poly_gcd"),
    ("exact.solve_linear_system", "ramcalc.exact", "solve_linear_system"),
    ("exact.NumberFieldElement.mul", "ramcalc.exact", "NumberFieldElement.__mul__"),
    ("exact.NumberFieldElement.inverse", "ramcalc.exact", "NumberFieldElement.inverse"),
    ("exact.is_irreducible", "ramcalc.exact", "is_irreducible"),
    ("rmap.verify_chain", "ramcalc.rmap", "verify_chain"),
    ("rmap.RationalMap.local_index", "ramcalc.rmap", "RationalMap.local_index"),
    ("rmap.RationalMap.ram_divisor", "ramcalc.rmap", "RationalMap.ram_divisor"),
    ("contract.reduction_step", "ramcalc.contract", "reduction_step"),
    ("contract.build_cofactor", "ramcalc.contract", "build_cofactor"),
    ("contract.contract_to_rational", "ramcalc.contract", "contract_to_rational"),
    ("manifest.parse_chain", "ramcalc.manifest", "parse_chain"),
    ("manifest.parse_cert", "ramcalc.manifest", "parse_cert"),
    ("cli.main", "ramcalc.cli", "main"),
    ("cover.verify_certificate", "ramcalc.cover", "verify_certificate"),
    ("cover.compositum_profile", "ramcalc.cover", "compositum_profile"),
    ("belyi.verify_belyi", "ramcalc.belyi", "verify_belyi"),
    ("belyi.search_smooth_tuples", "ramcalc.belyi", "search_smooth_tuples"),
    ("belyi.vandermonde_exponents", "ramcalc.belyi", "vandermonde_exponents"),
    ("relation.search_tree", "ramcalc.relation", "RuleStore.search_tree"),
    ("relation.reachable", "ramcalc.relation", "RuleStore.reachable"),
    ("relation.equivalence_classes", "ramcalc.relation", "RuleStore.equivalence_classes"),
    ("relation.RuleStore.load", "ramcalc.relation", "RuleStore.load"),
    ("relation.DerivationTrace.validate", "ramcalc.relation", "DerivationTrace.validate"),
    ("relation.EdgeRule.successors", "ramcalc.relation", "EdgeRule.successors"),
    ("sunit.smooth_enum", "ramcalc.sunit", "smooth_enum"),
    ("sunit.unit_equation_solutions", "ramcalc.sunit", "unit_equation_solutions"),
    ("sunit.prop24_pairs", "ramcalc.sunit", "prop24_pairs"),
    ("sunit.thm26_family", "ramcalc.sunit", "thm26_family"),
]

NAMES = [name for name, _, _ in ENTRY_POINTS]


def _sympy_poly_bits(poly) -> int:
    bits = 0
    for c in poly.all_coeffs():
        bits = max(bits, abs(int(c.p)).bit_length(), int(c.q).bit_length())
    return bits


class Tracer:
    """Records spans while installed; counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, item]
        self._stack = [-1]
        self.item = None
        self.factor_input_bits = 0
        self.step_coeff_bits: list = []
        self._patched: list = []  # (owner, attribute, original raw value)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1], tracer.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _on_factor_list(self, args, result):
        self.factor_input_bits = max(self.factor_input_bits, _sympy_poly_bits(args[0]))

    def _on_reduction_step(self, args, result):
        self.step_coeff_bits.append(result[0].coeff_bits)

    # -- patching --------------------------------------------------------

    def install(self):
        hooks = {
            "sympy.factor_list": self._on_factor_list,
            "contract.reduction_step": self._on_reduction_step,
        }
        for name, modname, path in ENTRY_POINTS:
            module = importlib.import_module(modname)
            if "." in path:
                clsname, attr = path.split(".")
                self._patch_method(getattr(module, clsname), attr, name, hooks.get(name))
            else:
                self._patch_function(module, path, name, hooks.get(name))

    def _patch_method(self, cls, attr, name, hook):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(name, raw.__func__, hook))
        else:
            replacement = self._wrap(name, raw, hook)
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                self._patched.append((cls, alias, raw))
                setattr(cls, alias, replacement)

    def _patch_function(self, module, attr, name, hook):
        original = getattr(module, attr)
        replacement = self._wrap(name, original, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ramcalc" or modname.startswith("ramcalc.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, alias, original))
                    setattr(mod, alias, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries -------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> [calls, self seconds]; self time is duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            slot = out[name]
            slot[0] += 1
            slot[1] += end - start - child[i]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` whose direct parent span is `ancestor`."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == ancestor)

    def dump(self) -> dict:
        """Spans in a compact form: a name table plus rows of
        [name id, start, end, parent, item]."""
        ids = {n: i for i, n in enumerate(NAMES)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [ids[n], round(s - t0, 9), round(e - t0, 9), p, item]
            for n, s, e, p, item in self.spans
        ]
        return {"names": NAMES, "spans": rows}
