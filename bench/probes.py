"""Per-layer probes installed on sympsheaf from outside.

A probe replaces a library function with a wrapper that counts calls and
accumulates self time: its own wall time minus the time of the probed
calls made inside it.  A function is replaced wherever a sympsheaf module
binds it by name (``cli.darboux_basis``, ``symplectic.determinant_adjugate``,
…), or calls through the other names would go unseen.  A probed name that no
longer exists is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

# metric prefix -> functions whose calls it counts and whose self time it sums
TIMED = {
    "qlinalg.det_bareiss": ["sympsheaf.qlinalg:det_bareiss"],
    "qlinalg.adjugate": ["sympsheaf.qlinalg:adjugate"],
    "qlinalg.rref": ["sympsheaf.qlinalg:rref"],
    "qlinalg.symplectic_reduce": ["sympsheaf.qlinalg:symplectic_reduce"],
    "charpoly.qq_charpoly": ["sympsheaf.charpoly:qq_charpoly"],
    "charpoly.poly_apply": ["sympsheaf.charpoly:poly_apply"],
    "charpoly.rational_roots": ["sympsheaf.charpoly:rational_roots"],
    "charpoly.eigen_sections": ["sympsheaf.charpoly:eigen_sections"],
    "modules.matmul": ["sympsheaf.modules:SectionMatrix.__matmul__"],
    "modules.determinant_adjugate": ["sympsheaf.modules:determinant_adjugate"],
    "sections.restrict": ["sympsheaf.sections:StructureSection.restrict"],
    "symplectic.darboux_basis": ["sympsheaf.symplectic:darboux_basis"],
    "symplectic.skew_normal_form": ["sympsheaf.symplectic:skew_normal_form"],
    "symplectic.check_form": ["sympsheaf.symplectic:check_form"],
    "symplectic.completion": ["sympsheaf.symplectic:_pointwise_completion"],
    "exterior.wedge": ["sympsheaf.exterior:wedge"],
    "presheaf.check_completeness": ["sympsheaf.presheaf:check_completeness"],
    "site.validate_topology": ["sympsheaf.site:validate_topology"],
    "jsonio.parse": ["sympsheaf.cli:_load_problem"] + [
        f"sympsheaf.jsonio:{name}" for name in (
            "fraction_from_json", "space_from_json", "section_from_json",
            "matrix_from_json", "vector_from_json", "kform_from_json")],
    "jsonio.emit": ["sympsheaf.cli:_emit"] + [
        f"sympsheaf.jsonio:{name}" for name in (
            "fraction_to_json", "section_to_json", "entry_to_json", "matrix_to_json",
            "vector_to_json", "kform_to_json", "polynomial_to_json")],
    "cli.main": ["sympsheaf.cli:main"],
}

# count-only probes: their time stays with the caller
CONSTRUCTED = "sympsheaf.sections:StructureSection.__init__"
CARRIERS = [f"sympsheaf.presheaf:{cls}.sections"
            for cls in ("FunctionPresheaf", "ConstantPresheaf", "GermSampledPresheaf")]
# the stalk kernels whose arguments and results feed qlinalg.max_bits
BITS = ("qlinalg.det_bareiss", "qlinalg.adjugate", "qlinalg.rref", "qlinalg.symplectic_reduce")


def _max_bits(obj) -> int:
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    """Counters and self-time accumulators for one probed pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"sections.constructed": 0, "presheaf.carrier_sections": 0}
        self.max_bits = 0
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, key, fn):
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        scan = key in BITS
        tracer = self

        def probe(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if scan:
                # the scan is probe overhead: keep it out of the caller's self time
                t1 = perf_counter()
                tracer.max_bits = max(tracer.max_bits, _max_bits(args), _max_bits(result))
                if stack:
                    stack[-1] += perf_counter() - t1
            return result

        return probe

    def _counting(self, key, fn, measure):
        counts = self.counts

        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += measure(result)
            return result

        return probe

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap every probed function at every sympsheaf binding of it."""
        for key, targets in TIMED.items():
            for target in targets:
                self._patch(target, lambda fn, key=key: self._timed(key, fn))
        self._patch(CONSTRUCTED,
                    lambda fn: self._counting("sections.constructed", fn, lambda _: 1))
        for target in CARRIERS:
            self._patch(target, lambda fn: self._counting("presheaf.carrier_sections", fn, len))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, target, make):
        module_name, qualname = target.split(":")
        module = sys.modules.get(module_name)
        *owner_path, name = qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            self.absent.append(target)
            return
        wrapper = make(original)
        if owner_path:  # a method: every name the class binds it under
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "sympsheaf" or n.startswith("sympsheaf."))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The per-layer metrics of the pass."""
        out = {}
        for key in TIMED:
            out[f"{key}.calls"] = self.calls.get(key, 0)
            out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
        out.update(self.counts)
        out["qlinalg.max_bits"] = self.max_bits
        reductions = out["symplectic.darboux_basis.calls"] + out["symplectic.skew_normal_form.calls"]
        out["symplectic.completion_share"] = (
            out["symplectic.completion.calls"] / reductions if reductions else 0.0)
        return out
