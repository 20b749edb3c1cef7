"""Per-layer tracing of qcongruence from outside the package.

The tracer wraps public functions of the package's modules (the layers) and
aggregates, in memory, per metric key: calls, total time (outermost spans
only, so recursion is not counted twice) and self time (a span's duration
minus the time covered by wrapped spans it caused).  Every reference to a
wrapped function inside the package is replaced: class aliases such as
``__radd__ = __add__`` and names rebound by ``from ... import`` (for example
``theorems.cyclotomic``) point to the same function object, so they are found
by identity.  ``LaurentPoly.__sub__`` and ``QRat.__sub__`` dispatch to
``__add__`` and are counted there.  The private ``_fvec_*`` helpers are not
wrapped: they run millions of times per sweep and their cost shows as the
self time of ``verify_theorem``.

Counters taken at the same boundaries:

- ``polyring.divrem.fraction_share``: divrem calls whose quotient has any
  ``Fraction`` coefficient, over all divrem calls;
- ``polyring.max_coeff_bits`` / ``polyring.max_degree``: largest coefficient
  bit length (numerator or denominator) and degree among the products of
  ``LaurentPoly.__mul__`` and the dividend, quotient and remainder of
  ``LaurentPoly.divrem``;
- ``congruence.den_degree_max``: largest sum of factor exponents of a
  denominator passed to ``congruent_mod_phi``;
- ``cyclotomic.hit_ratio``: ``cyclotomic`` calls that returned without any
  wrapped polynomial operation (a cache hit), over all its calls.

Time spent taking these counters is left out of every layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute path, metric key); several targets may share a key
TARGETS = (
    ("polyring", "LaurentPoly.__add__", "polyring.add"),
    ("polyring", "LaurentPoly.__mul__", "polyring.mul"),
    ("polyring", "LaurentPoly.divrem", "polyring.divrem"),
    ("cyclotomic", "cyclotomic", "cyclotomic"),
    ("qcombinatorics", "QRat.__add__", "qcombinatorics.qrat_add"),
    ("qcombinatorics", "QRat.__mul__", "qcombinatorics.qrat_mul"),
    ("qcombinatorics", "gauss_binomial", "qcombinatorics.gauss_binomial"),
    ("qcombinatorics", "factor_product", "qcombinatorics.factor_product"),
    ("congruence", "congruent_mod_phi", "congruence.congruent_mod_phi"),
    ("congruence", "fold_mod_binomial_power", "congruence.fold"),
    ("theorems", "verify_theorem", "theorems.verify_theorem"),
    ("theorems", "verify_proof_consistent_form",
     "theorems.verify_proof_consistent_form"),
    ("theorems", "phi21_truncated", "theorems.phi21_truncated"),
    ("theorems", "step_binom_shift", "theorems.step_binom_shift"),
    ("theorems", "step_final2", "theorems.step_final2"),
    ("theorems", "step_final3_final4", "theorems.step_final3_final4"),
    ("theorems", "harmonic_full", "theorems.harmonic"),
    ("theorems", "harmonic_twisted", "theorems.harmonic"),
    ("theorems", "step_expansion", "theorems.step_expansion"),
    ("report", "Report.render", "report.render"),
)

# metric name -> unit, in print order
METRICS = {
    "theorems.verify_theorem.self_s": "s",
    "polyring.divrem.calls": "count",
    "polyring.divrem.self_s": "s",
    "polyring.divrem.fraction_share": "share",
    "polyring.mul.calls": "count",
    "polyring.mul.self_s": "s",
    "polyring.add.calls": "count",
    "polyring.add.self_s": "s",
    "qcombinatorics.qrat_add.calls": "count",
    "qcombinatorics.qrat_add.self_s": "s",
    "qcombinatorics.qrat_mul.self_s": "s",
    "qcombinatorics.gauss_binomial.calls": "count",
    "qcombinatorics.gauss_binomial.self_s": "s",
    "congruence.congruent_mod_phi.calls": "count",
    "congruence.congruent_mod_phi.self_s": "s",
    "congruence.fold.self_s": "s",
    "qcombinatorics.factor_product.self_s": "s",
    "congruence.den_degree_max": "degree",
    "polyring.max_coeff_bits": "bits",
    "polyring.max_degree": "degree",
    "cyclotomic.calls": "count",
    "cyclotomic.hit_ratio": "share",
    "cyclotomic.self_s": "s",
    "theorems.verify_proof_consistent_form.self_s": "s",
    "theorems.phi21_truncated.self_s": "s",
    "theorems.step_binom_shift.total_s": "s",
    "theorems.step_final2.total_s": "s",
    "theorems.step_final3_final4.total_s": "s",
    "theorems.harmonic.total_s": "s",
    "theorems.step_expansion.total_s": "s",
    "report.render.self_s": "s",
}

# metrics that must repeat exactly for identical inputs
COUNT_METRICS = tuple(name for name, unit in METRICS.items() if unit != "s")


def _resolve(module, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _package_namespaces(package: str) -> list:
    """Every module of the package and every class defined in one."""
    owners = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == name]
    return owners


def _poly_size(poly) -> tuple:
    """(degree, largest coefficient bit length) of a LaurentPoly."""
    coeffs = poly.coeffs
    if not coeffs:
        return 0, 0
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in coeffs)
    return poly.low + len(coeffs) - 1, bits


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.missing = []
        self.divrem_with_fraction = 0
        self.cyclotomic_hits = 0
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.den_degree_max = 0
        self._stack = []         # one [child seconds] cell per open span
        self._depth = defaultdict(int)
        self._wrapped_calls = 0  # probes see how many ran inside a span

    # -- installation ------------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap TARGETS in the currently imported package (import it fresh
        first: wrappers are installed once per module object)."""
        owners = _package_namespaces(package)
        probes = {"polyring.mul": self._probe_mul,
                  "polyring.divrem": self._probe_divrem,
                  "congruence.congruent_mod_phi": self._probe_congruence,
                  "cyclotomic": self._probe_cyclotomic}
        for module_name, path, key in TARGETS:
            orig = _resolve(sys.modules.get(f"{package}.{module_name}"), path)
            if orig is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(key, orig, probes.get(key))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, key, fn, probe=None):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._wrapped_calls += 1
            before = self._wrapped_calls
            cell = [0.0]
            stack.append(cell)
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[key] -= 1
                self.calls[key] += 1
                self.self_time[key] += dur - cell[0]
                if not depth[key]:
                    self.total[key] += dur
                if stack:
                    stack[-1][0] += dur
            if probe is not None:
                t = clock()
                probe(args, result, self._wrapped_calls - before)
                if stack:  # keep probe time out of the caller's self time
                    stack[-1][0] += clock() - t
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _note_size(self, poly) -> None:
        degree, bits = _poly_size(poly)
        if degree > self.max_degree:
            self.max_degree = degree
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _probe_mul(self, args, result, nested) -> None:
        if hasattr(result, "coeffs"):
            self._note_size(result)

    def _probe_divrem(self, args, result, nested) -> None:
        quo, rem = result
        if any(isinstance(c, Fraction) for c in quo.coeffs):
            self.divrem_with_fraction += 1
        for poly in (args[0], quo, rem):
            self._note_size(poly)

    def _probe_congruence(self, args, result, nested) -> None:
        for side in args[:2]:
            self.den_degree_max = max(self.den_degree_max, sum(side.den.factors))

    def _probe_cyclotomic(self, args, result, nested) -> None:
        if not nested:  # built nothing, so the value came from the cache
            self.cyclotomic_hits += 1

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        def share(part, whole):
            return part / whole if whole else 0.0

        values = {}
        for name in METRICS:
            key, _, stat = name.rpartition(".")
            if stat == "calls":
                values[name] = self.calls[key]
            elif stat == "self_s":
                values[name] = self.self_time[key]
            elif stat == "total_s":
                values[name] = self.total[key]
        values["polyring.divrem.fraction_share"] = share(
            self.divrem_with_fraction, self.calls["polyring.divrem"])
        values["cyclotomic.hit_ratio"] = share(
            self.cyclotomic_hits, self.calls["cyclotomic"])
        values["polyring.max_coeff_bits"] = self.max_coeff_bits
        values["polyring.max_degree"] = self.max_degree
        values["congruence.den_degree_max"] = self.den_degree_max
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS.items()}
