"""Per-layer tracing of germinv, installed from outside the package.

Each traced function is replaced in every germinv module namespace that
bound it, so calls resolved through any module's globals are seen:
``standard_basis`` is bound in ``germinv.localring``, ``germinv.milnor`` and
``germinv``, and ``standard_basis`` finds ``mora_normal_form`` through
``germinv.localring``'s globals.  Layer functions get spans (name, start,
end, parent id), kept in memory and written out at the end.
``GaussianRational`` operations and ``Poly.mul_term`` run millions of times
per pass, so they get counters only.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from germinv.errors import IterationLimitError
from germinv.gaussian import GaussianRational
from germinv.poly import Poly

# span name -> (defining module, function)
SPANNED = {
    "localring.sb": ("germinv.localring", "standard_basis"),
    "localring.nf": ("germinv.localring", "mora_normal_form"),
    "milnor.sb_mu": ("germinv.milnor", "milnor_number"),
    "milnor.oracle": ("germinv.milnor", "truncated_dim_oracle"),
    "milnor.semihom": ("germinv.milnor", "is_semihomogeneous"),
    "equising.discriminate": ("germinv.equising", "discriminate"),
    "monodromy.char_poly": ("germinv.monodromy", "char_poly"),
    "monodromy.zeta": ("germinv.monodromy", "zeta"),
    "families.mu_profile": ("germinv.families", "mu_profile"),
    "families.find_alpha": ("germinv.families", "find_alpha"),
    "families.find_line": ("germinv.families", "find_transverse_line"),
    "vectorfields.vf_milnor": ("germinv.vectorfields", "vf_milnor"),
    "corpus.run": ("germinv.corpus", "run_corpus"),
    "poly.parse": ("germinv.poly", "parse_poly"),
    "poly.format": ("germinv.poly", "format_poly"),
    "cli.main": ("germinv.cli", "main"),
}

def coeff_bits(c) -> int:
    """Largest numerator or denominator bit length of a scalar."""
    c = GaussianRational.of(c)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in (c.re, c.im))


class Tracer:
    """Spans and counters for one traced pass; install, run, remove."""

    def __init__(self):
        self.spans: list = []  # (span id, parent id, name, start, end)
        self._open: list[int] = []
        self._open_names: list[str] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._seen_gens: set = set()
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "germinv" or name.startswith("germinv.")]
        hooks = {
            "localring.sb": (self._sb_call, None),
            "localring.nf": (self._nf_call, self._nf_return),
            "monodromy.char_poly": (self._char_poly_call, None),
        }
        for name, (module, func) in SPANNED.items():
            original = getattr(sys.modules[module], func)
            wrapper = self._spanned(name, original, *hooks.get(name, (None, None)))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, wrapper)
        self._replace(Poly, "__mul__", self._spanned("poly.mul", Poly.__mul__))
        self._replace(Poly, "mul_term", self._counted_mul_term(Poly.mul_term))
        gaussian_ops = (
            ("__mul__", self._counted_gaussian_mul(GaussianRational.__mul__)),
            ("__add__", self._counted("gaussian.add", GaussianRational.__add__)),
            ("__truediv__", self._counted("gaussian.div", GaussianRational.__truediv__)),
        )
        for attr, wrapper in gaussian_ops:
            original = getattr(GaussianRational, attr)
            for alias, value in list(vars(GaussianRational).items()):
                if value is original:  # __rmul__ = __mul__, __radd__ = __add__
                    self._replace(GaussianRational, alias, wrapper)

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, on_call=None, on_return=None):
        spans, open_ids, open_names, counts = self.spans, self._open, self._open_names, self.counts

        def wrapper(*args, **kwargs):
            if on_call is not None:
                args = on_call(args)
            span_id = len(spans)
            spans.append(None)
            parent = open_ids[-1] if open_ids else None
            open_ids.append(span_id)
            open_names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except IterationLimitError:
                counts[name + ".budget_exceeded"] += 1
                raise
            finally:
                spans[span_id] = (span_id, parent, name, start, perf_counter())
                open_ids.pop()
                open_names.pop()
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _counted_gaussian_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts["gaussian.mul"] += 1
            if not a.im and not getattr(b, "im", 0):
                counts["gaussian.mul_real"] += 1
            return fn(a, b)
        return wrapper

    def _counted_mul_term(self, fn):
        counts, maxima, open_names = self.counts, self.maxima, self._open_names

        def wrapper(poly, mono, coeff):
            counts["poly.mul_term"] += 1
            counts["poly.mul_term_terms"] += len(poly)
            if open_names and open_names[-1] == "localring.nf":  # a reduction step
                maxima["nf_coeff_bits"] = max(maxima["nf_coeff_bits"], coeff_bits(coeff))
            return fn(poly, mono, coeff)
        return wrapper

    def _sb_call(self, args):
        gens = tuple(args[0])  # may be a one-shot iterator: materialise once
        if gens in self._seen_gens:
            self.counts["sb_repeat"] += 1
        self._seen_gens.add(gens)
        return (gens,) + args[1:]

    def _nf_call(self, args):
        self.maxima["basis_size"] = max(self.maxima["basis_size"], len(args[1]))
        return args

    def _nf_return(self, args, h):
        if not h:
            self.counts["nf_zero"] += 1
        for c in h.terms().values():
            self.maxima["nf_coeff_bits"] = max(self.maxima["nf_coeff_bits"], coeff_bits(c))

    def _char_poly_call(self, args):
        self.maxima["char_poly_mu"] = max(self.maxima["char_poly_mu"], args[1])
        return args

    # -- summary ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, int]]:
        """Layer metric -> (value, sample count), for every metric the
        traced child measures.  Times are inclusive, counting only the
        outermost span of a name; cli.self_ms subtracts child spans.
        """
        names = [s[2] for s in self.spans]
        parent = [s[1] for s in self.spans]
        duration = [(s[4] - s[3]) * 1000 for s in self.spans]
        child_ms = [0.0] * len(self.spans)
        for i, p in enumerate(parent):
            if p is not None:
                child_ms[p] += duration[i]

        def ancestors(i):
            p = parent[i]
            while p is not None:
                yield p
                p = parent[p]

        ms, calls = Counter(), Counter()
        sb_in_discriminate = 0
        for i, name in enumerate(names):
            calls[name] += 1
            up = [names[a] for a in ancestors(i)]
            if name not in up:
                ms[name] += duration[i]
            if name == "localring.sb" and "equising.discriminate" in up:
                sb_in_discriminate += 1
        cli_self = sum(d - c for d, c, n in zip(duration, child_ms, names) if n == "cli.main")

        c, mx = self.counts, self.maxima

        def share(part, whole):
            return part / whole if whole else 0.0

        out = {
            "localring.nf_calls": (calls["localring.nf"], calls["localring.nf"]),
            "localring.nf_max_coeff_bits": (mx["nf_coeff_bits"], calls["localring.nf"]),
            "localring.nf_zero_share": (share(c["nf_zero"], calls["localring.nf"]),
                                        calls["localring.nf"]),
            "localring.budget_exceeded": (c["localring.sb.budget_exceeded"], calls["localring.sb"]),
            "localring.basis_size_max": (mx["basis_size"], calls["localring.nf"]),
            "localring.sb_calls": (calls["localring.sb"], calls["localring.sb"]),
            "localring.sb_repeat_share": (share(c["sb_repeat"], calls["localring.sb"]),
                                          calls["localring.sb"]),
            "milnor.oracle_calls": (calls["milnor.oracle"], calls["milnor.oracle"]),
            "milnor.semihom_calls": (calls["milnor.semihom"], calls["milnor.semihom"]),
            "equising.sb_calls_per_pair": (
                share(sb_in_discriminate, calls["equising.discriminate"]),
                calls["equising.discriminate"]),
            "gaussian.mul_calls": (c["gaussian.mul"], c["gaussian.mul"]),
            "gaussian.mul_real_share": (share(c["gaussian.mul_real"], c["gaussian.mul"]),
                                        c["gaussian.mul"]),
            "gaussian.add_calls": (c["gaussian.add"], c["gaussian.add"]),
            "gaussian.div_calls": (c["gaussian.div"], c["gaussian.div"]),
            "poly.mul_term_calls": (c["poly.mul_term"], c["poly.mul_term"]),
            "poly.mul_term_terms": (c["poly.mul_term_terms"], c["poly.mul_term"]),
            "poly.mul_calls": (calls["poly.mul"], calls["poly.mul"]),
            "monodromy.char_poly_mu_max": (mx["char_poly_mu"], calls["monodromy.char_poly"]),
            "cli.self_ms": (cli_self, calls["cli.main"]),
        }
        for span in ("localring.nf", "localring.sb", "milnor.sb_mu", "milnor.oracle",
                     "equising.discriminate", "poly.mul", "poly.parse", "poly.format",
                     "monodromy.char_poly", "monodromy.zeta", "families.mu_profile",
                     "families.find_alpha", "families.find_line", "vectorfields.vf_milnor",
                     "corpus.run"):
            out[span + "_ms"] = (ms[span], calls[span])
        return out

    def write_spans(self, path):
        """One JSON object per span, times in ms from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ms": round((start - origin) * 1000, 4),
                    "dur_ms": round((end - start) * 1000, 4),
                }) + "\n")
