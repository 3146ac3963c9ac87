"""Spans around the public functions of each iqtuples module.

The tracer replaces module attributes (say `arith.factorize`) with timing
wrappers, so calls made inside the package, which look the name up in the
module at call time, are recorded too. Each span holds its name, start, end,
parent span and item id. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
from math import isqrt
from time import perf_counter

from iqtuples import arith, classno, cli, families, lehmer, lrn
from iqtuples.errors import BudgetError, OutOfRangeError

MODULES = {"arith": arith, "classno": classno, "lrn": lrn, "lehmer": lehmer,
           "families": families, "cli": cli}

# Functions whose calls and busy time are reported one by one.
TIMED = ("arith.factorize", "arith.squarefree_decompose", "arith.is_prime",
         "classno.class_number_forms", "classno.class_number_dirichlet",
         "classno.is_fundamental_discriminant", "lrn.theorem31_verify",
         "families.verify_tuple")
CONSTRUCTORS = ("families.quadruple", "families.quintuple", "families.pi_tuple")
FORMS_DECADES = range(4, 13)  # |D| below 10^5 counts in 1e4, above 10^12 in 1e12


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index, item]
        self.stack: list[int] = []
        self.item = -1
        self.forms_disc: dict[int, int] = {}  # span index -> D of a form count
        self.fundamental: list[bool] = []  # answers to the benchmark's own tests
        self.members_attempted = 0
        self.members_verified = 0
        self.members_repeated = 0
        self._member_seen: set[int] = set()
        self._arith_errors: list[BaseException] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for prefix, mod in MODULES.items():
            for name, fn in list(_public_functions(mod)):
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{prefix}.{name}", fn))

    def uninstall(self) -> None:
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        after = {
            "classno.class_number_forms": self._after_forms,
            "classno.is_fundamental_discriminant": self._after_fundamental,
            "families.verify_tuple": self._after_verify,
        }.get(name)
        in_arith = name.startswith("arith.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except (BudgetError, OutOfRangeError) as e:
                if in_arith and not any(e is seen for seen in self._arith_errors):
                    self._arith_errors.append(e)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _after_forms(self, idx, args, kwargs, result):
        self.forms_disc[idx] = args[0] if args else kwargs["D"]

    def _after_fundamental(self, idx, args, kwargs, result):
        if self.spans[idx][3] == -1:  # called by the benchmark, not the oracle
            self.fundamental.append(result)

    def _after_verify(self, idx, args, kwargs, result):
        for m in result.members:
            self.members_attempted += 1
            if m.status == families.STATUS_VERIFIED:
                self.members_verified += 1
                if m.squarefree_part in self._member_seen:
                    self.members_repeated += 1
                self._member_seen.add(m.squarefree_part)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        children = [0.0] * len(self.spans)
        module_self: dict[str, float] = {m: 0.0 for m in MODULES}
        forms_by_decade = {d: 0.0 for d in FORMS_DECADES}
        forms_nid = self.names.index("classno.class_number_forms")
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += t1 - t0
        for i, (nid, t0, t1, parent, _) in enumerate(self.spans):
            calls[nid] += 1
            module_self[self.names[nid].split(".")[0]] += t1 - t0 - children[i]
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:  # outermost call of this function
                busy[nid] += t1 - t0
                if nid == forms_nid:
                    decade = min(max(len(str(-self.forms_disc.get(i, -1))) - 1, 4), 12)
                    forms_by_decade[decade] += t1 - t0
        by_name = {name: i for i, name in enumerate(self.names)}
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (calls[by_name[name]], "count")
            out[f"{name}.busy_s"] = (busy[by_name[name]], "s")
        out["families.construct.calls"] = (sum(calls[by_name[c]] for c in CONSTRUCTORS), "count")
        out["families.construct.busy_s"] = (sum(busy[by_name[c]] for c in CONSTRUCTORS), "s")
        out["cli.main.calls"] = (calls[by_name["cli.main"]], "count")
        out["arith.errors"] = (len(self._arith_errors), "count")
        out["classno.class_number_forms.a_walked"] = (
            sum(isqrt(-D // 3) for D in self.forms_disc.values()), "count")
        for d, t in forms_by_decade.items():
            out[f"classno.forms_s.1e{d}"] = (t, "s")
        for m, t in module_self.items():
            out[f"{m}.self_s"] = (t, "s")
        return out

    def input_properties(self) -> dict[str, float]:
        """Counts the generated inputs fix, whatever the program's speed."""
        tested = len(self.fundamental)
        return {
            "classno.fundamental_ratio": sum(self.fundamental) / tested if tested else 0.0,
            "families.members_attempted": self.members_attempted,
            "families.members_verified": self.members_verified,
            "families.repeat_share":
                self.members_repeated / self.members_verified if self.members_verified else 0.0,
        }

    def write_spans(self, path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for nid, t0, t1, parent, item in self.spans:
                f.write(json.dumps({"name": self.names[nid], "start": round(t0 - origin, 9),
                                    "end": round(t1 - origin, 9), "parent": parent,
                                    "item": item}) + "\n")
