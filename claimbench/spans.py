"""Spans around the public entry points of each sftkit layer.

The tracer wraps functions from outside the package: it replaces each name
in every ``sftkit`` module that holds it, so calls made through any import
path are seen. A span is [name, start, end, parent index, claim id, extra];
spans stay in a list in memory and are written out once, after the run.

``layer_metrics`` turns one pass's spans into the per-layer numbers: call
counts, inclusive and self times, hit and keep ratios. Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import statistics
import sys
import time

# span name -> (module, attribute); "Class.method" patches a class attribute
TARGETS = {
    "exponents.member": ("sftkit.exponents", "MonoidPresentation.member"),
    "exponents.kernel": ("sftkit._search_py", "run_search"),
    "ideals.power": ("sftkit.ideals", "ideal_power_with_provenance"),
    "ideals.minimalize": ("sftkit.ideals", "minimalize"),
    "ideals.member": ("sftkit.ideals", "ideal_member"),
    "elements.multiply": ("sftkit.elements", "element_multiply"),
    "elements.in_ideal": ("sftkit.elements", "element_in_ideal"),
    "elements.sample": ("sftkit.elements", "random_element"),
    "suite.run_suite": ("sftkit.suite", "run_suite"),
    "suite.run_claim": ("sftkit.suite", "run_claim"),
    "models.build": ("sftkit.models", "build_model"),
    "models.catalog": ("sftkit.models", "catalog_models"),
    "files.parse": ("sftkit.files", "parse_claims_doc"),
    "files.report_record": ("sftkit.files", "report_record"),
    "files.dumps_record": ("sftkit.files", "dumps_record"),
}

# the verdict layer's entry points, each its own span "sftcheck.<name>"
SFTCHECK_ENTRIES = (
    "build_sft_data", "verify_sft_generators", "certify_sft_all_elements",
    "verify_vsft", "find_vsft_witness", "minimal_vsft_index",
    "divergence_table", "check_power_data", "modified_radical_power_index",
    "check_extension_vsft", "check_sft_extension_exponent",
    "strong_convergence_check", "check_quotient_pushforward",
    "check_radical_equal", "anyradical_index", "valuation_non_sft_scan",
)

LAYERS = ("exponents", "ideals", "elements", "sftcheck", "suite", "models",
          "files")


# extra-field recorders: (args, result) -> small int or tuple
def _member_extra(args, out):
    return (out is not None) | ((args[0].dim == 1) << 1)


def _minimalize_extra(args, out):
    return (len(args[1]), len(out))


def _hit_extra(args, out):
    return int(bool(out))


def _multiply_extra(args, out):
    return len(args[0].terms) * len(args[1].terms)


_EXTRA = {
    "exponents.member": _member_extra,
    "ideals.minimalize": _minimalize_extra,
    "ideals.member": _hit_extra,
    "elements.multiply": _multiply_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._claim = None
        self._undo: list = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        extra = _EXTRA.get(name)
        is_claim = name == "suite.run_claim"
        listify = name == "ideals.minimalize"

        def traced(*args, **kwargs):
            if listify:  # count the candidates without consuming an iterator
                args = (args[0], list(args[1])) + args[2:]
            if is_claim:
                self._claim = args[0].id
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._claim,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if is_claim:
                    self._claim = None
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every target in every loaded sftkit module."""
        targets = dict(TARGETS)
        for entry in SFTCHECK_ENTRIES:
            targets[f"sftcheck.{entry}"] = ("sftkit.sftcheck", entry)
        for name, (modname, attr) in targets.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("sftkit")
                        and getattr(mod, attr, None) is orig):
                    self._patch(mod, attr, orig, wrapped)

    def _patch(self, holder, attr, orig, wrapped) -> None:
        setattr(holder, attr, wrapped)
        self._undo.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, t0: float, t1: float) -> dict:
    """Per-layer numbers of one traced pass whose claim loop ran from t0 to
    t1 (perf_counter values of the pass's own process)."""
    child_time = [0.0] * len(spans)
    by_name: dict = {}
    for i, (name, s, e, parent, _claim, _x) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += e - s
        by_name.setdefault(name, []).append(i)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names, own=False):
        return float(sum(spans[i][2] - spans[i][1] - (child_time[i] if own else 0)
                         for n in names for i in by_name.get(n, ())))

    def extras(name):
        return [spans[i][5] for i in by_name.get(name, ())
                if spans[i][5] is not None]

    # layer split of the claim loop: self time of every span that started
    # inside it; the rest of the loop is the remainder
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, s, e, _p, _c, _x) in enumerate(spans):
        if t0 <= s <= t1:
            layer_self[name.split(".", 1)[0]] += e - s - child_time[i]
    member = extras("exponents.member")
    mini = extras("ideals.minimalize")
    imem = extras("ideals.member")
    claims = [spans[i][2] - spans[i][1] for i in by_name.get("suite.run_claim", ())]
    out = {
        "exponents.member.calls": calls("exponents.member"),
        "exponents.member.s": total("exponents.member"),
        "exponents.member.miss_frac": _ratio(
            sum(1 for x in member if not x & 1), len(member)),
        "exponents.member.rank1_frac": _ratio(
            sum(1 for x in member if x & 2), len(member)),
        "exponents.kernel.calls": calls("exponents.kernel"),
        "exponents.kernel.s": total("exponents.kernel"),
        "ideals.power.calls": calls("ideals.power"),
        "ideals.power.s": total("ideals.power"),
        "ideals.power.self_s": total("ideals.power", own=True),
        "ideals.minimalize.calls": calls("ideals.minimalize"),
        "ideals.minimalize.s": total("ideals.minimalize"),
        "ideals.minimalize.kept_frac": _ratio(sum(o for _, o in mini),
                                              sum(i for i, _ in mini)),
        "ideals.member.calls": calls("ideals.member"),
        "ideals.member.s": total("ideals.member"),
        "ideals.member.hit_frac": _ratio(sum(imem), len(imem)),
        "elements.multiply.calls": calls("elements.multiply"),
        "elements.multiply.s": total("elements.multiply"),
        "elements.multiply.term_products": sum(extras("elements.multiply")),
        "elements.in_ideal.calls": calls("elements.in_ideal"),
        "elements.in_ideal.s": total("elements.in_ideal"),
        "elements.sample.calls": calls("elements.sample"),
        "elements.sample.s": total("elements.sample"),
        "sftcheck.calls": sum(len(v) for k, v in by_name.items()
                              if k.startswith("sftcheck.")),
        "suite.claim_s.p50": statistics.median(claims) if claims else 0.0,
        "suite.claim_s.max": max(claims, default=0.0),
        "models.build.calls": calls("models.build", "models.catalog"),
        "models.build.s": total("models.build", "models.catalog"),
        "files.parse.s": total("files.parse"),
        "files.serialize.s": total("files.report_record", "files.dumps_record"),
        "trace.wall_s": t1 - t0,
        "trace.remainder_s": t1 - t0 - sum(layer_self.values()),
    }
    out.update((f"{layer}.self_s", v) for layer, v in layer_self.items())
    return out
