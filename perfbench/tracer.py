"""Layer tracing from outside the library.

`Tracer.install()` wraps the public functions and methods of each
``ogaction`` layer and rebinds every module-level name that referred to the
original, because a ``from .x import f`` copy is a separate binding that
patching ``x.f`` alone does not reach.  Methods are patched on their class.
`Tracer.uninstall()` puts every original back.

Three kinds of wrapper:

* named spans (``algebras.assoc``, ``globalize.verify``, ...) record a span on
  every call;
* layer wrappers record a span named after the layer only when the call
  crosses into that layer from another one, so calls inside a layer add no
  spans and stay in that layer's self time;
* hot leaf calls (``Algebra.mul``, ``rref``, ``Subspace.contains``) only bump
  a counter, which bounds the overhead; their time stays with the caller.

Spans are kept in memory as (name, start, end, parent, pass) tuples and
written as JSONL by `write_jsonl`.  `per_pass` computes inclusive and self
times from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Callable

# Named spans whose open presence marks an associativity check as made on a
# ring the program derived itself rather than one it loaded.
DERIVED_RING_SPANS = frozenset({"algebras.product", "algebras.subalgebra", "algebras.quotient"})

# Per layer: (owner, attribute) targets.  Owner is a module-level name or a
# "Class" name inside the layer's module; the mode is "layer" unless listed
# in NAMED or LEAF below.
TARGETS: dict[str, tuple[str, ...]] = {
    "linalg": (
        "rref", "span", "sum_subspaces", "intersect_subspaces", "express", "kernel",
        "compose_partial", "partial_inverse",
        "Subspace.span", "Subspace.zero", "Subspace.full", "Subspace.reduce",
        "Subspace.contains", "Subspace.contains_subspace", "Subspace.coordinates_of",
        "Subspace.from_coordinates", "Subspace.add", "Subspace.intersect",
        "Subspace.complement_coordinates", "Subspace.vectors",
        "LinMap.from_images", "LinMap.identity", "LinMap.apply", "LinMap.image",
        "LinMap.image_of", "LinMap.preimage_of", "LinMap.rank_of_map", "LinMap.is_iso",
        "LinMap.is_injective", "LinMap.inverse", "LinMap.then", "LinMap.restrict",
        "LinMap.agrees_with", "LinMap.as_partial_le",
    ),
    "algebras": (
        "_associator_failures", "validate_algebra", "is_multiplicatively_closed",
        "ideal_closure", "subring_closure", "identity_of", "is_ideal", "quotient",
        "is_ring_iso", "is_ring_hom", "product_ring", "local_units_witness",
        "subalgebra_on", "diagonal_algebra",
        "Algebra.__init__", "Algebra.mul", "Algebra.is_commutative",
        "Algebra.is_idempotent_vec", "Algebra.is_central_vec",
    ),
    "groupoids": (
        "validate_groupoid", "validate_order",
        "OrderedGroupoid.from_parts", "OrderedGroupoid.__eq__",
        "OrderedGroupoid.validate_groupoid", "OrderedGroupoid.validate_order",
        "OrderedGroupoid.is_valid", "OrderedGroupoid.require_valid",
        "OrderedGroupoid.compose", "OrderedGroupoid.restriction",
        "OrderedGroupoid.corestriction", "OrderedGroupoid.meet_objects",
        "OrderedGroupoid.pseudoproduct", "OrderedGroupoid.is_inductive",
        "OrderedGroupoid.is_pseudoassociative", "OrderedGroupoid.down_range_set",
        "OrderedGroupoid.pseudo_composable_set", "OrderedGroupoid.relabeled",
    ),
    "semigroups": (
        "validate_inverse_semigroup", "natural_order", "esn_to_groupoid",
        "esn_to_semigroup", "verify_premorphism",
        "InverseSemigroup.__init__", "InverseSemigroup.__eq__",
        "InverseSemigroup.idempotents", "InverseSemigroup.validate",
        "InverseSemigroup.is_valid", "InverseSemigroup.require_valid",
        "InverseSemigroup.inverse", "InverseSemigroup.natural_le",
        "InverseSemigroup.relabeled",
    ),
    "actions": (
        "validate_po_action", "require_valid_action", "is_global", "is_preunital",
        "is_unital", "first_non_unital_arrow", "is_strong", "meets_compatible",
        "satisfies_ps", "standard_restriction", "general_restriction",
        "identity_witness", "verify_equivalence", "search_equivalence",
        "validate_inv_sgp_action", "inv_action_is_global", "inv_action_is_preunital",
        "inv_action_is_unital", "semigroup_action_to_groupoid_action",
        "groupoid_action_to_semigroup_action", "relabel_action",
        "POAction.unit_vector", "POAction.apply", "InvSgpAction.unit_vector",
    ),
    "globalize": (
        "as_globalization", "build_globalization", "build_minimal_globalization",
        "verify_globalization", "globalize_inverse_semigroup_action",
    ),
    "skew": (
        "build_skew", "check_skew_associative", "build_ordered_skew", "skew_unit",
        "build_inv_sgp_skew", "morita_context", "inv_sgp_morita",
        "SkewRing.lift", "OrderedSkewRing.project_lift",
    ),
    "workspace": (
        "algebra_from_json", "groupoid_from_json", "semigroup_from_json",
        "action_from_json", "inv_action_from_json", "load_workspace",
        "algebra_to_json", "groupoid_to_json", "semigroup_to_json",
        "action_to_json", "inv_action_to_json", "dump_workspace_doc",
        "Workspace.action", "Workspace.inv_action",
    ),
    "tasks": ("run_task", "run_tasks", "TaskReport.to_dict", "TaskReport.summary"),
    "cli": ("main",),
}

LAYERS = tuple(TARGETS)

# (layer, target) -> span name recorded on every call.
NAMED = {
    ("algebras", "_associator_failures"): "algebras.assoc",
    ("algebras", "product_ring"): "algebras.product",
    ("algebras", "subalgebra_on"): "algebras.subalgebra",
    ("algebras", "quotient"): "algebras.quotient",
    ("algebras", "subring_closure"): "algebras.closure",
    ("algebras", "ideal_closure"): "algebras.closure",
    ("groupoids", "OrderedGroupoid.validate_order"): "groupoids.validate_order",
    ("semigroups", "esn_to_groupoid"): "semigroups.esn",
    ("semigroups", "esn_to_semigroup"): "semigroups.esn",
    ("actions", "validate_po_action"): "actions.validate",
    ("actions", "validate_inv_sgp_action"): "actions.validate",
    ("actions", "is_strong"): "actions.strong",
    ("actions", "search_equivalence"): "actions.equivalence",
    ("globalize", "build_globalization"): "globalize.build",
    ("globalize", "build_minimal_globalization"): "globalize.build",
    ("globalize", "verify_globalization"): "globalize.verify",
    ("skew", "build_skew"): "skew.build",
    ("skew", "check_skew_associative"): "skew.assoc",
    ("skew", "build_ordered_skew"): "skew.ordered",
    ("skew", "morita_context"): "skew.morita",
    ("skew", "inv_sgp_morita"): "skew.morita",
    ("workspace", "load_workspace"): "workspace.load",
    ("cli", "main"): "cli",
}
# run_task is named per call after its task kind: tasks.<kind>.
PER_KIND = ("tasks", "run_task")

# Hot leaves: counted, never timed.
LEAF = {
    ("linalg", "rref"),
    ("linalg", "Subspace.contains"),
    ("algebras", "Algebra.mul"),
}

# Every call of these is counted, whatever its mode.
COUNTED = {
    ("linalg", "rref"): "linalg.rref.calls",
    ("linalg", "Subspace.contains"): "linalg.contains.calls",
    ("algebras", "Algebra.mul"): "algebras.mul.calls",
    ("algebras", "_associator_failures"): "algebras.assoc.calls",
    ("groupoids", "OrderedGroupoid.pseudoproduct"): "groupoids.pseudoproduct.calls",
    ("groupoids", "OrderedGroupoid.meet_objects"): "groupoids.meet_objects.calls",
    ("groupoids", "OrderedGroupoid.restriction"): "groupoids.restriction.calls",
    ("semigroups", "InverseSemigroup.validate"): "semigroups.validate.calls",
    ("semigroups", "InverseSemigroup.natural_le"): "semigroups.natural_le.calls",
    ("actions", "validate_po_action"): "actions.validate.calls",
    ("actions", "validate_inv_sgp_action"): "actions.validate.calls",
    ("globalize", "verify_globalization"): "globalize.verify.calls",
    ("skew", "build_skew"): "skew.build.calls",
}


class Tracer:
    """Span and counter recorder for one worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[tuple[int, str, str]] = []  # (span index, layer, name)
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.pass_id = 0
        self.task_kinds: tuple[str, ...] = ()
        self._patches: list[tuple[Any, str, Any]] = []
        self._validated: list[Any] = []  # actions validated in the current task

    # -- wrappers ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str | None = None,
        count: str | None = None,
        before: Callable | None = None,
        after: Callable | None = None,
        leaf: bool = False,
    ) -> Callable:
        """Wrap fn so that it returns exactly what fn returns and raises
        exactly what fn raises.

        name: span name recorded on every call; None records a span named
        after the layer when the caller is in another layer.  leaf: count
        only.  before(args, kwargs) may return a span name for this call.
        """
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                counters[count] += 1
                if before is not None:
                    before(args, kwargs)
                return fn(*args, **kwargs)

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counters[count] += 1
            span_name = name
            if before is not None:
                span_name = before(args, kwargs) or name
            if span_name is None:
                if stack and stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                span_name = layer
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, layer, span_name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, tracer.pass_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _rref_rows(self, args, kwargs):
        rows = args[0] if args else kwargs.get("rows")
        if isinstance(rows, (list, tuple)):
            self.counters["linalg.rref.rows"] += len(rows)

    def _dim_of_first(self, args, kwargs):
        dim = args[0] if args else kwargs.get("dim")
        if isinstance(dim, int) and dim > self.maxima["linalg.max_dim"]:
            self.maxima["linalg.max_dim"] = dim

    def _assoc(self, args, kwargs):
        alg = args[0] if args else kwargs["alg"]
        if alg.dim > self.maxima["algebras.assoc.max_dim"]:
            self.maxima["algebras.assoc.max_dim"] = alg.dim
        if any(name in DERIVED_RING_SPANS for _, _, name in self.stack):
            self.counters["algebras.assoc.derived"] += 1

    def _validate_action(self, args, kwargs):
        action = args[0] if args else kwargs["a"]
        if any(seen is action for seen in self._validated):
            self.counters["actions.validate.repeats"] += 1
        else:
            self._validated.append(action)

    def _task_name(self, args, kwargs):
        self._validated = []
        t = args[1] if len(args) > 1 else kwargs["t"]
        return f"tasks.{t.get('task')}"

    def _task_done(self, args, kwargs, report):
        if report.status != "pass":
            self.counters["tasks.failed"] += 1

    def _equivalence_done(self, args, kwargs, result):
        self.counters["actions.equivalence.tested"] += result.tested

    def _globalization_built(self, args, kwargs, gl):
        if gl.ambient is not None and gl.ambient.dim > self.maxima["globalize.ambient_dim"]:
            self.maxima["globalize.ambient_dim"] = gl.ambient.dim

    def _skew_built(self, args, kwargs, s):
        if s.algebra.dim > self.maxima["skew.max_dim"]:
            self.maxima["skew.max_dim"] = s.algebra.dim

    def _workspace_bytes(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counters["workspace.bytes"] += os.path.getsize(path)

    def _hooks(self, layer: str, target: str) -> dict:
        key = (layer, target)
        if key == ("linalg", "rref"):
            return {"before": self._rref_rows}
        if key in {("linalg", "Subspace.span"), ("linalg", "Subspace.zero"),
                   ("linalg", "Subspace.full"), ("linalg", "span")}:
            return {"before": self._dim_of_first}
        if key == ("algebras", "_associator_failures"):
            return {"before": self._assoc}
        if key in {("actions", "validate_po_action"), ("actions", "validate_inv_sgp_action")}:
            return {"before": self._validate_action}
        if key == PER_KIND:
            return {"before": self._task_name, "after": self._task_done}
        if key == ("actions", "search_equivalence"):
            return {"after": self._equivalence_done}
        if key in {("globalize", "build_globalization"), ("globalize", "build_minimal_globalization")}:
            return {"after": self._globalization_built}
        if key == ("skew", "build_skew"):
            return {"after": self._skew_built}
        if key == ("workspace", "load_workspace"):
            return {"before": self._workspace_bytes}
        return {}

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; rebinds module-level copies in all ogaction
        modules.  Raises if a target is missing, so a rename shows."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ogaction" or n.startswith("ogaction.")) and m is not None]
        self.task_kinds = tuple(sys.modules["ogaction.tasks"].TASK_CATALOG)
        for layer, targets in TARGETS.items():
            module = sys.modules[f"ogaction.{layer}"]
            for target in targets:
                key = (layer, target)
                opts = dict(
                    layer=layer,
                    name=NAMED.get(key),
                    count=COUNTED.get(key),
                    leaf=key in LEAF,
                    **self._hooks(layer, target),
                )
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(raw.__func__, **opts))
                    elif isinstance(raw, classmethod):
                        new = classmethod(self.wrap(raw.__func__, **opts))
                    elif isinstance(raw, property):
                        new = property(self.wrap(raw.fget, **opts))
                    else:
                        new = self.wrap(raw, **opts)
                    self._set(cls, attr, new)
                else:
                    original = module.__dict__[target]
                    wrapped = self.wrap(original, **opts)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write_jsonl(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, pass_id = span
                fh.write(json.dumps(
                    {"id": idx, "name": name, "start": start, "end": end,
                     "parent": parent, "pass": pass_id}
                ) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters), "maxima": dict(self.maxima)}) + "\n")

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per pass id: inclusive time per span name ("<name>.s") and self
        time per layer ("<layer>.self_s"), plus root time ("root.s")."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, float]] = {}
        for idx, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent, pass_id = span
            row = out.setdefault(pass_id, {})
            dur = end - start
            layer = name.split(".", 1)[0]
            row[f"{layer}.self_s"] = row.get(f"{layer}.self_s", 0.0) + dur - child[idx]
            if name != layer:
                row[f"{name}.s"] = row.get(f"{name}.s", 0.0) + dur
            if parent < 0:
                row["root.s"] = row.get("root.s", 0.0) + dur
        return out
