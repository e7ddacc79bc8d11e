"""Spans and counts around the public functions of each seqret module.

``Tracer.install`` replaces every public function (and every public
method of a public class) of the traced modules with a wrapper that
records a span, and rebinds every module-level name in the package that
pointed at the original, so calls made through ``from .x import f``
bindings are seen too.  ``uninstall`` restores the originals.  Nothing
inside ``src/`` changes.

Spans are aggregated in memory per (phase, function, calling function):
call count, inclusive seconds and self seconds (inclusive minus the part
covered by child spans).  A layer's self time is the sum over its
functions.  Spans of every function outside ``autodiff`` are also kept
one by one (with their parent span) for the trace file; the tape
primitives run hundreds of thousands of times per training batch, so they
are kept as aggregates only.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

# module -> layer; the Adam step (_opt) is counted inside the trainer
LAYERS = {
    "autodiff": "autodiff",
    "mtpp": "mtpp",
    "unwarp": "unwarp",
    "relevance": "relevance",
    "trainer": "trainer",
    "_opt": "trainer",
    "hashing": "hashing",
    "retrieval": "retrieval",
    "sequences": "sequences",
    "datagen": "datagen",
}

# spans kept one by one for the trace file; later ones still count in
# the aggregates
MAX_SPANS = 400_000


def _fisher_role(args, kwargs) -> str:
    """fisher_vector(seq, params, conditioning=None, ...) -> .self/.cross"""
    cond = args[2] if len(args) > 2 else kwargs.get("conditioning")
    return ".self" if cond is None else ".cross"


TAGS = {"relevance.fisher_vector": _fisher_role}


class Tracer:
    """Span aggregates, kept spans and counts of one traced run."""

    def __init__(self):
        self.phase = "setup"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # count, incl, self
        self.spans: list[tuple] = []
        self.notes = defaultdict(list)
        self._stack: list[list] = []  # [key, span id, child seconds]
        self._next_id = 1
        self._patched: list[tuple] = []
        self._variant = "-"

    # -- recording ------------------------------------------------------------

    def _wrap(self, key: str, fn, keep_spans: bool):
        tracer = self
        tag = TAGS.get(key)
        after = {"autodiff.Tape.backward": self._after_backward,
                 "trainer.epoch_loss": self._after_epoch_loss,
                 "retrieval.score_candidates": self._after_score,
                 "hashing.train_hash_net": self._after_hash_net}.get(key)

        def traced(*args, **kwargs):
            name = key + tag(args, kwargs) if tag else key
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                pkey = parent[0] if parent else "-"
                if parent is not None:
                    parent[2] += dt
                rec = tracer.stats[(tracer.phase, name, pkey)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[2]
                if keep_spans and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent[1] if parent else 0,
                                         name, t0, t1))
            if after is not None:
                after(args, result, pkey)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_backward(self, args, result, parent):
        if parent == "trainer.train":
            self.notes["train_batch_nodes"].append(len(args[0]))
            self.notes[f"train_batch_nodes.{self._variant}"].append(len(args[0]))

    def _after_epoch_loss(self, args, result, parent):
        # epoch_loss(queries, corpus, pairs, params, ...); the outer backward
        # that follows in trainer.train belongs to this batch
        self._variant = args[3].config.variant
        self.notes["batch_pairs"].append(result.n_pairs)
        self.notes["batch_forward_nodes"].append(len(result.tape))
        self.notes[f"batch_forward_nodes.{self._variant}"].append(len(result.tape))

    def _after_hash_net(self, args, result, parent):
        self.notes["hash_epochs"].append(args[1].epochs)

    def _after_score(self, args, result, parent):
        self.notes["scored_candidates"].append(len(args[1]))

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        originals: dict[int, object] = {}
        for mod_name, layer in LAYERS.items():
            mod = importlib.import_module(f"seqret.{mod_name}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(f"{layer}.{name}", obj,
                                                    layer != "autodiff")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") or not isinstance(val, types.FunctionType):
                            continue
                        wrapped = self._wrap(f"{layer}.{name}.{attr}", val,
                                             layer != "autodiff")
                        setattr(obj, attr, wrapped)
                        self._patched.append((obj, attr, val))
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "seqret" or mod_name.startswith("seqret.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None and wrapped.__wrapped__ is val:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, val))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------------

    def total(self, key: str, phase: str | None = "loop", parent: str | None = None):
        """(calls, inclusive s, self s) of one function."""
        calls, incl, own = 0, 0.0, 0.0
        for (ph, name, pkey), (c, i, s) in self.stats.items():
            if name == key and (phase is None or ph == phase) and (parent is None or pkey == parent):
                calls += c
                incl += i
                own += s
        return calls, incl, own

    def mean(self, key: str, phase: str | None = "loop", parent: str | None = None) -> float:
        calls, incl, _ = self.total(key, phase, parent)
        return incl / calls if calls else 0.0

    def layer_self(self, layer: str, phase: str = "loop") -> float:
        return sum(rec[2] for (ph, name, _), rec in self.stats.items()
                   if ph == phase and name.split(".", 1)[0] == layer)

    def top_level(self, phase: str = "loop") -> float:
        return sum(rec[1] for (ph, _, pkey), rec in self.stats.items()
                   if ph == phase and pkey == "-")

    def dump(self, path) -> None:
        rows = [{"phase": ph, "function": name, "caller": pkey, "calls": c,
                 "inclusive_s": i, "self_s": s}
                for (ph, name, pkey), (c, i, s) in sorted(self.stats.items())]
        spans = [{"id": sid, "parent": pid, "function": name, "start": t0, "end": t1}
                 for sid, pid, name, t0, t1 in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"aggregates": rows, "counts": self.notes, "spans": spans}, fh)
