"""In-memory span recorder that wraps the program's public functions.

Nothing in the program is edited: ``Tracer.install`` rebinds each wrapped
function in every ``coordsim`` module namespace that holds it, so callers
that imported it by name (``coordsim.cli.monte_carlo``,
``coordsim.nptest.draw_binning``, ...) reach the wrapper too.
``uninstall`` puts every original back.  A span records its name, start,
end, parent span and run id, plus counters taken from the call's
arguments or result; spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._stack()
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "attrs": dict(attrs or {}),
        }
        self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, attrs=None, counts=None):
        """``attrs(*args, **kwargs)`` and ``counts(result)`` return dicts
        stored on the span; both run outside its timed interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, attrs(*args, **kwargs) if attrs else None) as rec:
                result = fn(*args, **kwargs)
            if counts:
                rec["attrs"].update(counts(result))
            return result

        return traced

    def install(self, fn, name: str, attrs=None, counts=None, owner=None) -> None:
        """Wrap ``fn`` wherever a ``coordsim`` module binds it, or only as
        the attribute of ``owner`` (a class) when one is given."""
        traced = self.wrap(fn, name, attrs, counts)
        if owner is not None:
            self._patch(owner, fn.__name__, traced)
            return
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coordsim" or mod_name.startswith("coordsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, traced)
                    hits += 1
        if not hits:
            raise LookupError(f"no coordsim module binds {fn.__qualname__}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}
