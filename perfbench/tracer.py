"""In-memory span tracer that wraps public callables of the program.

``Tracer.install`` replaces each target (``"module.function"`` or
``"module.Class.method"`` under the ``qtokens`` package) with a wrapper that
records one span per call: id, parent span id, name, start, end, and an
optional ``info`` dict computed from the call's arguments and result. Every
``qtokens`` module attribute that refers to the same function object is
patched, so calls through re-exports (``cli`` imports ``load_jsonl`` by name)
are traced too. A target that no longer exists is listed in ``missing``
instead of raising, so a commit that removes a name still gets a trace.

Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
from time import perf_counter
from typing import Callable

InfoHook = Callable[[tuple, dict, object], dict]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # Each span: [id, parent, name, start, end, info].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, info: InfoHook | None, rss: bool):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            rss_before = peak_rss_mb() if rss else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[3] = start
                record[4] = end
            extra = {}
            if info is not None:
                # A hook written against an older signature must not break
                # the traced program; the span then just carries no info.
                try:
                    extra = info(args, kwargs, result)
                except Exception:
                    extra = {}
            if rss:
                extra["rss_growth_mb"] = peak_rss_mb() - rss_before
            if extra:
                record[5] = extra
            return result

        return wrapper

    def install(self, targets: dict[str, tuple[InfoHook | None, bool]]) -> None:
        """Wrap every ``name -> (info_hook, record_rss)`` target that exists."""
        resolved = []
        for name, (info, rss) in targets.items():
            module_name, _, attr_path = name.partition(".")
            *parents, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(f"qtokens.{module_name}")
                for part in parents:
                    owner = getattr(owner, part)
                # Methods must be defined on the named class itself.
                original = vars(owner)[attr] if parents else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            resolved.append((name, info, rss, owner, attr, bool(parents), original))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qtokens" or key.startswith("qtokens."))]
        for name, info, rss, owner, attr, is_method, original in resolved:
            wrapper = self._wrap(name, original, info, rss)
            if is_method:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, info in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end, self.run_id, info]))
                fh.write("\n")


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for span_id, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, _, name, start, end, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[span_id]
    return out
