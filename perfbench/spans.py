"""Span tracing of ionmzi from outside the program.

:func:`install` replaces each traced function, in every ionmzi module that
holds a reference to it, by a wrapper that records one span: name, start,
end, parent span and request id.  ``ionmzi.protocol`` keeps its own
references to ``beam_splitter`` and ``ion_interaction`` and
``ionmzi.recycler`` its own ``single_pass``, so wrapping only the defining
module would miss those calls.  ``PureState`` is traced through its
``__init__``, which every construction runs whatever name it was found
under.  Spans stay in memory until the run writes them out at its end.

The timed runs never import this module.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, attribute) of each traced function, named "<module>.<attribute>".
TRACED = (
    ("elements", "beam_splitter"),
    ("elements", "ion_interaction"),
    ("protocol", "single_pass"),
    ("protocol", "run_mixed"),
    ("recycler", "iterate_numeric"),
    ("recycler", "monte_carlo"),
    ("efficiency", "throughput"),
    ("cli", "parse_config"),
    ("cli", "build_report"),
    ("cli", "render"),
)
PURE_STATE = "states.PureState"


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request id, trials or None)
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans = self.spans
        stack = self._stack
        counts_trials = name == "recycler.monte_carlo"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                trials = (args[1] if len(args) > 1 else kwargs.get("trials")) if counts_trials else None
                spans[index] = (name, start, end, parent, self.request, trials)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    import ionmzi.cli  # noqa: F401  (imports every module below)

    modules = [module for name, module in sys.modules.items() if name == "ionmzi" or name.startswith("ionmzi.")]
    for module_name, attribute in TRACED:
        original = getattr(sys.modules[f"ionmzi.{module_name}"], attribute)
        wrapper = tracer.wrap(f"{module_name}.{attribute}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    pure_state = sys.modules["ionmzi.states"].PureState
    pure_state.__init__ = tracer.wrap(PURE_STATE, pure_state.__init__)


def layer_stats(*span_lists: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, child single_pass calls, trials.

    Each list is one process's spans; parent indices point into their own list.
    """
    stats: dict[str, dict] = {}
    for spans in span_lists:
        _add_stats(stats, spans)
    return stats


def _add_stats(stats: dict[str, dict], spans: list[tuple]) -> None:
    child_time = [0.0] * len(spans)
    child_passes = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "protocol.single_pass":
                child_passes[parent] += 1
    for index, (name, start, end, _, _, trials) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "passes": 0, "trials": 0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        entry["passes"] += child_passes[index]
        entry["trials"] += trials or 0
