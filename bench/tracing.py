"""Per-module spans recorded from outside the package.

A `Tracer` replaces each listed public function of netlocal with a timing
wrapper at every module attribute that binds it (the defining module and
every importer, `netlocal.cli` included), so calls made through any of those
names are seen.  `behavior.Behavior` is a class: its `__init__` is wrapped
on the class itself, which every binding shares.

Self time is a span's duration minus the durations of its direct child
spans.  A name that no longer exists in the package (a later refactor may
remove it) is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, name) of every span, in report order
SPANS = (
    ("network", "standard_scenario"),
    ("evaluator", "evaluate_chain"),
    ("behavior", "Behavior"),
    ("behavior", "compute_IJ"),
    ("behavior", "correlator_report"),
    ("behavior", "save_behavior_json"),
    ("behavior", "save_behavior_csv"),
    ("behavior", "load_behavior_json"),
    ("behavior", "load_behavior_csv"),
    ("hvmodels", "trial_rng"),
    ("hvmodels", "sample_random_model"),
    ("hvmodels", "model_IJ"),
    ("hvmodels", "strategy_IJ"),
    ("analysis", "visibility_threshold"),
    ("analysis", "lp_local_membership"),
    ("analysis", "strategy_behavior_matrix"),
    ("analysis", "chain_pr_behavior"),
    ("analysis", "mc_nlocal_sweep"),
    ("analysis", "mc_local_mixture_sweep"),
    ("cli", "main"),
)

# counters gathered at span boundaries or from request payloads
COUNTERS = (
    ("evaluator.table_bytes", "bytes"),
    ("behavior.file_bytes_written", "bytes"),
    ("behavior.file_bytes_read", "bytes"),
    ("cli.payload_bytes", "bytes"),
    ("analysis.threshold.steps", "count"),
    ("analysis.lp.pivots", "count"),
    ("analysis.lp.deadline_misses", "count"),
)


def span_name(module: str, name: str) -> str:
    return f"{module}.{name}"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Span and counter store; `install()` patches, `uninstall()` restores."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.paused = False  # set while the client checks answers
        self._open = []      # child-time accumulator per open span
        self._patches = []   # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = open_spans.pop()
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(result, args)
            return result

        return traced

    def _after_hooks(self):
        counts = self.counts

        def table_bytes(result, args):
            counts["evaluator.table_bytes"] += result.table.nbytes

        def written(result, args):
            counts["behavior.file_bytes_written"] += _file_size(args[1])

        def read(result, args):
            counts["behavior.file_bytes_read"] += _file_size(args[0])

        def pivots(result, args):
            counts["analysis.lp.pivots"] += int(result.iterations)

        return {
            "evaluator.evaluate_chain": table_bytes,
            "behavior.save_behavior_json": written,
            "behavior.save_behavior_csv": written,
            "behavior.load_behavior_json": read,
            "behavior.load_behavior_csv": read,
            "analysis.lp_local_membership": pivots,
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "netlocal" or key.startswith("netlocal."))]
        hooks = self._after_hooks()
        for module, attr in SPANS:
            name = span_name(module, attr)
            home = sys.modules.get(f"netlocal.{module}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    continue
                self._patches.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(name, init))
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def reset_open_spans(self) -> None:
        """Forget spans left open by an aborted request."""
        self._open.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
