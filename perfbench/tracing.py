"""Span tracing of calls into the library, and the per-layer metrics derived from the spans.

While installed, a ``Tracer`` replaces every binding of each public
function of the library's modules (``operators``, ``solvers``,
``analysis``, ``initializers``, ``experiments``, ``artifacts``, ``cli``)
with a wrapper that records one span per call: an id, the id of the
enclosing span (-1 at top level), a name ``<module>.<function>``, and
start and end times in nanoseconds.  A function imported by name into
another module is wrapped there too, since calls go through that
binding.  Ensemble methods are wrapped on the class, so every instance
is seen; ``__init__`` is recorded as ``operators.build``.

Spans stay in memory until the run ends.  Nothing in the library changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import time

PACKAGE = "saddle_raar"
LAYERS = ("operators", "solvers", "analysis", "initializers", "experiments", "artifacts", "cli")
ENSEMBLE_METHODS = {
    "__init__": "build",
    "apply": "apply",
    "apply_adjoint": "apply_adjoint",
    "project_range": "project_range",
    "project_complement": "project_complement",
    "materialize_adjoint": "materialize_adjoint",
}
STEPS = ("solvers.raar_step", "solvers.admm_step", "solvers.drs_step")


class Tracer:
    """Records a span for each call into the library while installed."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start_ns, end_ns), appended at exit
        self._stack = []
        self._ids = itertools.count()
        self._patches = self._find_patches()
        self.names = {wrapper.span_name for _o, _a, _orig, wrapper in self._patches}

    def _wrap(self, fn, name):
        append, stack, ids, clock = self.spans.append, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append((sid, parent, name, start, end))

        traced.span_name = name
        return traced

    def _find_patches(self):
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        owners = [package, *modules.values()]
        base = modules["operators"].MeasurementEnsemble
        patches = []
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    for owner in owners:
                        for bound_as, value in list(vars(owner).items()):
                            if value is obj:
                                patches.append((owner, bound_as, obj, wrapper))
                elif inspect.isclass(obj) and issubclass(obj, base):
                    for method, label in ENSEMBLE_METHODS.items():
                        fn = vars(obj).get(method)
                        if fn is not None:
                            patches.append((obj, method, fn, self._wrap(fn, f"operators.{label}")))
        return patches

    def install(self):
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _wrapper in reversed(self._patches):
            setattr(owner, attr, orig)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# Per-layer metric -> span names it is derived from.  A metric whose
# sources are not all present in the program (a later change removed the
# function) is reported as absent; "solvers.step" stands for any step form.
SOURCES = {
    "operators.apply.calls": ("operators.apply",),
    "operators.apply.us_per_call": ("operators.apply",),
    "operators.apply.self_s": ("operators.apply",),
    "operators.apply_adjoint.calls": ("operators.apply_adjoint",),
    "operators.apply_adjoint.us_per_call": ("operators.apply_adjoint",),
    "operators.apply_adjoint.self_s": ("operators.apply_adjoint",),
    "operators.project_torus.calls": ("operators.project_torus",),
    "operators.project_torus.us_per_call": ("operators.project_torus",),
    "operators.build.s": ("operators.build",),
    "operators.materialize_adjoint.s": ("operators.materialize_adjoint",),
    "solvers.iterations": ("solvers.run", "solvers.step"),
    "solvers.run.self_s": ("solvers.run",),
    "solvers.step.calls": ("solvers.step",),
    "solvers.step.us_per_call": ("solvers.step",),
    "solvers.applies_per_iter": ("solvers.run", "solvers.step", "operators.apply"),
    "solvers.step.projections": ("solvers.step", "operators.project_range"),
    "analysis.diagnostics.calls": ("analysis.diagnostics",),
    "analysis.diagnostics.us_per_call": ("analysis.diagnostics",),
    "analysis.diagnostics.share": ("analysis.diagnostics",),
    "analysis.certify_cross_section_minimizer.s_per_call": ("analysis.certify_cross_section_minimizer",),
    "analysis.spectral_gap.s_per_call": ("analysis.spectral_gap",),
    "analysis.certify_fixed_point.s": ("analysis.certify_fixed_point",),
    "initializers.null_vector.calls": ("initializers.null_vector",),
    "initializers.null_vector.s_per_call": ("initializers.null_vector",),
    "initializers.null_vector.power_iters": ("initializers.null_vector", "operators.apply"),
    "experiments.self_s": (),
    "cli.self_s": (),
    "artifacts.write.calls": ("artifacts.atomic_write_bytes",),
    "artifacts.write.s": ("artifacts.atomic_write_bytes",),
}


def absent_metrics(names: set) -> list:
    """Per-layer metrics whose source functions the program no longer has."""
    have = set(names)
    if have.intersection(STEPS):
        have.add("solvers.step")
    return sorted(m for m, sources in SOURCES.items() if not have.issuperset(sources))


def per_layer(spans: list, wall_ns: int) -> dict:
    """Per-layer metrics of one traced batch from its spans and its wall time.

    Counts are per batch; ``us_per_call``/``s_per_call`` are medians of the
    spans' inclusive durations; ``self_s`` sums the time a span is not
    covered by its child spans; ``.s`` sums inclusive durations.
    """
    spans = sorted(spans)  # ids grow in call order, so a parent precedes its children
    index = {span[0]: i for i, span in enumerate(spans)}
    n = len(spans)
    dur = [end - start for _i, _p, _n, start, end in spans]
    covered = [0] * n
    run_of, step_of, init_of, artifact_of = ([-1] * n for _ in range(4))
    by_name = {}
    for i, (_sid, parent, name, _start, _end) in enumerate(spans):
        p = index.get(parent, -1)
        if p >= 0:
            covered[p] += dur[i]
            run_of[i], step_of[i], init_of[i], artifact_of[i] = run_of[p], step_of[p], init_of[p], artifact_of[p]
        by_name.setdefault(name, []).append(i)
        if name == "solvers.run":
            run_of[i] = i
        elif name in STEPS:
            step_of[i] = i
        elif name == "initializers.null_vector":
            init_of[i] = i
        elif name.startswith("artifacts.") and artifact_of[i] < 0:
            artifact_of[i] = i  # outermost artifacts span

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def median_s(group):
        return statistics.median(dur[i] for i in group) / 1e9 if group else 0.0

    def total_s(group):
        return sum(dur[i] for i in group) / 1e9

    def self_s(group):
        return sum(dur[i] - covered[i] for i in group) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    steps = [i for name in STEPS for i in ids(name)]
    loop_steps = [i for i in steps if run_of[i] >= 0]
    first_step = {}
    for i in loop_steps:
        start = spans[i][3]
        first_step[run_of[i]] = min(first_step.get(run_of[i], start), start)
    applies = ids("operators.apply")
    # the k = 0 record before the first step is the run's set-up, not an iteration
    loop_applies = sum(1 for i in applies if run_of[i] in first_step and spans[i][3] >= first_step[run_of[i]])
    step_projections = sum(1 for i in ids("operators.project_range") if step_of[i] >= 0)
    nulls = ids("initializers.null_vector")
    diag = ids("analysis.diagnostics")

    def layer(prefix):
        return [i for i, span in enumerate(spans) if span[2].startswith(prefix)]

    return {
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.us_per_call": median_s(applies) * 1e6,
        "operators.apply.self_s": self_s(applies),
        "operators.apply_adjoint.calls": calls("operators.apply_adjoint"),
        "operators.apply_adjoint.us_per_call": median_s(ids("operators.apply_adjoint")) * 1e6,
        "operators.apply_adjoint.self_s": self_s(ids("operators.apply_adjoint")),
        "operators.project_torus.calls": calls("operators.project_torus"),
        "operators.project_torus.us_per_call": median_s(ids("operators.project_torus")) * 1e6,
        "operators.build.s": total_s(ids("operators.build")),
        "operators.materialize_adjoint.s": total_s(ids("operators.materialize_adjoint")),
        "solvers.iterations": len(loop_steps),
        "solvers.run.self_s": self_s(ids("solvers.run")),
        "solvers.step.calls": len(steps),
        "solvers.step.us_per_call": median_s(steps) * 1e6,
        "solvers.applies_per_iter": ratio(loop_applies, len(loop_steps)),
        "solvers.step.projections": ratio(step_projections, len(steps)),
        "analysis.diagnostics.calls": len(diag),
        "analysis.diagnostics.us_per_call": median_s(diag) * 1e6,
        "analysis.diagnostics.share": ratio(total_s(diag), wall_ns / 1e9),
        "analysis.certify_cross_section_minimizer.s_per_call": median_s(
            ids("analysis.certify_cross_section_minimizer")
        ),
        "analysis.spectral_gap.s_per_call": median_s(ids("analysis.spectral_gap")),
        "analysis.certify_fixed_point.s": total_s(ids("analysis.certify_fixed_point")),
        "initializers.null_vector.calls": len(nulls),
        "initializers.null_vector.s_per_call": median_s(nulls),
        "initializers.null_vector.power_iters": ratio(sum(1 for i in applies if init_of[i] >= 0), len(nulls)),
        "experiments.self_s": self_s(layer("experiments.")),
        "cli.self_s": self_s(layer("cli.")),
        "artifacts.write.calls": calls("artifacts.atomic_write_bytes"),
        "artifacts.write.s": total_s([i for i in layer("artifacts.") if artifact_of[i] == i]),
    }
