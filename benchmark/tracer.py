"""Spans around the calls into each leakyqkd module, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
(and every name another module bound to it with ``from ... import``,
such as ``driver.fidelity`` or ``lp.tangent_line``) by a wrapper that
records a span: name, start, end, parent span and evaluation id (the
index of the enclosing ``driver.key_rate`` call).  Public methods of the
modules' classes are wrapped the same way.  ``lp._solve_once`` gets a
counting wrapper without a span, so relaxation retries are counted and
their time stays in ``lp.solve``.  ``uninstall`` restores the originals.

Spans stay in memory; ``write`` dumps them once the run is over and
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

MODULES = ("fock", "linalg", "coin", "passive", "oil", "channel", "lp", "driver")
LP_BUILDERS = ("lp.yield_program", "lp.bit_error_program", "lp.refined_yield_program",
               "lp.refined_error_program")


def _is_traced_callable(obj, module_name: str) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module_name)


class Tracer:
    def __init__(self, package, reference_source: dict, reference_masses: dict):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.reference_source = reference_source
        self.reference_masses = reference_masses
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent, evaluation id]
        self.stack: list[int] = []
        self.evaluation = -1
        self.evaluations = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.mass_rel_err = 0.0
        self.probe_stack: list[list[bool]] = []
        self.probes: list[bool] = []
        self._solve_attempts = 0
        self._saved: list[tuple] = []
        self._hooks = {
            "passive.region_moments": self._on_region_moments,
            "lp.solve": self._on_solve,
            "driver.key_rate": self._on_key_rate,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for short, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traced_callable(obj, module.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__:
                    for attr, obj in list(vars(cls).items()):
                        if not attr.startswith("_") and inspect.isfunction(obj):
                            self._saved.append((cls, attr, obj))
                            setattr(cls, attr, self._wrap(f"{short}.{cls.__name__}.{attr}", obj))
        targets = list(self.modules.values()) + [self.package]
        for module in targets:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        lp = self.modules["lp"]
        self._saved.append((lp, "_solve_once", lp._solve_once))
        lp._solve_once = self._count_attempts(lp._solve_once)
        self.modules["driver"].optimize_point = self._track_probes(
            self.modules["driver"].optimize_point)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        index = self.name_index[name]
        hook = self._hooks.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs, None)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self.evaluation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, _Raised)
                raise
            record[2] = time.perf_counter()
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_attempts(self, fn):
        def counted(spec, perturbation):
            solution = fn(spec, perturbation)
            self._solve_attempts += 1
            self.counts["lp.solve.attempts"] += 1
            self.counts["lp.solve.iterations"] += solution.iterations
            return solution
        return counted

    def _track_probes(self, fn):
        def tracked(*args, **kwargs):
            self.probe_stack.append([])
            try:
                return fn(*args, **kwargs)
            finally:
                outcomes = self.probe_stack.pop()
                self.probes.extend(outcomes[:-1])  # the last call is the final evaluation
        tracked.__wrapped__ = fn
        return tracked

    # -- hooks (result None: entry; _Raised: the call raised) -----------------

    def _on_region_moments(self, args, kwargs, result):
        if result is None:
            return
        node_sets = kwargs.get("node_sets") or (args[5] if len(args) > 5 else None)
        self.counts["passive.region_moments.nodes"] += sum(s.theta.size for s in node_sets or ())
        if result is _Raised:
            return
        region, params = args[0], args[1]
        src = self.reference_source
        g = params.geometry
        if (region.bit is not None and params.mu_max == src["mu_max"]
                and (g.delta_theta_z, g.delta_theta_x, g.delta_phi_x, g.t1, g.t2)
                == (src["delta_theta_z"], src["delta_theta_x"], src["delta_phi_x"],
                    src["t1"], src["t2"])):
            ref = self.reference_masses[f"{region.bit}:{region.basis}:{region.intensity}"]
            self.mass_rel_err = max(self.mass_rel_err, abs(result.mass - ref) / ref)

    def _on_solve(self, args, kwargs, result):
        if result is None:
            self._solve_attempts = 0
            return
        ok = result is not _Raised and result.status == "optimal"
        if not ok:
            self.counts["lp.solve.failed"] += 1
        elif self._solve_attempts == 1:
            self.counts["lp.solve.first_try"] += 1

    def _on_key_rate(self, args, kwargs, result):
        if result is None:
            self.evaluation = self.evaluations
            self.evaluations += 1
            return
        self.evaluation = -1
        if self.probe_stack:
            self.probe_stack[-1].append(result is not _Raised and result.rate > 0.0)

    # -- output ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[self.names[name]] += (end - start) - child[k]
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[self.names[span[0]]] += 1

        def layer(prefix, what):
            names = [n for n in own if n.split(".", 1)[0] == prefix]
            return sum((own if what == "self" else calls)[n] for n in names)

        solves = calls["lp.solve"]
        nodes = self.counts["passive.region_moments.nodes"]
        rm_self = own["passive.region_moments"]
        probes = len(self.probes)
        return {
            "passive.region_moments.calls": (calls["passive.region_moments"], "count"),
            "passive.region_moments.self_s": (rm_self, "s"),
            "passive.region_moments.nodes": (int(nodes), "count"),
            "passive.region_moments.us_per_node": (1e6 * rm_self / nodes if nodes else 0.0, "us"),
            "passive.build_region_nodes.self_s": (own["passive.build_region_nodes"], "s"),
            "passive.mass_rel_err": (self.mass_rel_err, "1"),
            "passive.self_s": (layer("passive", "self"), "s"),
            "lp.solve.calls": (solves, "count"),
            "lp.solve.self_s": (own["lp.solve"], "s"),
            "lp.solve.iterations": (int(self.counts["lp.solve.iterations"]), "count"),
            "lp.solve.attempts": (int(self.counts["lp.solve.attempts"]), "count"),
            "lp.solve.first_try_share": (
                self.counts["lp.solve.first_try"] / solves if solves else 0.0, "1"),
            "lp.solve.failed": (int(self.counts["lp.solve.failed"]), "count"),
            "lp.build.self_s": (sum(own[n] for n in LP_BUILDERS), "s"),
            "lp.key_opp_split.self_s": (own["lp.key_opp_split"], "s"),
            "lp.self_s": (layer("lp", "self"), "s"),
            "linalg.fidelity.calls": (calls["linalg.fidelity"], "count"),
            "linalg.fidelity.self_s": (own["linalg.fidelity"], "s"),
            "linalg.pure_state_fidelity.self_s": (own["linalg.pure_state_fidelity"], "s"),
            "linalg.self_s": (layer("linalg", "self"), "s"),
            "coin.self_s": (layer("coin", "self"), "s"),
            "oil.calls": (layer("oil", "calls"), "count"),
            "oil.self_s": (layer("oil", "self"), "s"),
            "channel.calls": (layer("channel", "calls"), "count"),
            "channel.self_s": (layer("channel", "self"), "s"),
            "fock.self_s": (layer("fock", "self"), "s"),
            "driver.key_rate.calls": (calls["driver.key_rate"], "count"),
            "driver.self_s": (layer("driver", "self"), "s"),
            "driver.probe_positive_share": (
                sum(self.probes) / probes if probes else 0.0, "1"),
            "trace.spans": (len(self.spans), "count"),
        }

    def span_cost_s(self, calls: int = 200_000) -> float:
        """Measured cost of one span: a wrapped no-op against a plain one."""
        probe = Tracer(self.package, self.reference_source, self.reference_masses)

        def noop():
            return None

        wrapped = probe._wrap("calibration", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "evaluation"],
                       "names": self.names,
                       "spans": [[n, round(s, 7), round(e, 7), p, ev]
                                 for n, s, e, p, ev in self.spans]}, fh)


class _Raised:
    """Marker passed to hooks when the wrapped call raised."""
