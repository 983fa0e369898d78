"""Outside-in per-layer tracing for the benchmark's traced run.

`Tracer.install()` swaps the simulator's public layer functions for timing
wrappers wherever they are looked up at call time: the names each module
binds at import (`insured_agents.sim` binds the layer functions by name),
the `Ledger` methods, `numpy.random.default_rng` and `MetricsReport.to_json`.
`uninstall()` restores the originals; an untraced run installs nothing.

Every wrapped call is a span with a name, start, end, parent span and the id
of the request it belongs to. A span's self time is the CPU time its thread
spent inside it (`time.thread_time`) minus that of its child spans. CPU time
rather than wall time, because on `sweep`'s worker threads a span's wall time
also counts the time its thread waits for the interpreter lock while the
other thread runs. Span stacks are thread-local because `sweep` runs cells on
worker threads; a worker's outermost span takes the request's root span as
its parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np

import insured_agents
from insured_agents import game, ledger, market, mechanism, sim
from insured_agents.ledger import Ledger, LedgerError
from insured_agents.mechanism import MechanismParams

_MODULES = (insured_agents, mechanism, game, ledger, market, sim)

FUNCTIONS = {
    mechanism: ("check_conditions",),
    game: ("build_game", "solve_spe", "brute_force_spe", "predict_honest_equilibrium"),
    market: (
        "price_premium",
        "update_posterior",
        "decide_purchase",
        "stack_premium",
        "underwrite_stack",
        "compose_stack",
    ),
}
LEDGER_OPS = (
    "underwrite",
    "file_claim",
    "respond_claim",
    "escalate",
    "adjudicate",
    "drop_claim",
    "expire_policy",
    "pay",
)
# Spans whose calls and self time are reported, in report order.
TIMED = (
    ["mechanism.check_conditions", "mechanism.params_replace"]
    + [f"game.{fn}" for fn in FUNCTIONS[game]]
    + [f"ledger.{op}" for op in LEDGER_OPS]
    + [f"market.{fn}" for fn in FUNCTIONS[market]]
    + ["sim.rng"]
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.calls: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.self_cpu_s: defaultdict[str, float] = defaultdict(float)
        self.request_id = 0
        self.distinct_params: set[MechanismParams] = set()
        self.purchases = 0
        self.ledgers: list[Ledger] = []
        self.episodes = 0
        self.cells = 0
        self.cell_wall_s = 0.0
        self.cell_cpu_s = 0.0
        self.sweep_capacity_s = 0.0  # sweep wall time x jobs
        self._root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """Return `fn` timed as span `name`; `after(args, result)` runs on success."""

        def traced(*args, **kwargs):
            stack = self._stack()
            # [span id, parent id, CPU seconds of child spans]
            frame = [next(self._ids), stack[-1][0] if stack else self._root, 0.0]
            stack.append(frame)
            failed = False
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except LedgerError:
                failed = True
                raise
            finally:
                end, cpu = time.perf_counter(), time.thread_time() - cpu
                stack.pop()
                if stack:
                    stack[-1][2] += cpu
                with self._lock:
                    self.spans.append((frame[0], frame[1], self.request_id, name, start, end))
                    self.calls[name] += 1
                    self.self_cpu_s[name] += cpu - frame[2]
                    self.failed[name] += failed
            if after is not None:
                with self._lock:
                    after(args, result)
            return result

        return traced

    def request(self, fn, arg):
        """Serve one request under a fresh request id and root span."""
        self.request_id += 1
        self._root = next(self._ids)
        stack = self._stack()
        stack.append([self._root, 0, 0.0])
        start = time.perf_counter()
        try:
            return fn(arg)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self._root, 0, self.request_id, "request", start, end))

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        for module, names in FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn_name in names:
                original = getattr(module, fn_name)
                after = None
                if fn_name == "build_game":
                    after = lambda args, _: self.distinct_params.add(args[0])  # noqa: E731
                elif fn_name == "decide_purchase":
                    after = self._count_purchase
                self._replace_everywhere(original, self.wrap(f"{layer}.{fn_name}", original, after))

        for op in LEDGER_OPS:
            self._set(Ledger, op, self.wrap(f"ledger.{op}", getattr(Ledger, op)))
        init = Ledger.__init__

        def ledger_init(ledger_self, *args, **kwargs):
            init(ledger_self, *args, **kwargs)
            with self._lock:
                self.ledgers.append(ledger_self)

        self._set(Ledger, "__init__", ledger_init)

        # `sim` calls dataclasses.replace on both MechanismParams (validated
        # per episode) and ScenarioConfig; only the former is the mechanism's.
        replace = sim.replace
        traced_replace = self.wrap("mechanism.params_replace", replace)
        self._set(
            sim,
            "replace",
            lambda obj, **changes: (
                traced_replace(obj, **changes)
                if isinstance(obj, MechanismParams)
                else replace(obj, **changes)
            ),
        )
        self._set(np.random, "default_rng", self.wrap("sim.rng", np.random.default_rng))
        self._set(sim.MetricsReport, "to_json", self.wrap("sim.report_render", sim.MetricsReport.to_json))
        self._set(
            sim,
            "run_scenario_with_records",
            self.wrap("sim.scenario", sim.run_scenario_with_records, self._count_episodes),
        )
        self._set(sim, "run_scenario", self._wrap_cell(sim.run_scenario))
        self._set(sim, "sweep", self._wrap_sweep(sim.sweep))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_purchase(self, args, purchased: bool) -> None:
        self.purchases += purchased

    def _count_episodes(self, args, result) -> None:
        self.episodes += args[0].episodes

    def _wrap_cell(self, run_scenario):
        traced = self.wrap("sim.sweep.cell", run_scenario)

        def cell(config):
            cpu, wall = time.thread_time(), time.perf_counter()
            try:
                return traced(config)
            finally:
                cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
                with self._lock:
                    self.cells += 1
                    self.cell_cpu_s += cpu
                    self.cell_wall_s += wall

        return cell

    def _wrap_sweep(self, sweep):
        traced = self.wrap("sim.sweep", sweep)

        def sweep_wrapper(config, grid, jobs=1):
            wall = time.perf_counter()
            try:
                return traced(config, grid, jobs=jobs)
            finally:
                self.sweep_capacity_s += (time.perf_counter() - wall) * max(1, jobs)

        return sweep_wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; 0 where nothing ran."""

        def per_call(total: float, n: int) -> float:
            return total / n if n else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.us"] = (1e6 * per_call(self.self_cpu_s[name], self.calls[name]), "us")
            if name.startswith("ledger."):
                out[f"{name}.failed"] = (self.failed[name], "count")
        builds = self.calls["game.build_game"]
        out["game.distinct_params_ratio"] = (per_call(len(self.distinct_params), builds), "ratio")
        transfers = sum(len(book.transfers) for book in self.ledgers)
        out["ledger.transfers_per_episode"] = (per_call(transfers, self.episodes), "count")
        out["ledger.shortfalls"] = (sum(len(book.shortfalls) for book in self.ledgers), "count")
        out["market.purchase_ratio"] = (
            per_call(self.purchases, self.calls["market.decide_purchase"]),
            "ratio",
        )
        out["sim.self_us_per_episode"] = (1e6 * per_call(self.self_cpu_s["sim.scenario"], self.episodes), "us")
        out["sim.report_render.us"] = (
            1e6 * per_call(self.self_cpu_s["sim.report_render"], self.calls["sim.report_render"]),
            "us",
        )
        # Wall time per cell, lock waits included: with two jobs a cell takes
        # longer than its CPU time whenever the other thread holds the lock.
        out["sim.sweep.cell_s"] = (per_call(self.cell_wall_s, self.cells), "s")
        out["sim.sweep.core_utilization"] = (per_call(self.cell_cpu_s, self.sweep_capacity_s), "ratio")
        return out

    def write_spans(self, path) -> None:
        """One JSON array per span: id, parent, request, name, start/end in us."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, request, name,
                                     round(1e6 * (start - t0), 1), round(1e6 * (end - t0), 1)]) + "\n")
