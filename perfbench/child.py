"""The measured process: set up one workload, run it for a fixed time, and
check every output against the reference.

``run.py`` starts this script in a fresh process for every set-up and every
measurement::

    python3 perfbench/child.py setup|measure INPUTS.pickle TRACE

It prints one JSON object: the monotonic time at which the workload was
ready and the outputs that failed their check; for ``measure`` also the
timed results, and with ``TRACE`` 1 the per-layer numbers.  ``run.py``
measures set-up time from just before it started this process.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import statistics
import sys
import time
from collections import deque
from itertools import count, cycle
from time import perf_counter

from reference import digest
from stats import latency_summary, median_or_zero
from tracing import Tracer

#: Whole passes, rounds or drains a measurement makes at least, however
#: short ``--seconds`` is, so every median has something to work on.
MIN_GROUPS = 3
#: Serve: queue room for any burst of the open-loop stream (so the
#: generator never blocks in submit), and a per-request budget no valid
#: request comes near.
SERVE_QUEUE = 4096
SERVE_TIMEOUT_S = 30.0
#: The generator checks finished results only while no request is in
#: flight (a check holds the interpreter lock a result would wait for) and
#: the next request is due at least this far ahead.
CHECK_SLACK_S = 0.02


def _status_kib(pid, field: str) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise LookupError(field)


def reset_peak_rss(pid="self") -> None:
    """Restart the peak resident set size of ``pid`` from its current size."""
    with open(f"/proc/{pid}/clear_refs", "w") as clear:
        clear.write("5")


def peak_rss_mb(pid="self") -> float:
    return _status_kib(pid, "VmHWM") / 1024


class Checks:
    """Operations attempted and the ones whose output disagreed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def agrees(expected: list, accepted: bool, result) -> bool:
    """Does an accepted tree or a reject offset match the reference outcome?"""
    if expected[0] == 1:
        return accepted and digest(result) == expected[1]
    return not accepted and result == expected[1]


def patch_build(tracer: Tracer) -> None:
    """Trace the build stages ``compile_grammar`` and the sessions call."""
    import repro.api as api

    tracer.patch(api, "compose_with_manifest", "build.compose")
    tracer.patch(api, "prepare", "build.optimize")
    tracer.patch(api, "generate_parser_source", "build.codegen")
    tracer.patch(api, "load_parser", "build.codegen")
    tracer.patch(api.Language, "vm_program", "build.vm_lower")


class Workload:
    def __init__(self, data: dict, tracer: Tracer):
        self.data = data
        self.tracer = tracer
        self.checks = Checks()
        self.language = None
        self.vm_ops = 0

    def build_layers(self) -> dict:
        tracer = self.tracer
        return {
            "build.compose_ms": 1000 * sum(tracer.durations("build.compose", setup=True)),
            "build.optimize_ms": 1000 * sum(tracer.durations("build.optimize", setup=True)),
            "build.codegen_ms": 1000 * sum(tracer.durations("build.codegen", setup=True)),
            "build.vm_lower_ms": 1000 * sum(tracer.durations("build.vm_lower", setup=True)),
            "build.parser_kb": len(self.language.parser_source) / 1000,
            "build.vm_ops": self.vm_ops,
            "gc.pause_ms": 1000 * sum(tracer.gc_pauses),
            "gc.collections": len(tracer.gc_pauses),
        }

    def close(self) -> None:
        pass


class Batch(Workload):
    """Every corpus file through the layout pre-pass and a generated-parser
    session, pass after pass, each pass in a seeded order."""

    def setup(self) -> None:
        import repro
        from repro.errors import ParseError
        from repro.workloads.pylayout import python_layout

        patch_build(self.tracer)
        self.ParseError = ParseError
        self.language = repro.compile_grammar("python.Python")
        self.session = self.language.session()
        self.layout = self.tracer.wrap("layout", python_layout)
        self.parse = self.tracer.wrap("parse", self.session.parse)
        self.run(self.data["warmup"])

    def run(self, index: int) -> float:
        """One file, checked; its latency, or ``math.inf`` if it failed."""
        name, text, _, expected, may_reject = self.data["files"][index]
        crash = None
        start = perf_counter()
        try:
            result, accepted = self.parse(self.layout(text), source=name), True
        except self.ParseError as error:
            result, accepted = error.offset, False
        except Exception as error:  # a crash is a failed operation, not the end of the run
            crash = f"{type(error).__name__}: {error}"
        elapsed = perf_counter() - start
        if crash is not None:
            self.checks.record(False, f"{name}: raised {crash}")
            return math.inf
        ok = agrees(expected, accepted, result) and (accepted or may_reject)
        self.checks.record(ok, f"{name}: {'accepted' if accepted else f'rejected at {result}'}, reference {expected}")
        return elapsed if ok else math.inf

    def measure(self, seconds: float) -> dict:
        tracer = self.tracer
        files = self.data["files"]
        memo_entries, memo_kb, seen = [], [], set()
        samples, pass_times = [], []
        ops = count()
        reset_peak_rss()
        tracer.start_timed_phase()
        deadline = perf_counter() + seconds
        for order in cycle(self.data["passes"]):
            if len(pass_times) >= MIN_GROUPS and perf_counter() >= deadline:
                break
            total = 0.0
            for index in order:
                with tracer.op("op", next(ops)):
                    elapsed = self.run(index)
                samples.append(elapsed)
                total += elapsed
                if tracer.enabled and index not in seen and elapsed != math.inf:
                    seen.add(index)
                    if files[index][3][0] == 1:
                        memo_entries.append(self.session.parser.memo_entry_count())
                        memo_kb.append(self.session.parser.memo_size_bytes() / 1000)
            pass_times.append(total)
        tracer.end_timed_phase()
        peak = peak_rss_mb()
        corpus_kb = sum(nbytes for _, _, nbytes, _, _ in files) / 1000
        result = {
            "latency": latency_summary(samples),
            "kb_per_s": corpus_kb / statistics.median(pass_times),
            "peak_rss_mb": peak,
            "detail": {"passes": len(pass_times), "corpus_kb": corpus_kb},
        }
        if tracer.enabled:
            result["layers"] = {
                **self.build_layers(),
                "layout.ms": 1000 * median_or_zero(tracer.durations("layout")),
                "parse.ms": 1000 * median_or_zero(tracer.durations("parse", raised=False)),
                "parse.reject_ms": 1000 * median_or_zero(tracer.durations("parse", raised=True)),
                "memo.entries": median_or_zero(memo_entries),
                "memo.kb": median_or_zero(memo_kb),
            }
        return result


class Edit(Workload):
    """Seeded editor rounds over buffers open in incremental VM sessions."""

    def setup(self) -> None:
        import repro
        from repro.errors import ParseError

        patch_build(self.tracer)
        self.ParseError = ParseError
        self.language = repro.compile_grammar("python.Python")
        self.sessions = []
        for name, text, _, expected in self.data["buffers"]:
            session = self.language.incremental()
            session.set_text(text, source=name)
            try:
                ok = agrees(expected, True, session.parse())
            except ParseError as error:
                ok = agrees(expected, False, error.offset)
            self.checks.record(ok, f"opening {name}")
            self.sessions.append(session)
        self.vm_ops = len(self.language.vm_program(incremental=True).code)
        self.apply = [self.tracer.wrap("edit.apply", s.apply_edit) for s in self.sessions]
        self.reparse = [self.tracer.wrap("edit.parse", s.parse) for s in self.sessions]
        self.step_stats: list[tuple] = []
        self.memo_kb: list[float] = []
        self.ops = count()
        self.run_action(self.data["warmup"])

    def run_action(self, index: int) -> list[tuple[float, bool]]:
        """Run one pool action, checking every step; ``(latency, accepted)``
        per step, the latency ``math.inf`` for a failed step."""
        buffer, kind, steps, expected = self.data["pool"][index]
        session = self.sessions[buffer]
        apply, reparse = self.apply[buffer], self.reparse[buffer]
        tracer = self.tracer
        outcomes = []
        for number, (step, want) in enumerate(zip(steps, expected)):
            crash = None
            with tracer.op("op", next(self.ops)):
                start = perf_counter()
                try:
                    stats = apply(*step)
                    try:
                        result, accepted = reparse(), True
                    except self.ParseError as error:
                        result, accepted = error.offset, False
                except Exception as error:  # a crash is a failed operation, not the end of the run
                    crash = f"{type(error).__name__}: {error}"
                elapsed = perf_counter() - start
            what = f"{kind} action {index} step {number}"
            if crash is not None:
                self.checks.record(False, f"{what}: raised {crash}")
                outcomes.append((math.inf, False))
                continue
            if tracer.enabled:
                entries = session.memo_entry_count()
                self.step_stats.append((stats.dropped, stats.shifted, stats.retained, entries))
            ok = agrees(want, accepted, result)
            if number == len(steps) - 1:
                ok = ok and session.text == self.data["buffers"][buffer][1]
                if tracer.enabled:
                    # Not public on IncrementalSession; read from its parser.
                    self.memo_kb.append(session._parser.memo_size_bytes() / 1000)
            self.checks.record(ok, f"{what}: {'accepted' if accepted else f'rejected at {result}'}, reference {want}")
            outcomes.append((elapsed if ok else math.inf, accepted))
        return outcomes

    def measure(self, seconds: float) -> dict:
        tracer = self.tracer
        pool = self.data["pool"]
        buffers = self.data["buffers"]
        samples, round_rates = [], []
        rejects = {"rename": 0, "extend": 0, "retype": 0}
        self.step_stats.clear()
        self.memo_kb.clear()
        reset_peak_rss()
        tracer.start_timed_phase()
        deadline = perf_counter() + seconds
        for actions in cycle(self.data["rounds"]):
            if len(round_rates) >= MIN_GROUPS and perf_counter() >= deadline:
                break
            kb = busy = 0.0
            for index in actions:
                buffer, kind = pool[index][0], pool[index][1]
                for elapsed, accepted in self.run_action(index):
                    samples.append(elapsed)
                    rejects[kind] += not accepted
                    kb += buffers[buffer][2] / 1000
                    busy += elapsed
            round_rates.append(kb / busy)
        tracer.end_timed_phase()
        peak = peak_rss_mb()
        steps = len(samples)
        result = {
            "latency": latency_summary(samples),
            "kb_per_s": statistics.median(round_rates),
            "peak_rss_mb": peak,
            "detail": {
                "rounds": len(round_rates),
                "steps": steps,
                "rejects_by_kind": rejects,
                "reject_share": sum(rejects.values()) / steps,
            },
        }
        if tracer.enabled:
            stats = self.step_stats
            result["layers"] = {
                **self.build_layers(),
                "edit.apply_ms": 1000 * median_or_zero(tracer.durations("edit.apply")),
                "edit.warm_ms": 1000 * median_or_zero(tracer.durations("edit.parse", raised=False)),
                "edit.reject_ms": 1000 * median_or_zero(tracer.durations("edit.parse", raised=True)),
                "edit.reject_share": sum(rejects.values()) / steps,
                "memo.dropped": median_or_zero([s[0] for s in stats]),
                "memo.shifted": median_or_zero([s[1] for s in stats]),
                "memo.retained": median_or_zero([s[2] for s in stats]),
                "memo.reuse_ratio": median_or_zero([s[2] / s[3] for s in stats if s[3]]),
                "memo.entries": median_or_zero([s[3] for s in stats]),
                "memo.kb": median_or_zero(self.memo_kb),
            }
        return result


def since_due(due: float, submitted: float, latency_s: float) -> float:
    """A request's latency counted from when it was due, not when it was
    sent: a generator that fell behind adds its lateness."""
    return (submitted - due) + latency_s


def open_loop(start: float, offsets: list[float], send, finish) -> None:
    """Send request ``n`` at ``start + offsets[n]`` whatever earlier requests
    did, as independent users would (an open loop).

    ``send(n)`` submits request ``n`` and returns its future.
    ``finish(due, submitted, n, future)`` consumes one result, in order:
    while nothing is in flight and the next request is due at least
    ``CHECK_SLACK_S`` ahead, and for the rest once every request is sent.
    """
    pending = deque()
    for number, offset in enumerate(offsets):
        due = start + offset
        while True:
            wait = due - perf_counter()
            if wait <= 0:
                break
            if not pending:
                time.sleep(wait)
            elif not pending[-1][3].done():
                try:
                    pending[-1][3].result(timeout=wait)
                except TimeoutError:
                    pass
            elif wait > CHECK_SLACK_S:
                finish(*pending.popleft())
            else:
                time.sleep(wait)
        submitted = perf_counter()
        pending.append((due, submitted, number, send(number)))
    while pending:
        finish(*pending.popleft())


class Serve(Workload):
    """An open-loop stream into a one-worker VM parse service, then
    fixed backlogs drained to measure its capacity."""

    def setup(self) -> None:
        from repro.serve import GrammarSpec, ParseService

        patch_build(self.tracer)
        self.service = ParseService(
            GrammarSpec(root="python.Python", backend="vm"),
            workers=1,
            queue_size=SERVE_QUEUE,
            timeout=SERVE_TIMEOUT_S,
        )
        self.submit = self.tracer.wrap("serve.submit", self.service.submit)
        self.settle(self.data["warmup"], self.service.submit(self.data["requests"][self.data["warmup"]][1]))

    def settle(self, request: int, future) -> tuple:
        """Wait for one result and check it: ``(result, ok)``."""
        from repro.serve import OK, PARSE_ERROR

        result = future.result()
        _, _, expected = self.data["requests"][request]
        if result.outcome == OK:
            ok = agrees(expected, True, result.value)
        elif result.outcome == PARSE_ERROR:
            ok = agrees(expected, False, result.error.offset)
        else:
            ok = False
        self.checks.record(ok, f"request {request}: {result.outcome} {result.detail or ''}, reference {expected}")
        return result, ok

    def measure(self, seconds: float) -> dict:
        tracer = self.tracer
        requests = self.data["requests"]
        worker = self.service.worker_pids()[0]
        parse_ok, parse_rejected, overhead, late, result_kb, backlog = [], [], [], [], [], []
        samples, drain_rates = [], []
        reset_peak_rss()
        reset_peak_rss(worker)
        tracer.start_timed_phase()

        stream = self.data["stream"]

        def finish(due, submitted, number, future) -> None:
            result, ok = self.settle(stream[number], future)
            samples.append(since_due(due, submitted, result.latency_s) if ok else math.inf)
            late.append(submitted - due)
            if result.parse_s is not None:
                overhead.append(result.latency_s - result.parse_s)
                (parse_ok if result.ok else parse_rejected).append(result.parse_s)
            if tracer.enabled and result.ok:
                result_kb.append(len(pickle.dumps(result.value)) / 1000)

        def send(number: int):
            with tracer.op("request", number):
                future = self.submit(requests[stream[number]][1])
            if tracer.enabled:
                stats = self.service.stats()
                backlog.append(stats.queue_depth + stats.inflight)
            return future

        began = perf_counter()
        open_loop(began + 0.01, self.data["due"], send, finish)

        deadline = began + seconds
        for drain in self.data["backlogs"]:
            if len(drain_rates) >= MIN_GROUPS and perf_counter() >= deadline:
                break
            first = perf_counter()
            futures = [(perf_counter(), request, self.submit(requests[request][1])) for request in drain]
            # Wait for the whole backlog before checking any of it, so that no
            # check competes with the service for the interpreter lock.
            done = max(submitted + future.result().latency_s for submitted, _, future in futures)
            drain_rates.append(sum(requests[r][0] for r in drain) / 1000 / (done - first))
            for _, request, future in futures:
                self.settle(request, future)
        tracer.end_timed_phase()
        peak = peak_rss_mb() + peak_rss_mb(worker)
        stats = self.service.stats()
        result = {
            "latency": latency_summary(samples),
            "kb_per_s": statistics.median(drain_rates),
            "peak_rss_mb": peak,
            "detail": {
                "requests": len(samples),
                "drain_kb_per_s": [round(rate, 1) for rate in drain_rates],
                "late_max_ms": 1000 * max(late),
            },
        }
        if tracer.enabled:
            import repro

            language = repro.compile_grammar("python.Python")
            self.language = language
            # The worker lowers the VM program where no span reaches; lower
            # the same program here to time that build stage.
            self.vm_ops = len(language.vm_program().code)
            result["layers"] = {
                **self.build_layers(),
                "serve.submit_ms": 1000 * median_or_zero(tracer.durations("serve.submit")),
                "serve.overhead_ms": 1000 * median_or_zero(overhead),
                "serve.parse_ms": 1000 * median_or_zero(parse_ok),
                "serve.reject_ms": 1000 * median_or_zero(parse_rejected),
                "serve.result_kb": median_or_zero(result_kb),
                "serve.late_ms": 1000 * latency_summary(late)["tail"],
                "serve.backlog_max": max(backlog),
                "serve.retries": stats.retries,
                "serve.recycles": stats.recycles,
                "serve.fallbacks": stats.fallback_parses,
            }
        return result

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.shutdown(wait=True)


WORKLOADS = {"batch": Batch, "edit": Edit, "serve": Serve}


def main(argv: list[str]) -> int:
    role, path, trace = argv
    with open(path, "rb") as stream:
        data = pickle.load(stream)
    tracer = Tracer(trace == "1")
    workload = WORKLOADS[data["workload"]](data, tracer)
    report = {}
    try:
        with tracer.op("setup", "setup"):
            workload.setup()
        report["ready"] = time.monotonic()
        if role == "measure":
            gc.collect()
            report.update(workload.measure(data["seconds"]))
            if tracer.enabled:
                traces = os.path.join(os.path.dirname(os.path.dirname(path)), "traces")
                os.makedirs(traces, exist_ok=True)
                tracer.write(os.path.join(traces, f"{data['workload']}-seed{data['seed']}.jsonl"))
    finally:
        workload.close()
    report["attempted"] = workload.checks.attempted
    report["failures"] = workload.checks.failures
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
