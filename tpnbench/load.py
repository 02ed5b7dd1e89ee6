"""The workloads: one timed segment per process, and the figures of a run.

``run.py`` splits a run into :data:`SEGMENTS` segments and runs each in
a fresh process (``segment.py``), so a run's figures average over
several program processes: a process's memory layout moves its speed
by a few percent, independently of its inputs.  Each segment sets up
untimed, runs its share of the closed loop from one thread (serve-mix:
over one keep-alive connection to a server launched for the segment),
and prints one JSON line: its timed operations, drift-probe samples,
peak RSS, checks and, in a traced run, per-layer partial sums.
:func:`aggregate` turns the segments into the metrics of the run.

For compile-cold and sweep-warm the segment process is the program
process (it calls ``repro`` in-process); for serve-mix it is only the
HTTP client.  Either way the drift probe runs in it, between operations,
and the run's durations are scaled by its median probe time.

A traced run (``--trace 1``) alternates untraced and traced operations
(serve-mix: untraced and traced servers, segment by segment), so the
tracing overhead is measured on the same inputs in the same run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import plan
from common import (
    HERE,
    PROBE_EXPONENT,
    PROBE_REF_MS,
    Checker,
    DriftProbe,
    child_pids,
    cmdline,
    geomean,
    load_answers,
    peak_rss_mb,
    request_body,
    tail,
)
from segment import ENTRIES
from tracing import Patches, Recorder, patch_stable_json, read_span_lines, spanned, write_span_lines

#: Segments (fresh program processes) per run.
SEGMENTS = 5

#: compiler stage -> per-layer metric (span) name, in stage order.
STAGE_METRICS = {
    "parse": "loops.parse",
    "translate": "loops.translate",
    "rate_analysis": "core.rate_analysis",
    "unroll": "loops.unroll",
    "build_pn": "core.build_pn",
    "simulate": "petrinet.simulate",
    "extract_kernel": "core.extract_kernel",
    "rate": "core.rate",
    "verify": "core.verify",
    "scp_build": "core.scp_build",
    "scp_simulate": "petrinet.scp_simulate",
    "scp_extract": "core.scp_extract",
    "scp_verify": "core.scp_verify",
    "summarize": "compiler.summarize",
}

#: The phase names a pool worker's span shard uses for the same stages
#: (``summarize`` reports no phase).
PHASE_METRICS = {
    "phase:parse": "loops.parse",
    "phase:translate": "loops.translate",
    "phase:rate-analysis": "core.rate_analysis",
    "phase:unroll": "loops.unroll",
    "phase:build-sdsp-pn": "core.build_pn",
    "phase:detect-frustum": "petrinet.simulate",
    "phase:derive-schedule": "core.extract_kernel",
    "phase:rate": "core.rate",
    "phase:verify": "core.verify",
    "phase:scp-build": "core.scp_build",
    "phase:scp-detect-frustum": "petrinet.scp_simulate",
    "phase:scp-derive-schedule": "core.scp_extract",
    "phase:scp-verify": "core.scp_verify",
}

ANALYSIS_METRICS = ("core.howard", "core.bounds")
COUNT_METRICS = ("core.transitions", "core.critical_cycles", "petrinet.frustum_firings")


def payload_bytes(payload: Dict[str, Any]) -> bytes:
    """The bytes ``repro compile`` prints for a payload."""
    from repro.obs import stable_json

    return (stable_json(payload, indent=2) + "\n").encode("utf-8")


def payload_counts(payload: Dict[str, Any]) -> Dict[str, int]:
    """Work done by one compile, as exact counts from its payload."""
    return {
        "core.transitions": payload["n_transitions"],
        "core.critical_cycles": payload["bounds"]["critical_cycle_count"],
        "petrinet.frustum_firings": sum(payload["frustum"]["firing_counts"].values()),
    }


def add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


def patch_analysis(patches: Patches) -> None:
    """Time Howard and the bounds where the compiler stages bind them."""
    import repro.compiler.stages as stages

    patches.wrap(stages, "optimal_rate", "core.howard")
    patches.wrap(stages, "theoretical_bounds", "core.bounds")


def patch_stage_computes(patches: Patches) -> None:
    """Time every stage's compute (and recompute-hydration)."""
    import repro.compiler.stages as stages

    for name, stage in list(stages.STAGES.items()):
        compute = spanned(patches.recorder, STAGE_METRICS.get(name, f"compiler.{name}"), stage.compute)
        patches.set_item(stages.STAGES, name, dataclasses.replace(stage, compute=compute))


class Timings:
    """Timed operations: ``ops`` are ``[seconds, key]`` samples for
    latency and tail, ``busy`` are ``[seconds, count]`` spans of work
    for throughput."""

    def __init__(self) -> None:
        self.ops: List[Tuple[float, str]] = []
        self.busy: List[Tuple[float, int]] = []

    def add(self, seconds: float, key: str, count: int = 1) -> None:
        self.ops.append((seconds, key))
        self.busy.append((seconds, count))

    def to_json(self) -> Dict[str, Any]:
        return {"ops": self.ops, "busy": self.busy}


# ----------------------------------------------------------------------
# Launches
# ----------------------------------------------------------------------
def ready_launch(argv: List[str], work: pathlib.Path) -> Optional[float]:
    """Seconds from spawning ``python argv`` to its ``ready`` line, or
    None when it failed; the process is always waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=work
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    return elapsed if line.strip() == b"ready" and code == 0 else None


def import_times(modules: str, work: pathlib.Path) -> Dict[str, float]:
    """Milliseconds of ``-X importtime`` self time per top-level package."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {modules}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
        cwd=work, timeout=120, check=True,
    )
    totals: Dict[str, float] = {}
    for line in proc.stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue
        package = fields[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + self_us / 1e3
    return totals


def setup_layers(modules: str, work: pathlib.Path, repeats: int = 3) -> Dict[str, float]:
    """Bare interpreter start-up and ``-X importtime`` of the entry modules."""
    bare = [ready_launch(["-c", "print('ready', flush=True)"], work) for _ in range(repeats)]
    imports = [import_times(modules, work) for _ in range(repeats)]
    layers = {"setup.interpreter_ms": statistics.median(b for b in bare if b is not None) * 1e3}
    for package in ("repro", "numpy", "scipy", "networkx"):
        layers[f"import.{package}_ms"] = statistics.median(t.get(package, 0.0) for t in imports)
    return layers


# ----------------------------------------------------------------------
# compile-cold
# ----------------------------------------------------------------------
class CompileCold:
    """``repro.pipeline.compile_loop`` with no cache over a seeded draw;
    every compile is timed from the call to the output bytes."""

    modules = ENTRIES["compile-cold"]
    item_geomean = True

    def __init__(self, segment: "Segment") -> None:
        self.seg = segment
        self.draw = plan.compile_cold_draw(segment.answers, segment.seed)
        self.timings = {False: Timings(), True: Timings()}
        self.stage_seconds = 0.0
        self.counts: Dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)

    def compile(self, item) -> float:
        body = request_body(self.seg.answers, item)
        start = time.perf_counter()
        compiled = self.compile_loop(
            body["source"],
            scalars=body.get("scalars"),
            pipeline_stages=body.get("pipeline_stages"),
            include_io=body["include_io"],
            engine=body["engine"],
            unroll=body["unroll"],
        )
        output = payload_bytes(compiled.summary().payload())
        elapsed = time.perf_counter() - start
        self.seg.checker.check_body(item["id"], output)
        return elapsed

    def compile_traced(self, item) -> float:
        """The same compile through ``PassManager.artifact(stage)`` in
        stage order, a span per stage (Howard and the bounds nested in
        ``core.rate``)."""
        compiler = self.compiler
        recorder = self.seg.recorder
        body = request_body(self.seg.answers, item)
        request = compiler.make_request(
            body["source"],
            scalars=body.get("scalars"),
            pipeline_stages=body.get("pipeline_stages"),
            include_io=body["include_io"],
            engine=body["engine"],
            unroll=body["unroll"],
        )
        order = list(compiler.CORE_STAGE_ORDER)
        if request.verify:
            order.append("verify")
        if request.pipeline_stages is not None:
            order.extend(compiler.SCP_STAGE_ORDER)
            if request.verify:
                order.append("scp_verify")
        order.append("summarize")
        first = len(recorder.spans)
        with recorder.span("compile", item=item["id"]) as span:
            manager = compiler.PassManager(request)
            for stage in order:
                with recorder.span(STAGE_METRICS.get(stage, f"compiler.{stage}")):
                    manager.artifact(stage)
            payload = manager.data("summarize")["payload"]
            output = payload_bytes(payload)
        elapsed = recorder.spans[-1]["duration"]
        self.stage_seconds += sum(
            s["duration"] for s in recorder.spans[first:-1] if s["parent_id"] == span.span_id
        )
        self.seg.checker.check_body(item["id"], output)
        add_counts(self.counts, payload_counts(payload))
        return elapsed

    def run(self, seconds: float) -> None:
        from repro.pipeline import compile_loop

        seg = self.seg
        self.compile_loop = compile_loop
        patches = None
        if seg.traced:
            from repro import compiler

            self.compiler = compiler
            patches = Patches(seg.recorder)
        queue = plan.compile_cold_passes(self.draw, seg.seed)
        for _ in range(seg.start):
            next(queue)
        for item in sorted(self.draw, key=lambda item: item["cost_ms"])[:3]:
            self.compile(item)  # lazy imports and first-call caches, untimed
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            _, item = next(queue)
            self.timings[False].add(self.compile(item), item["id"])
            if seg.traced:
                patch_stable_json(patches)
                patch_analysis(patches)
                try:
                    self.timings[True].add(self.compile_traced(item), item["id"])
                finally:
                    patches.restore()
            seg.probe.between_operations()
        self.operations = len(self.timings[False].ops)
        self.rss = peak_rss_mb(os.getpid())

    def partial(self) -> Dict[str, Any]:
        return {
            "totals": self.seg.recorder.totals,
            "stage_seconds": self.stage_seconds,
            "counts": self.counts,
            "draw": len(self.draw),
        }

    @staticmethod
    def combine(segments: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        """Milliseconds (and counts) per pass over the draw."""
        totals: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        stage_seconds = 0.0
        for seg in segments:
            add_counts(totals, seg["partial"]["totals"])
            add_counts(counts, seg["partial"]["counts"])
            stage_seconds += seg["partial"]["stage_seconds"]
        untraced = [s for seg in segments for s, _ in seg["timings"]["untraced"]["ops"]]
        traced = sum(len(seg["timings"]["traced"]["ops"]) for seg in segments)
        per_pass = segments[0]["partial"]["draw"] / traced
        names = list(STAGE_METRICS.values()) + list(ANALYSIS_METRICS) + ["obs.stable_json"]
        layers = {f"{name}_ms": totals.get(name, 0.0) * 1e3 * per_pass for name in names}
        layers["compiler.unattributed_ms"] = (
            statistics.mean(untraced) * traced - stage_seconds
        ) * 1e3 * per_pass
        for name, count in counts.items():
            layers[name] = count * per_pass
        return layers


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------
class _Progress:
    """``compile_many``'s progress hook: per-item dispatch-to-finish
    times, the drift probe between items (its time is kept apart, to
    be taken off the pass), and (traced) an item span around each."""

    def __init__(self, recorder: Optional[Recorder], probe: DriftProbe) -> None:
        self.recorder = recorder
        self.probe = probe
        self.probe_seconds = 0.0
        self.latencies: List[Tuple[float, str]] = []
        self._start = 0.0
        self._span = None

    def dispatch(self, name: str) -> None:
        if self.recorder is not None:
            self._span = self.recorder.span("batch.sweep.item", item=name)
            self._span.__enter__()
        self._start = time.perf_counter()

    def finish(self, name: str, **outcome: Any) -> None:
        end = time.perf_counter()
        self.latencies.append((end - self._start, name))
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
        self.probe.between_operations()
        self.probe_seconds += time.perf_counter() - end

    def close(self) -> None:
        pass


class SweepWarm:
    """``compile_many(workers=1)`` over one manifest per pass, each pass
    against the same pre-filled cache contents."""

    modules = ENTRIES["sweep-warm"]
    item_geomean = False

    def __init__(self, segment: "Segment") -> None:
        self.seg = segment
        self.plan = plan.sweep_warm_plan(segment.answers, segment.seed)
        self.cache = segment.work / "sweep-cache"
        self.manifest = [request_body(segment.answers, item) for item in self.plan["manifest"]]
        self.timings = {False: Timings(), True: Timings()}
        self.passes: List[Dict[str, float]] = []

    def check_items(self, result) -> None:
        for item in result.items:
            if item.ok:
                self.seg.checker.check_body(item.name, payload_bytes(item.payload))
            else:
                self.seg.checker.check(False, f"{item.name}: {item.error}")

    def restore(self) -> None:
        """Bring the cache back to its filled contents: delete every
        entry a pass added (the filled entries are only ever read)."""
        for path in self.cache.rglob("*"):
            if path.is_file() and path not in self.filled:
                path.unlink()

    def sweep(self, traced: bool):
        """One pass from the filled cache: (counters, result, item
        latencies, wall seconds, per-span totals)."""
        self.restore()
        recorder = self.seg.recorder if traced else None
        progress = _Progress(recorder, self.seg.probe)
        patches = None
        if traced:
            import repro.batch.cache as cache_module
            import repro.compiler as compiler_package
            import repro.compiler.store as store_module

            patches = Patches(recorder)
            patches.wrap(cache_module.CompileCache, "load", "batch.cache.load")
            patches.wrap(cache_module.CompileCache, "store", "batch.cache.store")
            patches.wrap(store_module.ArtifactStore, "load", "compiler.store.load")
            patches.wrap(store_module.ArtifactStore, "store", "compiler.store.store")
            patches.wrap(compiler_package, "compile_staged", "compiler.staged")
            patch_stable_json(patches)
            patch_analysis(patches)
            patch_stage_computes(patches)
            recorder.take_totals()
        try:
            start = time.perf_counter()
            if recorder is not None:
                with recorder.span("batch.sweep.pass"):
                    result = self.compile_many(
                        self.manifest, workers=1, cache_dir=str(self.cache), progress=progress
                    )
            else:
                result = self.compile_many(
                    self.manifest, workers=1, cache_dir=str(self.cache), progress=progress
                )
            wall = time.perf_counter() - start - progress.probe_seconds
        finally:
            if patches is not None:
                patches.restore()
        totals = recorder.take_totals() if recorder is not None else {}
        counters = [
            sorted(result.cache_stats().items()),
            json.dumps(result.stage_cache_stats(), sort_keys=True),
        ]
        return counters, result, progress.latencies, wall, totals

    def run(self, seconds: float) -> None:
        from repro.batch.sweep import compile_many

        seg = self.seg
        self.compile_many = compile_many
        if not self.cache.exists():
            filled = [request_body(seg.answers, item) for item in self.plan["filled"]]
            self.check_items(compile_many(filled, workers=1, cache_dir=str(self.cache)))
        self.filled = {path for path in self.cache.rglob("*") if path.is_file()}
        self.counters, result, _, _, _ = self.sweep(traced=False)  # untimed warm-up
        self.check_items(result)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            traced = seg.traced and len(self.timings[False].busy) > len(self.timings[True].busy)
            counters, result, latencies, wall, totals = self.sweep(traced)
            self.check_items(result)
            seg.checker.check(counters == self.counters, f"stage counters changed: {counters}")
            self.timings[traced].ops.extend(latencies)
            self.timings[traced].busy.append((wall, len(latencies)))
            if traced:
                self.passes.append(self.pass_layers(result, wall, totals))
        self.restore()
        self.operations = 0
        self.rss = peak_rss_mb(os.getpid())

    @staticmethod
    def pass_layers(result, wall: float, totals: Dict[str, float]) -> Dict[str, float]:
        def ms(name):
            return totals.get(name, 0.0) * 1e3

        stages = result.stage_cache_stats()
        layers = {f"{name}_ms": ms(name) for name in list(STAGE_METRICS.values()) + list(ANALYSIS_METRICS)}
        layers.update(
            {
                "compiler.unattributed_ms": ms("compiler.staged")
                - sum(ms(name) for name in STAGE_METRICS.values()),
                "batch.cache.load_ms": ms("batch.cache.load"),
                "batch.cache.store_ms": ms("batch.cache.store"),
                "batch.cache.hits": result.cache_stats()["hit"],
                "compiler.store.load_ms": ms("compiler.store.load"),
                "compiler.store.store_ms": ms("compiler.store.store"),
                "compiler.store.hits": stages["hit"],
                "compiler.hydrations": stages["hydrate"],
                "compiler.staged_ms": ms("compiler.staged"),
                "obs.stable_json_ms": ms("obs.stable_json"),
                "batch.sweep.overhead_ms": wall * 1e3
                - ms("batch.cache.load") - ms("batch.cache.store") - ms("compiler.staged"),
            }
        )
        counts: Dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
        for item in result.items:
            if not item.cache_hit:
                add_counts(counts, payload_counts(item.payload))
        layers.update(counts)
        return layers

    def partial(self) -> Dict[str, Any]:
        return {"passes": self.passes}

    @staticmethod
    def combine(segments: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        """Medians over traced passes of each pass's figure."""
        passes = [layer for seg in segments for layer in seg["partial"]["passes"]]
        return {name: statistics.median(layer[name] for layer in passes) for name in passes[0]}


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
class Connection:
    """A minimal keep-alive HTTP/1.1 client over one socket."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, Dict[str, str], bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)
        status = int(self.reader.readline().split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = self.reader.read(int(headers.get("content-length", "0")))
        return status, headers, data

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """One ``repro serve --workers 1`` process with a cache of its own,
    its stderr (banner and access log) going to a file: a pipe nobody
    drains would fill up and stall the server."""

    def __init__(self, directory: pathlib.Path, traced: bool) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.stderr_path = directory / "stderr.log"
        self.spans_path = directory / "server-spans.jsonl"
        self.span_dir = directory / "spans"
        args = ["serve", "--port", "0", "--workers", "1", "--drain-grace", "30",
                "--cache-dir", str(directory / "cache")]
        env = dict(os.environ, REPRO_LOG="info")
        if traced:
            self.span_dir.mkdir(exist_ok=True)
            argv = [str(HERE / "serve_entry.py")] + args + ["--span-dir", str(self.span_dir)]
            env["TPNBENCH_SPANS_OUT"] = str(self.spans_path)
        else:
            argv = ["-m", "repro"] + args
        self.launched = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr, open(directory / "stdout.log", "wb") as stdout:
            self.proc = subprocess.Popen(
                [sys.executable] + argv, stdin=subprocess.DEVNULL, stdout=stdout,
                stderr=stderr, env=env, cwd=directory,
            )
        self.port = self._wait_banner()
        self.announced = time.perf_counter()

    def _wait_banner(self) -> int:
        deadline = time.perf_counter() + 120
        while time.perf_counter() < deadline:
            text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
            marker = text.find("listening on http://")
            if marker >= 0 and "\n" in text[marker:]:
                return int(text[marker:].split("\n", 1)[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.kill()
        raise RuntimeError(f"server never announced its port: {self.stderr_path}")

    def peak_rss_mb(self) -> float:
        """Server plus its pool worker (the spawned child running
        ``spawn_main``; the resource tracker is not counted)."""
        total = peak_rss_mb(self.proc.pid)
        for pid in child_pids(self.proc.pid):
            if "spawn_main" in cmdline(pid):
                total += peak_rss_mb(pid)
        return total

    def stop(self) -> Optional[int]:
        """SIGTERM (a graceful drain) and the exit status, or None when
        the server had to be killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def access_log(self) -> Dict[str, Dict[str, Any]]:
        """Access-log entries by request id."""
        entries = {}
        prefix = "repro.service.access: "
        for line in self.stderr_path.read_text(encoding="utf-8", errors="replace").splitlines():
            marker = line.find(prefix)
            if marker >= 0:
                entry = json.loads(line[marker + len(prefix):])
                entries[entry.get("request_id")] = entry
        return entries


def parse_openmetrics(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                continue
    return values


class ServeMix:
    """``repro serve --workers 1`` with a pre-filled cache, driven over
    one keep-alive connection: mostly repeated (cached) requests, and
    one never-repeated first-time request in every block of 20.

    Each segment launches its own server; launch to the first answer
    from the pool (the first pre-fill request) is the set-up time.
    """

    modules = "repro.cli, repro.service.http"
    item_geomean = False

    def __init__(self, segment: "Segment") -> None:
        self.seg = segment
        self.plan = plan.serve_mix_plan(segment.answers, segment.seed)
        self.traced = segment.traced and segment.index % 2 == 1
        self.timings = {False: Timings(), True: Timings()}
        self.requests: List[Tuple[str, float, Optional[str]]] = []
        self.counts: Dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
        self.operations = 0
        self.server: Optional[Server] = None

    def post(self, connection: Connection, item, expected_cache: str):
        """One compile request, checked: status 200, the planned
        ``X-Cache`` class and the recorded body digest."""
        checker = self.seg.checker
        body = json.dumps(request_body(self.seg.answers, item)).encode()
        start = time.perf_counter()
        status, headers, data = connection.request("POST", "/v1/compile", body)
        elapsed = time.perf_counter() - start
        if status != 200:
            checker.check(False, f"{item['id']}: HTTP {status}")
        elif headers.get("x-cache") != expected_cache:
            checker.check(False, f"{item['id']}: X-Cache {headers.get('x-cache')}, planned {expected_cache}")
        else:
            checker.check_body(item["id"], data)
        return status, elapsed, headers, data

    def run(self, seconds: float) -> None:
        seg = self.seg
        server = self.server = Server(seg.work / f"serve-{seg.index}", traced=self.traced)
        connection = Connection(server.port)
        filled = self.plan["filled"]
        self.post(connection, filled[0], "miss")
        answered = time.perf_counter()
        self.setup_s = answered - server.launched
        self.boot_s = server.announced - server.launched
        self.prewarm_s = answered - server.announced
        for item in filled[1:]:
            self.post(connection, item, "miss")
        for item in filled:
            self.post(connection, item, "hit")
        self.timed_from = time.time()
        recorder = seg.recorder if self.traced else None
        timings = self.timings[self.traced]
        requests = plan.serve_mix_requests(self.plan, seg.seed)
        for _ in range(seg.start):
            next(requests)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            try:
                kind, item = next(requests)
            except StopIteration:
                print("serve-mix: first-time queue exhausted; the run measured less than asked",
                      file=sys.stderr)
                break
            if recorder is not None:
                with recorder.span("service.request", item=item["id"], cache=kind):
                    status, elapsed, headers, data = self.post(connection, item, kind)
                if kind == "miss" and status == 200:
                    add_counts(self.counts, payload_counts(json.loads(data)))
            else:
                status, elapsed, headers, data = self.post(connection, item, kind)
            timings.add(elapsed, kind, int(status == 200))
            self.requests.append((kind, elapsed, headers.get("x-request-id")))
            seg.probe.between_operations()
        self.operations = len(self.requests)
        status, _, text = connection.request("GET", "/metrics")
        seg.checker.check(status == 200, f"/metrics answered {status}")
        self.metrics = parse_openmetrics(text.decode("utf-8", "replace"))
        self.rss = server.peak_rss_mb()
        connection.close()
        code = server.stop()
        seg.checker.check(code == 0, f"server exit status {code} after SIGTERM")

    def partial(self) -> Dict[str, Any]:
        """Service figures of an untraced server (client latency by
        ``X-Cache`` class, the access log's ``seconds``); span figures
        of a traced one (the server's own spans and its pool worker's
        span shard), summed over the timed part."""
        out: Dict[str, Any] = {
            "traced": self.traced,
            "boot_s": self.boot_s,
            "prewarm_s": self.prewarm_s,
            "metrics": self.metrics,
            "hits": sum(1 for kind, _, _ in self.requests if kind == "hit"),
            "misses": sum(1 for kind, _, _ in self.requests if kind == "miss"),
        }
        if not self.traced:
            access = self.server.access_log()
            latency: Dict[str, List[float]] = {"hit": [], "miss": []}
            server, transport = [], []
            for kind, elapsed, request_id in self.requests:
                latency[kind].append(elapsed)
                entry = access.get(request_id)
                if entry is not None:
                    server.append(entry["seconds"])
                    transport.append(elapsed - entry["seconds"])
            out.update(latency=latency, server=server, transport=transport)
            return out
        lanes = {"serve-wrapper": read_span_lines(self.server.spans_path)}
        for path in sorted(self.server.span_dir.glob("spans-*.jsonl")):
            spans = read_span_lines(path)
            if spans:  # the service's own shard ("serve") and its pool worker's
                lanes[spans[0].get("worker", path.stem)] = spans
        self.lanes = lanes
        span_ms: Dict[str, float] = {}
        for lane in lanes.values():
            for span in lane:
                if span["start"] >= self.timed_from:
                    span_ms[span["name"]] = span_ms.get(span["name"], 0.0) + span["duration"] * 1e3
        out.update(span_ms=span_ms, counts=self.counts)
        return out

    @staticmethod
    def combine(segments: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        parts = [seg["partial"] for seg in segments]
        plain = [p for p in parts if not p["traced"]]
        traced = [p for p in parts if p["traced"]]

        metrics: Dict[str, float] = {}
        for p in parts:
            add_counts(metrics, p["metrics"])
        layers = {
            "service.hit_ms": statistics.median(v for p in plain for v in p["latency"]["hit"]) * 1e3,
            "service.miss_ms": statistics.median(v for p in plain for v in p["latency"]["miss"]) * 1e3,
            "service.server_ms": statistics.median(v for p in plain for v in p["server"]) * 1e3,
            "service.transport_ms": statistics.median(v for p in plain for v in p["transport"]) * 1e3,
            "service.boot_s": statistics.median(p["boot_s"] for p in parts),
            "service.prewarm_s": statistics.median(p["prewarm_s"] for p in parts),
            "service.rejected": metrics.get("service_rejected_total", 0.0),
            "service.errors": sum(
                value for name, value in metrics.items()
                if name.startswith("service_responses_") and not name.startswith("service_responses_200")
            ),
            "batch.cache.hits": metrics.get("batch_cache_hit_total", 0.0),
            "compiler.store.hits": metrics.get("stage_cache_hit_total", 0.0),
            "compiler.hydrations": metrics.get("stage_cache_hydrate_total", 0.0),
        }
        span_ms: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        for p in traced:
            add_counts(span_ms, p["span_ms"])
            add_counts(counts, p["counts"])
        hits = sum(p["hits"] for p in traced)
        misses = sum(p["misses"] for p in traced)
        for phase, metric in PHASE_METRICS.items():
            layers[f"{metric}_ms"] = span_ms.get(phase, 0.0) / misses
        layers["compiler.staged_ms"] = span_ms.get("compile", 0.0) / misses
        layers["compiler.unattributed_ms"] = (
            span_ms.get("compile", 0.0) - sum(span_ms.get(phase, 0.0) for phase in PHASE_METRICS)
        ) / misses
        layers["batch.cache.load_ms"] = span_ms.get("batch.cache.load", 0.0) / hits
        layers["batch.cache.store_ms"] = span_ms.get("cache.store", 0.0) / misses
        layers["obs.stable_json_ms"] = span_ms.get("obs.stable_json", 0.0) / hits
        for name, count in counts.items():
            layers[name] = count / misses
        return layers


WORKLOADS = {"compile-cold": CompileCold, "sweep-warm": SweepWarm, "serve-mix": ServeMix}


# ----------------------------------------------------------------------
# One segment
# ----------------------------------------------------------------------
class Segment:
    """What one segment process knows: its place in the run, the
    recorded answers, and its checker, probe and (traced) recorder."""

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.index = args.segment
        self.start = args.start
        self.traced = bool(args.trace)
        self.work = pathlib.Path(args.work)
        self.answers = load_answers()
        self.checker = Checker({item["id"]: item["digest"] for item in self.answers["items"]})
        self.probe = DriftProbe()
        self.recorder = Recorder(worker=f"bench-{self.index}", trace_id=args.trace_id) if self.traced else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, required=True)
    parser.add_argument("--start", type=int, default=0, help="operations done by earlier segments")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-id", default=None)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    segment = Segment(args)
    workload = WORKLOADS[args.workload](segment)
    try:
        workload.run(args.seconds)
    finally:
        server = getattr(workload, "server", None)
        if server is not None:
            server.kill()
    out: Dict[str, Any] = {
        "attempted": segment.checker.attempted,
        "failed": segment.checker.failed,
        "problems": segment.checker.problems,
        "operations": workload.operations,
        "setup_s": getattr(workload, "setup_s", None),
        "probe_ms": segment.probe.median_ms,
        "rss_mb": workload.rss,
        "timings": {"untraced": workload.timings[False].to_json(), "traced": workload.timings[True].to_json()},
    }
    if segment.traced:
        out["partial"] = workload.partial()
        lanes = {segment.recorder.worker: segment.recorder.spans}
        lanes.update(getattr(workload, "lanes", {}))
        out["lanes"] = {}
        for name, spans in lanes.items():
            path = segment.work / f"lane-{args.segment}-{len(out['lanes'])}.jsonl"
            write_span_lines(path, spans)
            out["lanes"][f"{name}@{args.segment}"] = str(path)
        if args.segment == SEGMENTS - 1:
            out["setup_layers"] = setup_layers(workload.modules, segment.work)
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# The run's figures
# ----------------------------------------------------------------------
def figures(segments: Sequence[Dict[str, Any]], key: str, item_geomean: bool, scale: float) -> Dict[str, Any]:
    """End-to-end figures over every segment's ``key`` timings, each
    duration multiplied by ``scale``.  ``latency_ms`` is the median
    operation, or with ``item_geomean`` the geometric mean over items of
    each item's median; ``tail_ms`` is the highest percentile with at
    least ten samples beyond it."""
    samples: List[Tuple[float, str]] = []
    busy = 0.0
    count = 0
    for seg in segments:
        timings = seg["timings"][key]
        samples.extend((seconds * scale, item) for seconds, item in timings["ops"])
        busy += sum(seconds for seconds, _ in timings["busy"]) * scale
        count += sum(n for _, n in timings["busy"])
    values = [value for value, _ in samples]
    if item_geomean:
        per_item: Dict[str, List[float]] = {}
        for value, item in samples:
            per_item.setdefault(item, []).append(value)
        latency = geomean(statistics.median(v) for v in per_item.values())
    else:
        latency = statistics.median(values)
    value, name = tail(values)
    return {
        "items_per_s": count / busy,
        "latency_ms": latency * 1e3,
        "tail_ms": value * 1e3,
        "tail_percentile": name,
        "samples": len(values),
    }


def aggregate(workload: str, segments: Sequence[Dict[str, Any]], traced: bool) -> Dict[str, Any]:
    """Every metric of a run from its segments' outputs.  Durations,
    set-up time included, are normalised by the run's probe time (the
    median of the segments' medians): across runs that tracked host
    speed better than each segment's own, noisier, median."""
    cls = WORKLOADS[workload]
    untraced = traced_segments = list(segments)
    if workload == "serve-mix" and traced:
        untraced = [seg for seg in segments if not seg["partial"]["traced"]]
        traced_segments = [seg for seg in segments if seg["partial"]["traced"]]
    probe_ms = statistics.median(seg["probe_ms"] for seg in segments)
    scale = (PROBE_REF_MS / probe_ms) ** PROBE_EXPONENT
    norm = figures(untraced, "untraced", cls.item_geomean, scale)
    raw = figures(untraced, "untraced", cls.item_geomean, 1.0)
    metrics = {name: norm[name] for name in ("items_per_s", "latency_ms", "tail_ms")}
    setup_s = statistics.median(seg["setup_s"] for seg in segments)
    metrics["setup_s"] = setup_s * scale
    metrics["peak_rss_mb"] = statistics.median(seg["rss_mb"] for seg in untraced)
    metrics.update(
        {
            "bench.probe_ms": probe_ms,
            "bench.raw_items_per_s": raw["items_per_s"],
            "bench.raw_latency_ms": raw["latency_ms"],
            "bench.raw_tail_ms": raw["tail_ms"],
            "bench.raw_setup_s": setup_s,
            "bench.tail_percentile": float(raw["tail_percentile"].lstrip("p").replace("max", "100")),
            "bench.samples": float(raw["samples"]),
        }
    )
    if traced:
        with_tracing = figures(traced_segments, "traced", cls.item_geomean, scale)
        for name in ("items_per_s", "latency_ms", "tail_ms"):
            metrics[f"bench.trace_overhead_{name}"] = with_tracing[name] - norm[name]
        metrics.update(cls.combine(segments))
        metrics.update(segments[-1]["setup_layers"])
    return {"metrics": metrics, "tail_percentile": raw["tail_percentile"]}
