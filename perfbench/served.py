"""``served_mix``: a closed loop of HTTP clients against an in-process server.

Each client keeps one job outstanding: it POSTs ``/jobs``, follows
``/jobs/<id>/events`` until the ``completed`` event, then takes the next
request of the pass.  Times are taken by the client, so ``queue_wait_s`` runs
from the POST to the moment the client sees the ``started`` event (the
event stream replays it when the job started before the client asked).
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from checks import JobResult
from repro.api.jobs import Job, McJobSpec
from repro.api.records import record_from_dict
from repro.api.service import SynthesisService
from repro.serve import ServerHandle
from repro.store import RunStore

#: Seconds a client waits on one HTTP call before it counts the job failed.
HTTP_TIMEOUT_S = 120.0


def job_payload(job: Job) -> Dict[str, Any]:
    """The ``POST /jobs`` body of ``job`` (the inverse of ``job_from_payload``)."""
    payload: Dict[str, Any] = {
        "kind": "mc" if isinstance(job, McJobSpec) else "run",
        "instance": job.instance,
        "flow": job.flow,
        "engine": job.engine,
        "seed": job.seed,
    }
    if job.pipeline is not None:
        payload["pipeline"] = list(job.pipeline)
    if isinstance(job, McJobSpec):
        payload.update(
            samples=job.samples,
            family=job.family,
            skew_limit_ps=job.skew_limit_ps,
            gated=job.gated,
            gate_samples=job.gate_samples,
        )
    return payload


@dataclass
class Reply(JobResult):
    """A served job: its result plus the client-side phase times."""

    submit_s: float = 0.0
    queue_wait_s: float = 0.0


def request(port: int, job: Job) -> Reply:
    """Submit one job and follow its events until it completes."""
    start = time.perf_counter()
    reply = Reply(job=job, record=None, latency_s=0.0)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
        try:
            body = json.dumps(job_payload(job))
            conn.request("POST", "/jobs", body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            submitted = json.loads(response.read() or b"{}")
        finally:
            conn.close()
        posted = time.perf_counter()
        reply.submit_s = posted - start
        if response.status != 202:
            reply.error = f"POST /jobs answered {response.status}: {submitted.get('error')}"
            return reply
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", f"/jobs/{submitted['job_id']}/events")
            response = conn.getresponse()
            if response.status != 200:
                reply.error = f"GET events answered {response.status}"
                return reply
            started: Optional[float] = None
            for line in response:
                event = json.loads(line)
                if event["kind"] == "started" and started is None:
                    started = time.perf_counter()
                if event["kind"] == "completed":
                    done = time.perf_counter()
                    reply.record = record_from_dict(event["record"])
                    reply.cached = bool(event["cached"])
                    reply.latency_s = done - start
                    reply.queue_wait_s = (started or done) - start
                    return reply
            reply.error = "event stream ended without a completed event"
        finally:
            conn.close()
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        reply.error = f"{type(exc).__name__}: {exc}"
    return reply


def closed_loop(port: int, stream: Sequence[Job], clients: int) -> Tuple[List[Reply], float]:
    """Run ``stream`` with ``clients`` closed-loop clients; replies in stream order."""
    replies: List[Optional[Reply]] = [None] * len(stream)
    queue = iter(enumerate(stream))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            index, job = item
            replies[index] = request(port, job)

    threads = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return [r if r is not None else Reply(job=j, record=None, latency_s=0.0, error="not sent")
            for r, j in zip(replies, stream)], elapsed


def pool_executions(port: int) -> int:
    """Jobs the scheduler handed to the pool, from ``GET /metrics``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", "/metrics")
        return int(json.loads(conn.getresponse().read())["scheduler"]["pool_executions"])
    finally:
        conn.close()


@dataclass
class ServedStack:
    """A warm ``SynthesisService`` behind a ``ServerHandle``, one store per pass."""

    workdir: Path
    workers: int
    trace: bool = False
    service: Optional[SynthesisService] = None
    handle: Optional[ServerHandle] = None
    _stores: int = field(default=0)

    def start(self) -> "ServedStack":
        self.service = SynthesisService(
            max_workers=self.workers, store=self._fresh_store(), trace=self.trace
        )
        self.handle = ServerHandle(self.service).start()
        return self

    @property
    def port(self) -> int:
        assert self.handle is not None
        return self.handle.port

    def _fresh_store(self) -> RunStore:
        self._stores += 1
        return RunStore(self.workdir / f"store-{self._stores}")

    def next_pass(self) -> None:
        """A new server and an empty store over the same warm pool, so the
        next pass starts with a cold result cache."""
        assert self.service is not None and self.handle is not None
        self.handle.stop()
        self.service.store = self._fresh_store()
        self.handle = ServerHandle(self.service).start()

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
        if self.service is not None:
            self.service.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
