"""HTTP/JSON skin over :class:`~repro.serve.daemon.PartitionService`.

Pure stdlib (``http.server``): a :class:`ThreadingHTTPServer` whose
handler threads call into the service under its lock.  The API is the
smallest surface that covers the service contract:

====== ============================== ===================================
Method Path                           Meaning
====== ============================== ===================================
GET    /healthz                       liveness (200 while the process is
                                      up, even when draining)
GET    /readyz                        readiness (503 when draining)
GET    /jobs                          list all jobs (compact views)
POST   /jobs                          submit; 201 created, 200 deduped,
                                      400/404 bad spec, 429 saturated
                                      (+ ``Retry-After``), 503 draining
GET    /jobs/<id>                     one job's current record
GET    /jobs/<id>/result              full result incl. assignment
GET    /jobs/<id>/profile             folded stacks of a slow attempt
                                      (404 until profile-on-slow fires)
GET    /jobs/<id>/stream              chunked JSONL progress stream
POST   /jobs/<id>/cancel              cancel (409 when already terminal)
GET    /stats                         service counters (tests/ops)
GET    /metrics                       live OpenMetrics text exposition
====== ============================== ===================================

Correlation & access logging
----------------------------
Every request gets a trace id — the client's ``X-Trace-Id`` header when
present, a fresh one otherwise — echoed back as a response header and
logged as one JSON object per request on the ``repro.serve.access``
logger (see :func:`attach_access_log`).  A submission adopts the
request's trace id for life (``Job.trace_id``), which is how one id
joins access log ↔ journal ↔ run trace ↔ run store (DESIGN.md §11).

Streaming uses real HTTP/1.1 chunked transfer encoding, hand-framed
(hex length, CRLF, payload, CRLF): the handler tails the job's
``trace.jsonl`` — the same file the in-worker
:class:`~repro.obs.progress.HeartbeatEmitter` appends to — forwarding
each complete line as one chunk, and finishes with a synthetic
``job_end`` line once the job reaches a terminal state.  The terminal
heartbeat guarantee (``HeartbeatEmitter.finish``) is what lets the
stream end promptly on degraded/failed runs instead of timing out.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..logging import JsonFormatter
from ..obs.spans import new_trace_id
from .daemon import PartitionService
from .jobs import TERMINAL_STATES

__all__ = ["ServeHTTPServer", "make_server", "attach_access_log"]

#: Logger carrying one structured record per handled request.
ACCESS_LOGGER_NAME = "repro.serve.access"


def attach_access_log(path) -> logging.Handler:
    """Route the access log to a JSONL file; returns the handler.

    One JSON object per request (method, path, status, duration,
    trace id) on the dedicated ``repro.serve.access`` logger.  The
    logger does not propagate — access records are machine-readable
    telemetry, not operator chatter for stderr.  Re-attaching replaces
    the previous handler (same idempotency contract as
    :func:`repro.logging.configure_logging`).
    """
    logger = logging.getLogger(ACCESS_LOGGER_NAME)
    for old in [
        h for h in logger.handlers if getattr(h, "_repro_configured", False)
    ]:
        logger.removeHandler(old)
        old.close()
    handler = logging.FileHandler(path, encoding="utf-8")
    handler.setFormatter(JsonFormatter())
    handler._repro_configured = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    return handler

#: Hard cap on how long one stream request will follow a job (seconds).
STREAM_MAX_SECONDS = 600.0

#: Seconds between tails of ``trace.jsonl``: the worker process writes
#: it, so no event here marks a new line.  A terminal job ends the wait.
STREAM_TAIL_SECONDS = 0.1


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: PartitionService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServeHTTPServer

    # -- plumbing --------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes to the access logger, not stderr

    @property
    def service(self) -> PartitionService:
        return self.server.service

    def _send_json(self, payload: dict, status: Optional[int] = None) -> None:
        status = status if status is not None else payload.get("status", 200)
        self._status = status
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        if payload.get("retry_after") is not None:
            self.send_header("Retry-After", str(payload["retry_after"]))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Trace-Id", self._trace_id)
        self.end_headers()
        self.wfile.write(data)

    def _handle(self, method: str, route) -> None:
        """Shared per-request envelope: trace id, timing, access log."""
        started = time.monotonic()
        self._trace_id = self.headers.get("X-Trace-Id") or new_trace_id()
        self._status = 500  # overwritten by every successful send
        try:
            route()
        finally:
            logging.getLogger(ACCESS_LOGGER_NAME).info(
                "access",
                extra={
                    "fields": {
                        "method": method,
                        "path": self.path.split("?", 1)[0],
                        "status": self._status,
                        "duration_ms": round(
                            (time.monotonic() - started) * 1000, 3
                        ),
                        "trace_id": self._trace_id,
                        "client": self.client_address[0],
                    }
                },
            )

    def _read_body(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b"{}"
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST", self._route_post)

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(self.service.healthz())
        elif path == "/readyz":
            self._send_json(self.service.readyz())
        elif path == "/stats":
            self._send_json({"status": 200, "stats": self.service.stats()})
        elif path == "/metrics":
            self._send_text(
                self.service.openmetrics(),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
            )
        elif path == "/jobs":
            self._send_json({"status": 200, "jobs": self.service.jobs()})
        elif path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            if len(parts) == 1:
                self._send_json(self.service.job(parts[0]))
            elif len(parts) == 2 and parts[1] == "result":
                self._send_json(self.service.result(parts[0]))
            elif len(parts) == 2 and parts[1] == "profile":
                self._send_json(self.service.job_profile(parts[0]))
            elif len(parts) == 2 and parts[1] == "stream":
                self._stream_job(parts[0])
            else:
                self._send_json({"status": 404, "error": "no such route"})
        else:
            self._send_json({"status": 404, "error": "no such route"})

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            payload = self._read_body()
            if payload is None:
                self._send_json(
                    {"status": 400, "error": "body must be a JSON object"}
                )
                return
            force = bool(payload.pop("force", False))
            self._send_json(
                self.service.submit(
                    payload, force=force, trace_id=self._trace_id
                )
            )
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[2]
            self._send_json(self.service.cancel(job_id))
        else:
            self._send_json({"status": 404, "error": "no such route"})

    # -- streaming -------------------------------------------------------

    def _chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")

    def _stream_job(self, job_id: str) -> None:
        view = self.service.job(job_id)
        if view["status"] != 200:
            self._send_json(view)
            return
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Trace-Id", self._trace_id)
        self.end_headers()

        trace_path = self.service.job_dir(job_id) / "trace.jsonl"
        deadline = time.monotonic() + STREAM_MAX_SECONDS
        offset = 0

        def ended() -> bool:
            job = self.service.job(job_id).get("job")
            return job is None or job["state"] in TERMINAL_STATES

        def pump_trace() -> None:
            # Forward only complete lines; a partially written trailing
            # line waits for the next tail.
            nonlocal offset
            if not trace_path.exists():
                return
            with open(trace_path, "r", encoding="utf-8") as stream:
                stream.seek(offset)
                tail = stream.read()
            if tail:
                complete, sep, _rest = tail.rpartition("\n")
                if sep:
                    block = complete + "\n"
                    offset += len(block.encode("utf-8"))
                    self._chunk(block.encode("utf-8"))

        try:
            while time.monotonic() < deadline:
                pump_trace()
                if self.service.wait_for(ended, STREAM_TAIL_SECONDS):
                    job = self.service.job(job_id).get("job")
                    # Lines written between the pump above and the state
                    # flipping terminal (e.g. the final heartbeat) must
                    # still reach the client: the job is terminal, so no
                    # further writes can race this last drain.
                    pump_trace()
                    end = {
                        "event": "job_end",
                        "job_id": job_id,
                        "state": job["state"] if job else "unknown",
                        "result": job.get("result") if job else None,
                    }
                    self._chunk(
                        (json.dumps(end, sort_keys=True) + "\n").encode(
                            "utf-8"
                        )
                    )
                    break
            self._chunk(b"")  # terminating zero-length chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up


def make_server(
    host: str, port: int, service: PartitionService
) -> ServeHTTPServer:
    """Bind the HTTP server (port 0 picks a free port) — not serving yet."""
    return ServeHTTPServer((host, port), service)


def serve_forever_in_thread(server: ServeHTTPServer) -> threading.Thread:
    """Run the server loop on a daemon thread; returns the thread."""
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="fpart-serve-http",
        daemon=True,
    )
    thread.start()
    return thread


__all__.append("serve_forever_in_thread")
