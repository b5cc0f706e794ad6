"""Thin stdlib HTTP client for the partitioning service.

Used by the CLI, the tests and the CI smoke job; also a working example
of the wire protocol for anyone scripting against the daemon with curl.
All methods return the decoded JSON body with the HTTP status available
as ``response["status"]`` (the server mirrors it into the payload), so
callers never juggle exceptions for expected outcomes like 429.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(RuntimeError):
    """Transport-level failure talking to the daemon (not an HTTP 4xx)."""


class ServeClient:
    """One daemon endpoint; connections are per-request (stateless)."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        trace_id: Optional[str] = None,
    ) -> Dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            if trace_id:
                headers["X-Trace-Id"] = trace_id
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            raise ServeClientError(
                f"{method} {path} failed: {error}"
            ) from error
        finally:
            conn.close()
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except ValueError as error:
            raise ServeClientError(
                f"{method} {path}: non-JSON response: {raw[:200]!r}"
            ) from error
        if isinstance(decoded, dict):
            decoded.setdefault("status", response.status)
            retry_after = response.headers.get("Retry-After")
            if retry_after is not None:
                decoded.setdefault("retry_after", int(retry_after))
        return decoded

    # -- API -------------------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def readyz(self) -> Dict:
        return self._request("GET", "/readyz")

    def stats(self) -> Dict:
        return self._request("GET", "/stats")

    def submit(
        self, spec: Dict, force: bool = False, trace_id: Optional[str] = None
    ) -> Dict:
        """Submit a job; ``trace_id`` seeds the service correlation id."""
        body = dict(spec)
        if force:
            body["force"] = True
        return self._request("POST", "/jobs", body, trace_id=trace_id)

    def metrics_text(self) -> str:
        """Raw OpenMetrics exposition from ``GET /metrics``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ServeClientError(f"/metrics: HTTP {response.status}")
        except (OSError, http.client.HTTPException) as error:
            raise ServeClientError(f"GET /metrics failed: {error}") from error
        finally:
            conn.close()
        return raw.decode("utf-8")

    def job(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> List[Dict]:
        return self._request("GET", "/jobs").get("jobs", [])

    def result(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll_seconds: float = 0.1,
    ) -> Dict:
        """Poll until the job is terminal; returns its final record.

        Raises :class:`TimeoutError` (with the last observed state) if
        the job is still live when ``timeout`` expires.
        """
        deadline = time.monotonic() + timeout
        last_state = "unknown"
        while time.monotonic() < deadline:
            view = self.job(job_id)
            job = view.get("job")
            if job is not None:
                last_state = job["state"]
                if last_state in ("done", "degraded", "failed", "cancelled"):
                    return job
            time.sleep(poll_seconds)
        raise TimeoutError(
            f"job {job_id} still {last_state} after {timeout}s"
        )

    def stream(self, job_id: str, timeout: float = 60.0) -> Iterator[Dict]:
        """Yield the job's progress events live (chunked JSONL).

        Terminates when the server sends its ``job_end`` line.  Uses
        ``http.client``'s built-in de-chunking, reading line by line.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/stream")
            response = conn.getresponse()
            if response.status != 200:
                raise ServeClientError(
                    f"stream {job_id}: HTTP {response.status}"
                )
            # readline returns as soon as one line has arrived; a sized
            # read() on a chunked body blocks until the size is filled.
            for line in iter(response.readline, b""):
                if not line.strip():
                    continue
                event = json.loads(line.decode("utf-8"))
                yield event
                if event.get("event") == "job_end":
                    return
        except (OSError, http.client.HTTPException) as error:
            raise ServeClientError(f"stream {job_id}: {error}") from error
        finally:
            conn.close()
