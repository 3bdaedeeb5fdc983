"""Python client for the ``repro-serve`` REST service.

Stdlib only (``http.client``), one kept-alive connection per calling
thread; mirrors the route table in :mod:`repro.service.rest`::

    client = ServiceClient("http://127.0.0.1:8000")
    job = client.submit("conv", {"algos": ["IMPLICIT_GEMM"]}, seed=7)
    result = client.result(job["job_id"], timeout=120)
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

from repro.errors import ServiceError

#: How a kept-alive connection the server has closed fails a request.
_DROPPED = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class ServiceClient:
    """Thin HTTP wrapper; every method returns the decoded JSON body.

    Each thread that calls it gets its own kept-alive connection, opened
    on first use and reopened after the server closes it.
    """

    def __init__(self, base_url: str, *, request_timeout: float = 60.0
                 ) -> None:
        self.base_url = base_url.rstrip("/")
        self.request_timeout = request_timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._connect = (http.client.HTTPSConnection
                         if url.scheme == "https"
                         else http.client.HTTPConnection)
        self._netloc = url.netloc
        self._prefix = url.path
        self._local = threading.local()

    # -- transport ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (its socket opens on first send)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect(self._netloc)
        return conn

    def _exchange(self, method: str, path: str, data: bytes | None,
                  headers: dict, timeout: float
                  ) -> tuple[int, bytes]:
        """Send one request on this thread's connection and read the
        reply: ``(status, body)``.

        A *reused* connection that drops before any reply arrives (the
        server closed it for idling, say) never ran the request, so it
        is retried once on a fresh connection; every other failure
        closes the connection and raises.
        """
        conn = self._connection()
        retry = conn.sock is not None
        while True:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            response = None
            try:
                conn.request(method, self._prefix + path, data, headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if retry and response is None \
                        and isinstance(exc, _DROPPED):
                    retry = False
                    continue
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: "
                    f"{exc}") from exc

    def _request(self, method: str, path: str, body: dict | None = None,
                 *, timeout: float | None = None) -> dict:
        """One HTTP round-trip; HTTP errors become ServiceError."""
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        status, raw = self._exchange(method, path, data, headers,
                                     timeout or self.request_timeout)
        if not 200 <= status < 300:
            try:
                detail = json.loads(raw or b"{}").get("error", "")
            except ValueError:
                detail = ""
            raise ServiceError(
                f"{method} {path} failed with HTTP {status}"
                + (f": {detail}" if detail else ""))
        return json.loads(raw or b"{}")

    # -- API ------------------------------------------------------------
    def health(self) -> dict:
        """Liveness probe (``GET /healthz``)."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """Service counters (``GET /api/stats``)."""
        return self._request("GET", "/api/stats")

    def workloads(self) -> list[str]:
        """Registered workload names (``GET /api/workloads``)."""
        return self._request("GET", "/api/workloads")["workloads"]

    def submit(self, workload: str, config: dict | None = None,
               seed: int = 0, *, priority: int | None = None,
               deadline_s: float | None = None,
               tenant: str | None = None) -> dict:
        """Submit a job; returns the job record (``job_id``, ``state``,
        ``memo_hit`` and — for instant memo hits — ``result``).

        *priority*, *deadline_s* and *tenant* are the scheduling
        attributes (see ``ClusterScheduler.submit``).
        """
        body: dict = {
            "workload": workload,
            "config": config or {},
            "seed": seed,
        }
        if priority is not None:
            body["priority"] = priority
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if tenant is not None:
            body["tenant"] = tenant
        return self._request("POST", "/api/jobs", body)

    def jobs(self) -> list[dict]:
        """All job records known to the server (no result payloads)."""
        return self._request("GET", "/api/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """One job record (includes the result once the job is done)."""
        return self._request("GET", f"/api/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        """Cancel a job.

        Queued jobs close as ``cancelled`` immediately; running jobs
        stop at their next shard boundary — poll :meth:`job` or
        :meth:`events` for the terminal state.  Returns the job record
        as of the cancel request.
        """
        return self._request("POST", f"/api/jobs/{job_id}/cancel")

    def events(self, job_id: str, *, since: int = 0,
               timeout_s: float = 10.0) -> dict:
        """One long-poll of a job's event stream.

        Returns ``{"events": [...], "state": ..., "next_since": N}``;
        pass ``next_since`` back as *since* to stream incrementally.
        An empty ``events`` list means the poll timed out with nothing
        new — not an error.
        """
        return self._request(
            "GET", f"/api/jobs/{job_id}/events?since={since}"
                   f"&timeout_s={timeout_s}",
            timeout=timeout_s + self.request_timeout)

    def stream_events(self, job_id: str, *, poll_timeout_s: float = 10.0,
                      overall_timeout_s: float = 600.0):
        """Yield a job's events as they happen until it goes terminal.

        A generator over :meth:`events` long-polls: yields each event
        dict (``kind``, ``ts``, ``seq``, extras), returns once the job
        reaches ``done``/``error``/``cancelled`` and all its events
        have been yielded.  Raises :class:`~repro.errors.ServiceError`
        if *overall_timeout_s* elapses first.
        """
        since = 0
        deadline = time.monotonic() + overall_timeout_s
        while True:
            payload = self.events(job_id, since=since,
                                  timeout_s=poll_timeout_s)
            for event in payload["events"]:
                yield event
            since = payload["next_since"]
            if payload["state"] in ("done", "error", "cancelled"):
                return
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {payload['state']} after "
                    f"{overall_timeout_s:.0f}s of event streaming")

    def cluster_stats(self) -> dict:
        """The scheduler's per-GPU cluster view."""
        return self._request("GET", "/api/cluster/stats")

    def result(self, job_id: str, *, timeout: float = 120.0,
               poll_interval: float = 0.25) -> dict:
        """Block until *job_id* finishes and return its result payload.

        Uses the server's blocking result endpoint in slices so one hung
        request cannot eat the whole timeout budget.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for job "
                    f"{job_id}")
            slice_s = min(remaining, 10.0)
            try:
                payload = self._request(
                    "GET", f"/api/jobs/{job_id}/result?timeout_s={slice_s}",
                    timeout=slice_s + self.request_timeout)
            except ServiceError as exc:
                if "HTTP 408" in str(exc):
                    time.sleep(poll_interval)
                    continue
                raise
            return payload["result"]
