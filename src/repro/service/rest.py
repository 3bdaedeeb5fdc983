"""Stdlib-only REST front door for the job service (``repro-serve``).

No framework, no dependencies: :class:`http.server.ThreadingHTTPServer`
plus JSON bodies.  The API surface (see ``docs/OPERATIONS.md`` for
request/response examples of every route):

=======  ============================  ===================================
Method   Path                          Meaning
=======  ============================  ===================================
GET      ``/healthz``                  liveness probe
GET      ``/api/stats``                queue + kernel-cache counters
GET      ``/api/workloads``            registered workload names
POST     ``/api/jobs``                 submit ``{workload, config?, seed?,
                                       priority?, deadline_s?, tenant?}``
GET      ``/api/jobs``                 all jobs (no result payloads)
GET      ``/api/jobs/<id>``            one job record (result when done)
GET      ``/api/jobs/<id>/result``     block up to ``?timeout_s=`` for it
GET      ``/api/jobs/<id>/events``     long-poll the job's event stream
POST     ``/api/jobs/<id>/cancel``     cancel queued/running job
GET      ``/api/cluster/stats``        per-GPU view of the scheduler
=======  ============================  ===================================

``POST /api/jobs`` answers ``202 Accepted`` with the job record; a
memoized or coalesced submission comes back with ``memo_hit: true``
(and, for a memo hit, ``state: "done"`` plus the cached result —
the second identical submission never simulates anything).

The server fronts one
:class:`~repro.service.scheduler.ClusterScheduler`; every route in
:data:`API_ROUTES` always exists.

Run it::

    repro-serve --gpus 4 --policy sjf --port 8000
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ServiceError, UnknownJobError
from repro.functional import kernelcache
from repro.service.scheduler import POLICIES, ClusterScheduler

_JOB_PATH = re.compile(
    r"^/api/jobs/([A-Za-z0-9_.-]+)(/result|/events|/cancel)?$")

#: Cap on blocking-result waits so a stuck client cannot pin a handler
#: thread forever.
MAX_RESULT_WAIT_S = 300.0

#: A kept-alive connection with no request for this long is closed, and
#: so is one whose request (body included) stalls this long mid-send.
IDLE_CLOSE_S = 30.0

#: Cap on a single events long-poll; clients re-poll with ``since``.
MAX_EVENTS_WAIT_S = 60.0

#: Largest request body the server reads; a longer ``Content-Length``
#: is refused unread so a client cannot pin a handler thread on it.
MAX_BODY_BYTES = 1 << 20

#: The full route manifest: ``(method, path)`` for every endpoint the
#: server answers.  ``tools/check_operations_doc.py`` asserts that
#: ``docs/OPERATIONS.md`` documents every row, so adding a route here
#: without documenting it fails CI.
API_ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/api/stats"),
    ("GET", "/api/workloads"),
    ("POST", "/api/jobs"),
    ("GET", "/api/jobs"),
    ("GET", "/api/jobs/<id>"),
    ("GET", "/api/jobs/<id>/result"),
    ("GET", "/api/jobs/<id>/events"),
    ("POST", "/api/jobs/<id>/cancel"),
    ("GET", "/api/cluster/stats"),
)


class _BadRequest(Exception):
    """A request parameter failed validation (answered ``400``)."""


class ServiceHandler(BaseHTTPRequestHandler):
    """One kept-alive connection; the scheduler lives on the server.

    Each reply is buffered and leaves in one write when
    ``handle_one_request`` flushes, with Nagle off: on a kept-alive
    connection, a reply sent in pieces with Nagle on waits out the
    client's delayed ACK (about 40 ms) on every request.
    """

    server_version = "repro-serve/1.1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1

    # -- plumbing -------------------------------------------------------
    def setup(self) -> None:
        """Bound every socket read and write by :data:`IDLE_CLOSE_S`
        (read per connection): an idle or stalled client is dropped."""
        self.timeout = IDLE_CLOSE_S
        super().setup()

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now: the buffered reply would
        otherwise hold it until the whole request is answered."""
        answer = super().handle_expect_100()
        self.wfile.flush()
        return answer

    def parse_request(self) -> bool:
        """Parse the request line and headers; a request that arrives
        after the server closed is dropped unanswered."""
        if self.server.closing:  # type: ignore[attr-defined]
            self.close_connection = True
            return False
        return super().parse_request()

    @property
    def scheduler(self) -> ClusterScheduler:
        """The mounted :class:`ClusterScheduler`."""
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        """Route http.server's per-request lines to stderr (or drop
        them when the server was built with ``quiet=True``)."""
        if getattr(self.server, "quiet", False):
            return
        sys.stderr.write("[repro-serve] %s\n" % (format % args))

    def _send(self, code: int, payload: dict) -> None:
        """Serialize *payload* and send it with the right headers."""
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        """Send the standard error envelope ``{"error": message}``."""
        self._send(code, {"error": message})

    def _content_length(self) -> int:
        """The declared body length; ``-1`` when it is not an integer."""
        try:
            return int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return -1

    def _body(self) -> bytes | None:
        """Read the declared body, whether or not the route uses it.

        ``None`` when it was not read: a length outside
        ``0..MAX_BODY_BYTES`` is refused *unread*, and a client that
        stalls mid-body is dropped at :data:`IDLE_CLOSE_S`.  Either way
        the connection closes, since unread bytes would otherwise be
        parsed as the next request.
        """
        length = self._content_length()
        if 0 <= length <= MAX_BODY_BYTES:
            try:
                return self.rfile.read(length)
            except OSError:
                pass
        self.close_connection = True
        return None

    def _read_json(self) -> dict | None:
        """Parse the request body as a JSON object (else answer 4xx;
        a body dropped mid-read gets no answer)."""
        raw = self._body()
        if raw is None:
            length = self._content_length()
            if length < 0:
                self._error(400, "Content-Length must be a "
                                 "non-negative integer")
            elif length > MAX_BODY_BYTES:
                self._error(413, f"request body exceeds "
                                 f"{MAX_BODY_BYTES} bytes")
            return None
        try:
            body = json.loads(raw or b"{}")
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(body, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Dispatch all GET routes (see :data:`API_ROUTES`)."""
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send(200, {"ok": True})
            return
        if path == "/api/stats":
            stats = self.scheduler.stats()
            stats["kernelcache"] = kernelcache.counters()
            self._send(200, stats)
            return
        if path == "/api/workloads":
            self._send(200, {"workloads": sorted(self.scheduler.registry)})
            return
        if path == "/api/jobs":
            self._send(200, {"jobs": self.scheduler.jobs()})
            return
        if path == "/api/cluster/stats":
            self._send(200, self.scheduler.cluster_stats())
            return
        match = _JOB_PATH.match(path)
        if match is None:
            self._error(404, f"no route for {path}")
            return
        job_id, tail = match.group(1), match.group(2) or ""
        if tail == "/cancel":
            self._error(404, "cancel is POST /api/jobs/<id>/cancel")
            return
        try:
            if tail == "":
                self._send(200, self.scheduler.status(job_id))
                return
            if tail == "/events":
                self._get_events(job_id, query)
                return
            timeout = _query_float(query, "timeout_s", default=30.0)
            timeout = min(timeout, MAX_RESULT_WAIT_S)
            result = self.scheduler.result(job_id, timeout=timeout)
        except _BadRequest as exc:
            self._error(400, str(exc))
        except UnknownJobError as exc:
            self._error(404, str(exc))
        except ServiceError as exc:
            self._error(500, str(exc))
        except TimeoutError as exc:
            self._error(408, str(exc))
        else:
            self._send(200, {"job_id": job_id, "result": result})

    def _get_events(self, job_id: str, query: str) -> None:
        """``GET /api/jobs/<id>/events`` — long-poll the event stream.

        ``?since=N`` skips the first N events (pass the previous
        response's ``next_since``); ``?timeout_s=`` bounds the wait.
        Timing out is a normal ``200`` with an empty list, never 408.
        """
        since = int(_query_float(query, "since", default=0.0))
        if since < 0:
            raise _BadRequest(f"'since' must be >= 0, got {since}")
        timeout = _query_float(query, "timeout_s", default=10.0)
        timeout = min(max(timeout, 0.0), MAX_EVENTS_WAIT_S)
        events, state = self.scheduler.events(job_id, since,
                                              timeout=timeout)
        self._send(200, {"job_id": job_id, "state": state,
                         "events": events,
                         "next_since": since + len(events)})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        """Dispatch POST routes: job submission and cancellation."""
        path = self.path.partition("?")[0]
        match = _JOB_PATH.match(path)
        if match is not None and match.group(2) == "/cancel":
            self._body()
            self._post_cancel(match.group(1))
            return
        if path != "/api/jobs":
            self._body()
            self._error(404, f"no route for {path}")
            return
        body = self._read_json()
        if body is None:
            return
        workload = body.get("workload")
        if not isinstance(workload, str):
            self._error(400, "missing required field 'workload'")
            return
        config = body.get("config") or {}
        if not isinstance(config, dict):
            self._error(400, "'config' must be a JSON object")
            return
        try:
            seed = int(body.get("seed", 0))
        except (TypeError, ValueError, OverflowError):
            self._error(400, "'seed' must be an integer")
            return
        scheduling = {}
        for field, caster in (("priority", int), ("deadline_s", float),
                              ("tenant", str)):
            value = body.get(field)
            if value is None:
                continue
            try:
                scheduling[field] = caster(value)
            except (TypeError, ValueError, OverflowError):
                self._error(400, f"{field!r} must be a {caster.__name__}")
                return
        try:
            job = self.scheduler.submit(workload, config, seed, **scheduling)
        except ServiceError as exc:
            self._error(400, str(exc))
            return
        self._send(202, job.to_dict())

    def _post_cancel(self, job_id: str) -> None:
        """``POST /api/jobs/<id>/cancel`` — instant for queued jobs,
        cooperative (next shard boundary) for running ones."""
        try:
            record = self.scheduler.cancel(job_id)
        except UnknownJobError as exc:
            self._error(404, str(exc))
            return
        self._send(200, record)


def _query_float(query: str, name: str, default: float) -> float:
    """Pull one float query parameter out of a raw query string.

    An unparsable value falls back to *default*; ``nan``/``inf`` parse
    but can bound no wait, so they raise :class:`_BadRequest`.
    """
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key == name:
            try:
                number = float(value)
            except ValueError:
                return default
            if not math.isfinite(number):
                raise _BadRequest(
                    f"{name!r} must be a finite number, got {value}")
            return number
    return default


class ServiceServer(ThreadingHTTPServer):
    """A thread per kept-alive connection, none of them served past a
    close.

    Handler threads are daemons that ``server_close`` does not join, so
    without more a closed server would go on answering the connections
    it had open.  After a close each drops any request that arrives (a
    reply already under way still goes out); an idle one ends at its
    next request or after :data:`IDLE_CLOSE_S`.
    """

    #: set by :meth:`server_close`; read by every handler per request.
    closing = False

    def server_close(self) -> None:
        self.closing = True
        super().server_close()


def make_server(scheduler: ClusterScheduler, host: str = "127.0.0.1",
                port: int = 0, *, quiet: bool = False) -> ServiceServer:
    """Build (but do not start) the HTTP server; ``port=0`` picks a
    free port — read it back from ``server.server_address``."""
    server = ServiceServer((host, port), ServiceHandler)
    server.scheduler = scheduler  # type: ignore[attr-defined]
    server.quiet = quiet  # type: ignore[attr-defined]
    return server


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` flag set (``tools/check_operations_doc.py``
    holds ``docs/OPERATIONS.md`` to exactly these flags)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the GPU simulator as an async job service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--gpus", type=int, default=2,
                        help="simulated GPU workers for the cluster "
                             "scheduler (default 2)")
    parser.add_argument("--policy", choices=sorted(POLICIES),
                        default="fifo",
                        help="job allocation policy (default fifo)")
    parser.add_argument("--no-persist", action="store_true",
                        help="keep the job memo table in memory only "
                             "(default: persisted under the repro "
                             "cache dir)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request logging")
    return parser


def main(argv: list[str] | None = None) -> int:
    """``repro-serve`` entry point: one cluster scheduler behind the
    REST routes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    scheduler = ClusterScheduler(
        gpus=args.gpus, policy=args.policy,
        memo_path=None if args.no_persist else "<default>")
    server = make_server(scheduler, args.host, args.port,
                         quiet=args.quiet)
    host, port = server.server_address[:2]
    print(f"repro-serve listening on http://{host}:{port} "
          f"(gpus={args.gpus} policy={args.policy})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        scheduler.shutdown(wait=False)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
