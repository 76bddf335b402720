"""Asyncio HTTP gateway in front of a :class:`JobService`.

A deliberately small HTTP/1.1 front end (stdlib ``asyncio`` only -- the
repository bans thread pools) exposing the job lifecycle to clients::

    POST /v1/jobs                submit  {tenant, kind, params, dedupe_key?}
    GET  /v1/jobs                list    ?tenant=...&state=...
    GET  /v1/jobs/<id>           status
    POST /v1/jobs/<id>/cancel    cancel
    GET  /v1/counters            per-tenant service counters
    GET  /v1/healthz             liveness

Semantics mirror the service exactly: a deduped resubmission answers
``200`` with the *original* job (a fresh submit answers ``201``), and a
shed submission answers ``429`` with a ``Retry-After`` header -- the
HTTP spelling of :class:`~repro.errors.JobShedError`, never a silent
drop.  Handlers only touch the journal and in-memory indexes; the
actual work is driven by separate worker processes, so the gateway
stays responsive under load.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    JobShedError,
    JobStateError,
    JournalCorruptError,
    UnknownJobError,
)
from .service import JobService

__all__ = ["JobGateway"]

_MAX_BODY = 1 << 20  # 1 MiB: job params are small; refuse absurd bodies.
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class JobGateway:
    """Serves the job API for one :class:`JobService`."""

    def __init__(self, service: JobService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # With port=0 the OS picks; record what we actually bound.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload, headers = await self._handle_request(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500, reported
            status, payload, headers = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write("\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body)
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, Any, dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split(" ")
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}, {}
        method, target, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}, {}
        if content_length > _MAX_BODY:
            return 413, {"error": "request body too large"}, {}
        raw = await reader.readexactly(content_length) if content_length else b""
        body: dict[str, Any] = {}
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"bad JSON body: {exc}"}, {}
            if not isinstance(body, dict):
                return 400, {"error": "JSON body must be an object"}, {}
        return self._route(method, target, body)

    # ------------------------------------------------------------------
    # routing

    def _route(
        self, method: str, target: str, body: dict[str, Any]
    ) -> tuple[int, Any, dict[str, str]]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        if path == "/v1/healthz" and method == "GET":
            return 200, {"status": "ok", "open_jobs": self.service.store.open_count()}, {}
        if path == "/v1/counters" and method == "GET":
            return 200, self.service.counters(), {}
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return self._list(query)
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/cancel") and method == "POST":
                return self._cancel(rest[: -len("/cancel")])
            if "/" not in rest and method == "GET":
                return self._status(rest)
        return 404, {"error": f"no route for {method} {path}"}, {}

    def _submit(self, body: dict[str, Any]) -> tuple[int, Any, dict[str, str]]:
        tenant = body.get("tenant")
        kind = body.get("kind")
        params = body.get("params", {})
        if not isinstance(tenant, str) or not tenant:
            return 400, {"error": "submit needs a non-empty string 'tenant'"}, {}
        if not isinstance(kind, str) or not kind:
            return 400, {"error": "submit needs a non-empty string 'kind'"}, {}
        if not isinstance(params, dict):
            return 400, {"error": "'params' must be an object"}, {}
        max_attempts = body.get("max_attempts")
        # ``type(...) is int``: JSON true/false are ints to isinstance.
        if max_attempts is not None and (
            type(max_attempts) is not int or max_attempts < 1
        ):
            return 400, {"error": "'max_attempts' must be an integer >= 1"}, {}
        try:
            job, created = self.service.submit(
                tenant,
                kind,
                params,
                dedupe_key=body.get("dedupe_key"),
                max_attempts=max_attempts,
            )
        except JobShedError as exc:
            retry_after = max(0.0, exc.retry_after)
            return (
                429,
                {"error": str(exc), "retry_after": retry_after},
                {"Retry-After": str(max(1, math.ceil(retry_after)))},
            )
        except (ValueError, JournalCorruptError) as exc:
            return 400, {"error": str(exc)}, {}
        return (201 if created else 200), {
            "job": job.describe(),
            "created": created,
        }, {}

    def _status(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        try:
            return 200, self.service.status(job_id), {}
        except UnknownJobError as exc:
            return 404, {"error": str(exc)}, {}

    def _cancel(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        try:
            job = self.service.cancel(job_id)
        except UnknownJobError as exc:
            return 404, {"error": str(exc)}, {}
        except JobStateError as exc:
            return 409, {"error": str(exc)}, {}
        return 200, {"job": job.describe()}, {}

    def _list(self, query: dict[str, str]) -> tuple[int, Any, dict[str, str]]:
        try:
            jobs = self.service.list_jobs(
                tenant=query.get("tenant"), state=query.get("state")
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        return 200, {"jobs": [job.describe() for job in jobs]}, {}
