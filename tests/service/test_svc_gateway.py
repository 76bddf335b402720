"""HTTP gateway: status codes, Retry-After on shed, routing."""

import asyncio
import json

from repro.service import JobGateway, JobService, ManualClock, ServicePolicy, TenantQuota

POLICY = ServicePolicy(sync_journal=False)


async def _request(port, method, path, body=None, raw=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = raw if raw is not None else (
        b"" if body is None else json.dumps(body).encode("utf-8")
    )
    lines = [f"{method} {path} HTTP/1.1", "Host: localhost"]
    if payload:
        lines.append(f"Content-Length: {len(payload)}")
    writer.write("\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + payload)
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, body_bytes = response.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(body_bytes), headers


def _with_gateway(tmp_path, coro, configure=None):
    """Run ``coro(service, port)`` against a live gateway."""

    async def scenario():
        with JobService(tmp_path / "svc", clock=ManualClock(), policy=POLICY) as svc:
            if configure is not None:
                configure(svc)
            gateway = JobGateway(svc, port=0)
            await gateway.start()
            try:
                return await coro(svc, gateway.port)
            finally:
                await gateway.stop()

    return asyncio.run(scenario())


SUBMIT = {"tenant": "t", "kind": "faulty", "params": {}, "dedupe_key": "k"}


def test_submit_created_then_deduped(tmp_path):
    async def scenario(svc, port):
        status, payload, _ = await _request(port, "POST", "/v1/jobs", SUBMIT)
        assert status == 201 and payload["created"]
        job_id = payload["job"]["job_id"]
        status, payload, _ = await _request(port, "POST", "/v1/jobs", SUBMIT)
        assert status == 200 and not payload["created"]
        assert payload["job"]["job_id"] == job_id

    _with_gateway(tmp_path, scenario)


def test_shed_answers_429_with_retry_after(tmp_path):
    async def scenario(svc, port):
        await _request(port, "POST", "/v1/jobs", SUBMIT)
        over = dict(SUBMIT, dedupe_key="k2")
        status, payload, headers = await _request(port, "POST", "/v1/jobs", over)
        assert status == 429
        assert payload["retry_after"] > 0
        assert int(headers["retry-after"]) >= 1

    _with_gateway(
        tmp_path,
        scenario,
        configure=lambda svc: svc.set_quota("t", TenantQuota(max_pending=1)),
    )


def test_status_and_404(tmp_path):
    async def scenario(svc, port):
        job, _ = svc.submit("t", "faulty", {})
        status, payload, _ = await _request(port, "GET", f"/v1/jobs/{job.job_id}")
        assert status == 200 and payload["state"] == "pending"
        status, payload, _ = await _request(port, "GET", "/v1/jobs/job-nope")
        assert status == 404 and "error" in payload

    _with_gateway(tmp_path, scenario)


def test_cancel_then_conflict(tmp_path):
    async def scenario(svc, port):
        job, _ = svc.submit("t", "faulty", {})
        path = f"/v1/jobs/{job.job_id}/cancel"
        status, payload, _ = await _request(port, "POST", path)
        assert status == 200 and payload["job"]["state"] == "cancelled"
        status, payload, _ = await _request(port, "POST", path)
        assert status == 409  # terminal states are exactly-once

    _with_gateway(tmp_path, scenario)


def test_list_filters_by_tenant_and_state(tmp_path):
    async def scenario(svc, port):
        svc.submit("alice", "faulty", {})
        svc.submit("bob", "faulty", {})
        status, payload, _ = await _request(port, "GET", "/v1/jobs?tenant=alice")
        assert status == 200
        assert [j["tenant"] for j in payload["jobs"]] == ["alice"]
        status, payload, _ = await _request(port, "GET", "/v1/jobs?state=pending")
        assert len(payload["jobs"]) == 2
        status, payload, _ = await _request(port, "GET", "/v1/jobs?state=bogus")
        assert status == 400

    _with_gateway(tmp_path, scenario)


def test_healthz_and_counters(tmp_path):
    async def scenario(svc, port):
        svc.submit("t", "faulty", {})
        status, payload, _ = await _request(port, "GET", "/v1/healthz")
        assert status == 200
        assert payload == {"status": "ok", "open_jobs": 1}
        status, payload, _ = await _request(port, "GET", "/v1/counters")
        assert payload["/jobs{t}/count/submitted"] == 1

    _with_gateway(tmp_path, scenario)


def test_bad_requests(tmp_path):
    async def scenario(svc, port):
        status, payload, _ = await _request(
            port, "POST", "/v1/jobs", raw=b"{not json"
        )
        assert status == 400 and "bad JSON" in payload["error"]
        status, payload, _ = await _request(port, "POST", "/v1/jobs", {"kind": "x"})
        assert status == 400 and "tenant" in payload["error"]
        status, _, _ = await _request(port, "DELETE", "/v1/jobs")
        assert status == 405
        status, _, _ = await _request(port, "GET", "/v1/nope")
        assert status == 404
        for bad in ("5", 2.5, 0, True):
            status, payload, _ = await _request(
                port, "POST", "/v1/jobs", {**SUBMIT, "max_attempts": bad}
            )
            assert status == 400 and "max_attempts" in payload["error"]
        assert svc.store.jobs() == []  # nothing malformed was journalled
        status, payload, _ = await _request(
            port, "POST", "/v1/jobs", {**SUBMIT, "max_attempts": 7}
        )
        assert status == 201 and payload["job"]["max_attempts"] == 7
        return payload["job"]["job_id"]

    job_id = _with_gateway(tmp_path, scenario)
    with JobService(tmp_path / "svc", clock=ManualClock(), policy=POLICY) as reopened:
        assert reopened.status(job_id)["max_attempts"] == 7
