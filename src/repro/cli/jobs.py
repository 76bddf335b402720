"""``jobs``: the durable multi-tenant job service (``docs/job-service.md``):
manage jobs in a service directory, run a worker loop, serve the HTTP
gateway, or run the kill -9 crash-restart storm CI runs nightly."""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from ..errors import JobShedError, JobStateError, UnknownJobError
from ..service import JobService, ServicePolicy
from ..service.executor import JobRunner
from ..service.jobs import JobState


def add_commands(sub: argparse._SubParsersAction) -> None:
    p_jobs = sub.add_parser(
        "jobs",
        help="durable multi-tenant job service: submit/status/cancel/list, "
        "worker loop, HTTP gateway, chaos storm (docs/job-service.md)",
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    def root_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root",
            required=True,
            metavar="DIR",
            help="service directory (journal + per-job checkpoint trails); "
            "single-writer: one service process owns it at a time",
        )

    p_submit = jobs_sub.add_parser("submit", help="submit one job (idempotent)")
    root_arg(p_submit)
    p_submit.add_argument("--tenant", required=True)
    p_submit.add_argument("--kind", default="stencil1d", choices=tuple(JobRunner.KINDS))
    p_submit.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="job parameter (repeatable; values parsed as JSON scalars)",
    )
    p_submit.add_argument(
        "--dedupe-key",
        metavar="KEY",
        help="idempotency key: resubmitting with a used key returns the "
        "original job instead of creating a new one",
    )
    p_submit.add_argument("--max-attempts", type=int, metavar="N")
    p_submit.add_argument("--json", action="store_true")
    p_submit.set_defaults(handler=_submit)

    p_status = jobs_sub.add_parser("status", help="show one job")
    root_arg(p_status)
    p_status.add_argument("job_id")
    p_status.set_defaults(handler=_status)

    p_cancel = jobs_sub.add_parser("cancel", help="cancel a non-terminal job")
    root_arg(p_cancel)
    p_cancel.add_argument("job_id")
    p_cancel.set_defaults(handler=_cancel)

    p_list = jobs_sub.add_parser("list", help="list jobs")
    root_arg(p_list)
    p_list.add_argument("--tenant")
    p_list.add_argument("--state", choices=tuple(str(state) for state in JobState))
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(handler=_list)

    p_jcnt = jobs_sub.add_parser(
        "counters", help="per-tenant /jobs{tenant} service counters"
    )
    root_arg(p_jcnt)
    p_jcnt.set_defaults(handler=_counters)

    p_work = jobs_sub.add_parser(
        "work", help="run a worker loop over the service directory"
    )
    root_arg(p_work)
    p_work.add_argument("--worker", default="worker-0", metavar="NAME")
    p_work.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle sleep while jobs wait out retry backoff",
    )
    p_work.add_argument("--max-jobs", type=int, metavar="N")
    p_work.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit 0 once every job in the store is terminal",
    )
    p_work.add_argument(
        "--epoch-steps",
        type=int,
        default=10,
        metavar="K",
        help="checkpoint the solution every K stencil steps",
    )
    p_work.set_defaults(handler=_work)

    p_serve = jobs_sub.add_parser(
        "serve", help="asyncio HTTP gateway over the service directory"
    )
    root_arg(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.set_defaults(handler=_serve)

    p_chaos = jobs_sub.add_parser(
        "chaos",
        help="kill -9 crash-restart storm: submit a multi-tenant job storm, "
        "SIGKILL workers at seeded-random points, drain, and audit "
        "exactly-once terminal states and bit-identical results",
    )
    root_arg(p_chaos)
    p_chaos.add_argument("--tenants", type=int, default=3)
    p_chaos.add_argument("--jobs-per-tenant", type=int, default=3)
    p_chaos.add_argument("--nx", type=int, default=32)
    p_chaos.add_argument("--steps", type=int, default=30)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--max-kills", type=int, default=4)
    p_chaos.add_argument("--json", action="store_true")
    p_chaos.set_defaults(handler=_chaos)


def _parse_job_params(pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` pairs -> params dict; values parse as JSON scalars."""
    params: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed --param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value  # bare strings are fine unquoted
    return params


def _submit(args: argparse.Namespace) -> int:
    try:
        params = _parse_job_params(args.param)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with JobService(args.root) as service:
        try:
            job, created = service.submit(
                args.tenant,
                args.kind,
                params,
                dedupe_key=args.dedupe_key,
                max_attempts=args.max_attempts,
            )
        except JobShedError as exc:
            print(
                f"submission shed: {exc} (retry after {exc.retry_after:g}s)",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json.dumps({"job": job.describe(), "created": created}))
        else:
            verb = "created" if created else "deduplicated to existing"
            print(f"{verb} {job.job_id} ({job.state})")
    return 0


def _status(args: argparse.Namespace) -> int:
    with JobService(args.root) as service:
        try:
            print(json.dumps(service.status(args.job_id), indent=2))
        except UnknownJobError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    return 0


def _cancel(args: argparse.Namespace) -> int:
    with JobService(args.root) as service:
        try:
            job = service.cancel(args.job_id)
        except (UnknownJobError, JobStateError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(f"cancelled {job.job_id}")
    return 0


def _list(args: argparse.Namespace) -> int:
    from ..reporting import format_table

    with JobService(args.root) as service:
        jobs = service.list_jobs(tenant=args.tenant, state=args.state)
        if args.json:
            print(json.dumps([job.describe() for job in jobs], indent=2))
            return 0
        rows = [
            [
                job.job_id,
                job.tenant,
                job.kind,
                str(job.state),
                f"{job.attempts}/{job.max_attempts}",
                (job.failure or "")[:40],
            ]
            for job in jobs
        ]
        print(format_table(["job", "tenant", "kind", "state", "attempts", "failure"], rows))
    return 0


def _counters(args: argparse.Namespace) -> int:
    with JobService(args.root) as service:
        for path, value in service.counters().items():
            print(f"{path:<46} {value}")
    return 0


def _work(args: argparse.Namespace) -> int:
    policy = ServicePolicy(epoch_steps=args.epoch_steps)
    with JobService(args.root, policy=policy) as service:
        settled = 0
        while args.max_jobs is None or settled < args.max_jobs:
            if service.run_one(args.worker) is not None:
                settled += 1
                continue
            if not service.store.open_count():
                if args.exit_when_idle:
                    break
            # Open jobs exist but none is claimable right now
            # (retry backoff / foreign leases); poll on real time --
            # the worker loop is the process boundary.
            time.sleep(args.poll)  # repro-lint: disable=PX101
        print(f"worker {args.worker}: settled {settled} job(s)")
    return 0


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..service.gateway import JobGateway

    with JobService(args.root) as service:
        gateway = JobGateway(service, host=args.host, port=args.port)

        async def _serve() -> None:
            await gateway.start()
            print(f"job gateway listening on {gateway.host}:{gateway.port}")
            await gateway.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("gateway stopped")
    return 0


def _chaos(args: argparse.Namespace) -> int:
    from ..service.chaos import run_storm

    report = run_storm(
        args.root,
        tenants=args.tenants,
        jobs_per_tenant=args.jobs_per_tenant,
        nx=args.nx,
        steps=args.steps,
        seed=args.seed,
        max_kills=args.max_kills,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"chaos storm: {report['accepted']} jobs accepted, "
            f"{report['kills']} worker kill(s), "
            f"{report['journal_records']} journal records"
            + (" (torn tail tolerated)" if report["torn_tail_seen"] else "")
        )
        print(f"terminal states: {report['states']}")
        for violation in report["violations"]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
    return 0 if not report["violations"] else 1
