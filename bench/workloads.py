"""The four workloads: set-up, one round of fixed work, and the output checks.

Every workload is a closed loop driven by one process: the next op starts
when the previous one returned.  A *round* is a fixed piece of work (one
stencil op, one service session; the seed picks the initial fields and
the job mix, never the amount of work) cut into *segments* that are
alike from round to round, so the caller can take a robust statistic
per segment position; it also decides how many rounds fit its budget.
bench/README.md records why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import shutil
import statistics
import tempfile
from time import perf_counter, process_time

import numpy as np

from repro.config import Config
from repro.runtime import perfcounters
from repro.runtime.runtime import Runtime
from repro.service.admission import TenantQuota
from repro.service.executor import job_digest
from repro.service.journal import read_journal
from repro.service.service import JobService, ServicePolicy
from repro.stencil.heat1d import DistributedHeat1D, Heat1DParams, heat1d_reference
from repro.stencil.jacobi2d_dist import DistributedJacobi2D
from repro.stencil.validation import analytic_heat_profile

from tracing import Tracer

#: Outputs must match the plain-NumPy references to this absolute error.
TOLERANCE = 1e-12

#: Virtual seconds charged per site update, so the virtual makespan is a
#: schedule-sensitive number instead of 0 (it is an oracle, not a time).
VIRTUAL_S_PER_SITE = 1e-9


def field_digest(field: np.ndarray) -> str:
    # Hashed in place: a bytes copy of a 34 MB field would count in peak_rss_mb.
    return hashlib.sha256(np.ascontiguousarray(field, dtype=np.float64)).hexdigest()


def jacobi_reference(field: np.ndarray, steps: int) -> np.ndarray:
    """Plain 5-point Jacobi sweeps with fixed (Dirichlet) boundary."""
    u = np.array(field, dtype=np.float64, copy=True)
    for _ in range(steps):
        new = u.copy()
        new[1:-1, 1:-1] = 0.25 * (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2])
        u = new
    return u


class Workload:
    """What ``measure.py`` drives; facts a workload does not have keep
    the neutral values below."""

    name = ""
    work_unit = ""
    backend = "virtual"
    sizes: dict = {}
    smoke_sizes: dict = {}
    #: Grid points one time step updates, and time steps per op.
    sites = 0
    steps = 0
    #: Counters over set-up and the first op (exact on the virtual backend).
    first_op_counters: dict[str, float] = {}
    submit_growth: tuple[float, ...] | list[float] = ()
    journal_records = 0
    journal_bytes = 0
    on_tmpfs = False
    ops_per_round = 1
    #: Ops of one nominal solution: cpu_s is reported for this many.
    ops_per_solution = 0

    def __init__(self, seed: int, tracer: Tracer, smoke: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.size = dict(self.smoke_sizes if smoke else self.sizes)
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.rounds_done = 0

    def finish(self) -> None:
        """Untimed checks after the last round."""

    def counters(self) -> dict[str, float]:
        """Public counters, cumulative since set-up."""
        return {}

    def child_pids(self) -> list[int]:
        return [proc.pid for proc in multiprocessing.active_children()]


class _Stencil(Workload):
    """Shared driver of the three stencil workloads."""

    work_unit = "site-updates"

    def __init__(self, seed: int, tracer: Tracer, smoke: bool = False) -> None:
        super().__init__(seed, tracer, smoke)
        self.steps = self.size["steps"]

    # Hooks ------------------------------------------------------------------
    def _runtime(self) -> Runtime:
        raise NotImplementedError

    def _field(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _solver(self):
        raise NotImplementedError

    def _place(self) -> None:
        """Pin the started runtime's processes to cores, where it has any."""

    def _op(self) -> np.ndarray:
        """One op; virtual-backend solvers run inside ``Runtime.run``."""
        return self.rt.run(lambda: self.solver.run(self.steps))

    def reference(self, field: np.ndarray, steps: int) -> np.ndarray:
        raise NotImplementedError

    def plausible(self, out: np.ndarray) -> bool:
        """Cheap invariant checked on every op (first and last get the
        full reference)."""
        raise NotImplementedError

    # Protocol ---------------------------------------------------------------
    def setup(self) -> None:
        span = self.tracer.span
        with span("runtime.construct"):
            self.rt = self._runtime()
        with span("runtime.start"):
            self.rt.start()
        self._place()
        field = self._field(np.random.default_rng(self.seed))
        self.shape, self.mean = field.shape, float(field.mean())
        with span("stencil.initialize"):
            self.solver = self._solver()
            self.solver.initialize(field)
        with span("warmup"):
            self.out = self._op()
        self.prev = field
        # Counted over set-up and this one op, a fixed point of the
        # schedule: on the virtual backend they repeat exactly.
        self.first_op_counters = dict(self.counters(), makespan=self.rt.makespan)

    def check_setup(self) -> None:
        self._check_exact("first op")

    def _check_exact(self, what: str) -> None:
        want = self.reference(self.prev, self.steps)
        if self.out.shape != want.shape or not np.allclose(
            self.out, want, rtol=0.0, atol=TOLERANCE
        ):
            self.problems.append(f"{self.name}: {what} differs from the NumPy reference")

    @property
    def work_per_round(self) -> int:
        return self.sites * self.steps

    def run_round(self) -> tuple[list[tuple[float, float]], list[float], int]:
        """One round is one op: ``(segments, op walls, failed ops)``,
        a segment being ``(wall, cpu)`` seconds."""
        out = None
        cpu0, start = process_time(), perf_counter()
        try:
            with self.tracer.span("op"):
                out = self._op()
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            self.problems.append(f"{self.name}: op raised {type(exc).__name__}: {exc}")
        wall, cpu = perf_counter() - start, process_time() - cpu0
        if out is None:
            return [(wall, cpu)], [], 1
        self.prev, self.out = self.out, out
        return [(wall, cpu)], [wall], 0 if self.plausible(out) else 1

    def after_round(self, index: int) -> None:
        if index == 0:
            self.digests["after_round_1"] = field_digest(self.out)

    def finish(self) -> None:
        self._check_exact("last op")

    def teardown(self) -> None:
        with self.tracer.span("runtime.teardown"):
            self.rt.stop()

    def counters(self) -> dict[str, float]:
        query = perfcounters.query
        return {
            "threads.tasks": query(self.rt, "/threads{total}/count/cumulative"),
            "parcel.sent": query(self.rt, "/parcels{total}/count/sent"),
            "parcel.bytes": query(self.rt, "/parcels{total}/data/sent"),
            "backend.messages": query(self.rt, "/backend{total}/count/messages"),
            "backend.wire_bytes": query(self.rt, "/backend{total}/data/sent"),
            "backend.relayed": query(self.rt, "/backend{total}/count/relayed"),
            "backend.sync_rounds": query(self.rt, "/backend{total}/count/sync-rounds"),
        }


class Heat1DFine(_Stencil):
    name = "heat1d_fine"
    sizes = {"nx": 4096, "parts_per_locality": 16, "steps": 10}
    smoke_sizes = {"nx": 256, "parts_per_locality": 4, "steps": 4}
    ops_per_solution = 600
    params = Heat1DParams()

    def _runtime(self) -> Runtime:
        return Runtime(n_localities=2, workers_per_locality=2)

    def _field(self, rng):
        return rng.random(self.size["nx"])

    def _solver(self):
        parts = self.size["parts_per_locality"]
        local_nx = self.size["nx"] // (2 * parts)
        return DistributedHeat1D(
            self.rt,
            self.size["nx"],
            self.params,
            partitions_per_locality=parts,
            cost_per_step=local_nx * VIRTUAL_S_PER_SITE,
        )

    def reference(self, field, steps):
        return heat1d_reference(field, steps, self.params)

    def plausible(self, out):
        # The periodic 3-point stencil conserves the mean of the field.
        return out.shape == self.shape and bool(abs(out.mean() - self.mean) < 1e-9)

    @property
    def sites(self):
        return self.size["nx"]


class _Jacobi2D(_Stencil):
    parts_per_locality = 1
    band_rows = 128

    def _field(self, rng):
        return rng.random((self.size["ny"], self.size["nx"]))

    def _solver(self):
        rows = (self.size["ny"] - 2) // (2 * self.parts_per_locality)
        return DistributedJacobi2D(
            self.rt,
            self.size["ny"],
            self.size["nx"],
            partitions_per_locality=self.parts_per_locality,
            cost_per_step=rows * self.size["nx"] * VIRTUAL_S_PER_SITE,
        )

    def _check_exact(self, what: str) -> None:
        """The reference in bands of rows, so that the check's
        temporaries stay far below the solver's own footprint
        (peak_rss_mb is about the program).  A band is swept with
        ``steps`` extra rows on each side: an artificial cut spoils one
        more row per sweep, so the band itself stays exact."""
        steps, ny = self.steps, self.size["ny"]
        ok = self.out.shape == self.prev.shape
        for lo in range(0, ny if ok else 0, self.band_rows):
            hi = min(ny, lo + self.band_rows)
            top, bottom = max(0, lo - steps), min(ny, hi + steps)
            want = jacobi_reference(self.prev[top:bottom], steps)[lo - top : hi - top]
            ok = ok and np.allclose(self.out[lo:hi], want, rtol=0.0, atol=TOLERANCE)
        if not ok:
            self.problems.append(f"{self.name}: {what} differs from the NumPy reference")

    def plausible(self, out):
        # An average never leaves the range of the initial field; a
        # strided sample keeps the check off the measured CPU time.
        sample = out[::16, ::16]
        return out.shape == self.shape and bool(
            sample.min() >= -TOLERANCE and sample.max() <= 1.0 + TOLERANCE
        )

    @property
    def sites(self):
        return (self.size["ny"] - 2) * (self.size["nx"] - 2)


class Jacobi2DCoarse(_Jacobi2D):
    name = "jacobi2d_coarse"
    # 2050 x 2048 doubles = 33.6 MB per buffer, 8x the 4 MiB L2.
    sizes = {"ny": 2050, "nx": 2048, "steps": 6}
    smoke_sizes = {"ny": 66, "nx": 64, "steps": 2}
    ops_per_solution = 100

    def _runtime(self) -> Runtime:
        return Runtime(n_localities=2, workers_per_locality=1)


class Jacobi2DMp(_Jacobi2D):
    name = "jacobi2d_mp"
    backend = "multiprocess"
    parts_per_locality = 2
    # 1024 columns: every halo row is an 8 KB ndarray on the pipe.
    sizes = {"ny": 258, "nx": 1024, "steps": 10}
    smoke_sizes = {"ny": 34, "nx": 64, "steps": 2}
    ops_per_solution = 800

    def _runtime(self) -> Runtime:
        config = Config(runtime__backend="multiprocess", runtime__processes=2)
        return Runtime(n_localities=2, workers_per_locality=1, config=config)

    def _place(self) -> None:
        # One process per core, the way localities are deployed (the
        # paper pins its HPX worker threads too).  Left alone, the
        # kernel moves the worker next to the driver and apart again
        # every few seconds (a pipe wake-up is a "sync" wake-up), and
        # the op flips between 22 ms and 16 ms with it.
        self.cpus = os.sched_getaffinity(0)
        cpus = sorted(self.cpus)
        os.sched_setaffinity(0, cpus[:1])
        for pid in self.child_pids():
            os.sched_setaffinity(pid, cpus[-1:])

    def teardown(self) -> None:
        super().teardown()
        os.sched_setaffinity(0, self.cpus)

    def _op(self):
        return self.solver.run(self.steps)


class ServiceJobs(Workload):
    """One round = one service session: open, 25 waves of 16 jobs,
    close, reopen (journal replay), verify, close."""

    name = "service_jobs"
    work_unit = "jobs"
    sizes = {"waves": 25, "nx": 256, "steps": 40}
    smoke_sizes = {"waves": 2, "nx": 64, "steps": 20}
    wave_jobs = 16
    tenants = (("t1", 1.0), ("t2", 1.0), ("t3", 2.0), ("t4", 4.0))
    modes = 8
    ops_per_solution = 8000
    worker = "bench-worker"
    #: The default durable policy: every journal record is fsync'd.
    policy = ServicePolicy()
    #: The service roots live on tmpfs, so that an fsync costs its
    #: syscall and a checkpoint file its copy, not the neighbours' disk:
    #: on the ext4 root one fsync measured 0.2-5.6 ms from one minute to
    #: the next, and even unsynced sessions wandered by +-12 % where
    #: the same sessions on tmpfs stayed within +-3 %.
    tmpfs = "/dev/shm"

    def __init__(self, seed: int, tracer: Tracer, smoke: bool = False) -> None:
        super().__init__(seed, tracer, smoke)
        self.ops_per_round = self.size["waves"] * self.wave_jobs
        self.work_per_round = self.ops_per_round
        self.submit_growth = []
        self.base = self.root = ""

    def _plan(self, waves: int) -> list[list[tuple[str, dict]]]:
        """The job mix: per wave a shuffled 4-per-tenant order, one
        distributed job at a random slot, a random initial mode each."""
        rng = np.random.default_rng(self.seed)
        names = [name for name, _weight in self.tenants]
        plan = []
        for _ in range(waves):
            order = rng.permutation(np.repeat(names, self.wave_jobs // len(names)))
            distributed = int(rng.integers(self.wave_jobs))
            wave = []
            for slot, tenant in enumerate(order):
                params = {
                    "nx": self.size["nx"],
                    "steps": self.size["steps"],
                    "mode": int(rng.integers(1, self.modes + 1)),
                    "distributed": slot == distributed,
                }
                wave.append((str(tenant), params))
            plan.append(wave)
        return plan

    def _make_base(self) -> None:
        """A fresh directory for the service roots: on tmpfs, or without
        one under bench/out, which ``journal.on_tmpfs = 0`` flags."""
        try:
            self.base = tempfile.mkdtemp(prefix="repro-bench-", dir=self.tmpfs)
            self.on_tmpfs = True
        except OSError:
            out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
            os.makedirs(out, exist_ok=True)
            self.base = tempfile.mkdtemp(prefix="service-", dir=out)
        self._roots = (os.path.join(self.base, f"root-{i}") for i in itertools.count())

    def setup(self) -> None:
        self._make_base()
        heat = Heat1DParams()
        for mode in range(1, self.modes + 1):
            field = analytic_heat_profile(self.size["nx"], mode=mode)
            self.digests[f"mode_{mode}"] = job_digest(
                heat1d_reference(field, self.size["steps"], heat)
            )
        self.plan = self._plan(self.size["waves"])
        with self.tracer.span("warmup"):
            self.warm_failed = self._session(self.plan[:1])[2]
        self.submit_growth.clear()

    def check_setup(self) -> None:
        if self.warm_failed:
            self.problems.append(f"{self.name}: a warm-up job failed")

    def _session(self, plan) -> tuple[list[tuple[float, float]], list[float], int]:
        """One session: ``(segments, op walls, failed ops)``.  The
        segments are the open, every wave, and the close-replay-verify
        tail; wave ``k`` of one session is like wave ``k`` of the next
        (same store size), which is what makes them comparable."""
        span = self.tracer.span
        shutil.rmtree(self.root, ignore_errors=True)
        self.root = next(self._roots)
        jobs = sum(len(wave) for wave in plan)
        segments, walls, failed = [], [], 0
        submit_wall: dict[str, float] = {}
        cpu_mark, mark = process_time(), perf_counter()

        def segment_ends() -> None:
            nonlocal cpu_mark, mark
            cpu_now, now = process_time(), perf_counter()
            segments.append((now - mark, cpu_now - cpu_mark))
            cpu_mark, mark = cpu_now, now

        with span("service.open"):
            svc = JobService(self.root, policy=self.policy)
        for tenant, weight in self.tenants:
            svc.set_quota(tenant, TenantQuota(weight=weight))
        segment_ends()
        for wave in plan:
            for tenant, params in wave:
                start = perf_counter()
                with span("service.submit"):
                    job, _created = svc.submit(tenant, "stencil1d", params)
                submit_wall[job.job_id] = perf_counter() - start
            for _ in wave:
                start = perf_counter()
                try:
                    with span("service.claim"):
                        job, _lease = svc.claim(self.worker)
                    with span("service.start"):
                        svc.start(job.job_id, self.worker)
                    flavour = "distributed" if job.params["distributed"] else "local"
                    with span(f"executor.{flavour}"):
                        result = svc.runner.run(svc.store.get(job.job_id))
                    with span("service.complete"):
                        job = svc.complete(job.job_id, self.worker, result)
                except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                    failed += 1
                    self.problems.append(f"{self.name}: job raised {type(exc).__name__}: {exc}")
                    continue
                # One op = the service's own work for one job; the wait
                # behind the rest of its wave depends on the seed's mix.
                walls.append(submit_wall[job.job_id] + perf_counter() - start)
                want = self.digests[f"mode_{job.params['mode']}"]
                if job.state.value != "done" or result["digest"] != want:
                    failed += 1
            segment_ends()
        svc.close()
        with span("service.replay"):
            svc = JobService(self.root, policy=self.policy)
        done = len(svc.list_jobs(state="done"))
        svc.close()
        segment_ends()
        if done != jobs:
            failed += abs(jobs - done)
            self.problems.append(f"{self.name}: {done} of {jobs} jobs done after replay")
        # submit() scans the whole store, so it slows as a session fills.
        submits = list(submit_wall.values())
        edge = max(1, min(50, len(submits) // 4))
        self.submit_growth.append(
            statistics.median(submits[-edge:]) / statistics.median(submits[:edge])
        )
        return segments, walls, failed

    def run_round(self) -> tuple[list[tuple[float, float]], list[float], int]:
        return self._session(self.plan)

    def after_round(self, index: int) -> None:
        """Untimed: the replayed journal holds exactly one terminal
        transition per job."""
        path = os.path.join(self.root, "jobs.journal")
        records, torn = read_journal(path)
        terminal = sum(
            1
            for record in records
            if record.get("op") == "transition"
            and record.get("to") in ("done", "failed", "cancelled")
        )
        if torn or terminal != self.ops_per_round:
            self.problems.append(
                f"{self.name}: journal has {terminal} terminal transitions "
                f"for {self.ops_per_round} jobs"
            )
        self.journal_records = len(records)
        self.journal_bytes = os.path.getsize(path)

    def teardown(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Heat1DFine, Jacobi2DCoarse, Jacobi2DMp, ServiceJobs)}
