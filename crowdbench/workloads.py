"""The traffic mixes and the run that drives one of them.

A run generates its inputs from the seed, sets the server up (spawn a
fresh server, create the session, post the seeding answers) several
times and keeps the last one, warms up, runs the timed phase, reads, then
crashes the server with SIGKILL and restarts it several times from
identical copies of what it left on disk.  The one client runs a closed
loop with zero think time.  All program access is HTTP and the
``python -m repro.service`` command line.

Every set-up and restart also records host-speed reference durations
(:mod:`crowdbench.reference`) so its time can be scaled: a set-up times
the reference before the spawn and after every tenth seeding post (the
time those take is left out of the set-up time), a restart before the
spawn and once the server listens.
"""

from __future__ import annotations

import copy
import pathlib
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from crowdbench import inputs, stats
from crowdbench.client import Accounting, Client
from crowdbench.reference import reference_seconds
from crowdbench.server import Server

SESSION_ID = "bench"

#: Untimed reads between the scored estimates and the timed read rounds.
SETTLE_READS = 5

#: A set-up times the reference after every this many seeding posts.
SETUP_REFERENCE_EVERY = 10

#: References timed before a restart's spawn, and again once it listens.
RESTART_REFERENCES = 3

#: The reduced EM budget every workload pins (as the scripted scenarios do).
MODEL_BUDGET = {"max_iterations": 6, "m_step_iterations": 10}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    table: str  # "celebrity" | "synthetic"
    rows: int
    columns: int  # synthetic tables only; the celebrity shape has 7
    pool_size: int
    spec: dict  # session spec sections; the envelope adds schema and id
    warmup_hits: int
    timed_hits: int
    read_rounds: int  # post-budget rounds of GET /estimates + /decisions
    tiny_rows: int = 12
    tiny_timed_hits: int = 6

    @property
    def durable(self) -> bool:
        return bool(self.spec.get("durable"))

    def make_table(self, seed: int, tiny: bool) -> inputs.Table:
        rows = self.tiny_rows if tiny else self.rows
        if self.table == "celebrity":
            return inputs.celebrity_table(seed, rows)
        return inputs.synthetic_table(seed, rows, self.columns)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-sync",
            why="EM on the answer path, correlation fit + gains + audit hash on "
                "the select path; storage, async refit and reads idle while timed",
            table="celebrity", rows=174, columns=7, pool_size=60,
            spec={"version": 1, "policy": {"model": dict(MODEL_BUDGET)}},
            warmup_hits=5, timed_hits=180, read_rounds=300,
        ),
        Workload(
            name="large-durable",
            why="WAL appends, snapshots, SIGKILL recovery replay and the async "
                "engine's blocking snapshot path at 1000 x 6; EM on the select path",
            table="synthetic", rows=1000, columns=6, pool_size=100,
            spec={
                "version": 1,
                "policy": {"model": dict(MODEL_BUDGET)},
                # Blocking bound and a tolerance below any 6-iteration gain:
                # every select catches up with the same, data-independent EM
                # work (a positive bound made the refit thread race each
                # post's response for the interpreter lock; see README).
                "serving": {"async_refit": True, "max_stale_answers": 0,
                            "refit_tol": 1e-9},
                "durable": True,
                # Posts carry 6 answers, so snapshots land exactly on the end
                # of seeding (6000) and at 6600, two HITs before the end: the
                # crash leaves the same 12 answers to replay in every run.
                "durability": {"snapshot_every_answers": 600, "wal_fsync": False,
                               "rotate_every_records": 400, "keep_snapshots": 2},
            },
            warmup_hits=2, timed_hits=100, read_rounds=200, tiny_rows=24,
        ),
    )
}


@dataclass
class SessionState:
    """What the client knows about the live session."""

    acknowledged: int = 0
    answered: Dict[str, set] = field(default_factory=dict)
    values: Dict[int, List[float]] = field(default_factory=dict)
    selects: int = 0  # successful selects, one audit record each
    decisions_since: int = 0


class Run:
    """One run of one workload against a freshly spawned server."""

    def __init__(self, workload: Workload, seed: int, workdir: pathlib.Path,
                 tiny: bool = False, trace: bool = False, time_guard: float = 80.0) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.workdir = pathlib.Path(workdir)
        self.tiny = tiny
        self.trace = trace
        self.time_guard = time_guard
        self.table = workload.make_table(seed, tiny)
        self.pool = inputs.WorkerPool.generate(seed, workload.pool_size)
        self.crowd = inputs.Crowd(seed, self.table, self.pool)
        self.seed_batches = inputs.seed_batches(seed, self.crowd)
        self.digest = inputs.inputs_digest(
            self.table, self.pool, self.seed_batches,
            {"workload": workload.name, "spec": workload.spec},
        )
        self.k = self.table.num_columns
        self.accounting = Accounting()
        self.request_log: Optional[list] = [] if trace else None
        self.problems: List[str] = []
        self.servers: List[Server] = []
        self.span_files: Dict[str, pathlib.Path] = {}
        self.state = SessionState()
        self._clients = 0
        self.results: Dict[str, object] = {}

    # -- plumbing ------------------------------------------------------------

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def client(self, server: Server) -> Client:
        self._clients += 1
        return Client(server.base_url, self.accounting, name=f"c{self._clients}",
                      log=self.request_log)

    def spawn(self, label: str, durable_root: pathlib.Path) -> Tuple[Server, float]:
        span_path = None
        if self.trace:
            span_path = self.workdir / f"spans-{label}.json"
            self.span_files[label] = span_path
        server = Server(durable_root, self.workdir / "server.log", span_path)
        self.servers.append(server)
        return server, server.start()

    def crash(self, server: Server) -> None:
        """SIGKILL; a traced server first writes its spans (SIGUSR1)."""
        if server.span_path is not None and server.process.poll() is None:
            server.request_span_dump()
        server.kill()

    def close(self) -> None:
        for server in self.servers:
            server.kill()

    @property
    def base(self) -> str:
        return f"/sessions/{SESSION_ID}"

    # -- phases --------------------------------------------------------------

    def setup(self, index: int) -> Tuple[Server, Client, float, List[float]]:
        """Spawn a server, create the session and post the seeding answers.

        Returns the server, its client, the set-up time in seconds (without
        the reference runs inside it) and the reference durations.
        """
        self.state = SessionState(
            answered={worker: set() for worker in self.pool.ids},
            values={col: [] for col in self.table.continuous_columns},
        )
        references = [reference_seconds()]
        started = time.perf_counter()
        server, _boot = self.spawn("live", self.workdir / f"setup{index}" / "durable")
        client = self.client(server)
        body = copy.deepcopy(self.workload.spec)
        body["schema"] = self.table.schema_payload()
        body["session_id"] = SESSION_ID
        status, reply = client.request("POST", "/sessions", body, phase="setup")
        if status != 201:
            self.problem(f"session create returned {status}: {reply}")
        for number, (worker, items) in enumerate(self.seed_batches, 1):
            self.post_answers(client, worker, items, phase="setup")
            if number % SETUP_REFERENCE_EVERY == 0 and number < len(self.seed_batches):
                references.append(reference_seconds())
        elapsed = time.perf_counter() - started - sum(references[1:])
        if self.state.acknowledged != self.table.num_cells:
            self.problem(
                f"setup: {self.state.acknowledged} of {self.table.num_cells} "
                "seeding answers acknowledged"
            )
        return server, client, elapsed, references

    def post_answers(self, client: Client, worker: str, items: list, phase: str,
                     kind: Optional[str] = None) -> int:
        status, reply = client.request(
            "POST", f"{self.base}/answers", {"worker": worker, "answers": items},
            phase=phase, kind=kind,
        )
        if status != 200:
            return 0
        if reply.get("accepted") != len(items):
            self.problem(f"POST /answers accepted {reply.get('accepted')} of {len(items)}")
        state = self.state
        state.acknowledged += len(items)
        for item in items:
            state.answered[worker].add((item["row"], item["col"]))
            values = state.values.get(item["col"])
            if values is not None:
                values.append(float(item["value"]))
        return len(items)

    def hit(self, client: Client, worker: str, phase: str) -> int:
        """GET /tasks for ``worker`` then POST the answers; returns answers accepted."""
        timed = phase == "timed"
        status, reply = client.request(
            "GET", f"{self.base}/tasks?worker={worker}&k={self.k}",
            phase=phase, kind="select" if timed else None,
        )
        if status != 200:
            return 0
        self.state.selects += 1
        cells = [tuple(cell) for cell in reply.get("cells", [])]
        answered = self.state.answered[worker]
        if not cells or len(cells) > self.k or len(set(cells)) != len(cells):
            self.problem(f"GET /tasks returned {len(cells)} cells for k={self.k}")
        for row, col in cells:
            if not (0 <= row < self.table.num_rows and 0 <= col < self.k):
                self.problem(f"GET /tasks returned out-of-range cell ({row},{col})")
                return 0
            if (row, col) in answered:
                self.problem(f"GET /tasks gave {worker} cell ({row},{col}) it already answered")
        items = [
            {"row": row, "col": col, "value": self.crowd.answer(worker, row, col)}
            for row, col in cells
        ]
        return self.post_answers(client, worker, items, phase, kind="answer" if timed else None)

    def timed(self, server: Server, client: Client, arrivals: inputs.Arrivals,
              hits: int) -> None:
        """The timed phase: ``hits`` HITs in a closed loop."""
        before = self.state.acknowledged
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        for _hit in range(hits):
            if time.perf_counter() - started > self.time_guard:
                self.problem("timed phase exceeded its time guard")
                break
            self.hit(client, arrivals.next(), "timed")
        ended = time.perf_counter()
        self.results["timed_window"] = (started, ended)
        self.results["timed_seconds"] = ended - started
        self.results["timed_answers"] = self.state.acknowledged - before
        self.results["timed_cpu_seconds"] = server.cpu_seconds() - cpu_before

    def reads(self, client: Client) -> dict:
        """Post-budget reads; returns the first (scored) estimates reply.

        The scored read and a few untimed ones come first, so a background
        refit still running from the timed phase ends before the timed
        rounds.  Each round reads the estimates and the newest full page
        of the decision ledger, so every page has the same size.
        """
        status, first = client.request("GET", f"{self.base}/estimates", phase="reads")
        if status != 200:
            self.problem(f"final GET /estimates returned {status}")
            first = {}
        for _settle in range(SETTLE_READS):
            client.request("GET", f"{self.base}/estimates", phase="reads")
        rounds = 3 if self.tiny else self.workload.read_rounds
        for _round in range(rounds):
            client.request("GET", f"{self.base}/estimates", phase="reads", kind="estimates")
            client.request(
                "GET", f"{self.base}/decisions?since={self.state.decisions_since}",
                phase="reads", kind="decisions",
            )
        return first

    # -- the whole run -------------------------------------------------------

    def execute(self, restarts: int, setups: int = 1, read_phase: bool = True,
                timed_hits: Optional[int] = None) -> None:
        """Set up, warm up, run the timed phase, read, crash, restart.

        The server is set up ``setups`` times, each time from scratch; every
        set-up but the last is killed and removed, and the run goes on with
        the last.  ``timed_hits`` shortens the timed phase (the traced run's
        untraced reference pass); without it the workload's own size is used.
        """
        workload = self.workload
        setup_seconds, setup_references = [], []
        for index in range(setups):
            if index:
                server.kill()
                shutil.rmtree(server.durable_root, ignore_errors=True)
            server, client, seconds, references = self.setup(index)
            setup_seconds.append(seconds)
            setup_references.append(references)
        self.results["setup_seconds"] = setup_seconds
        self.results["setup_references"] = setup_references
        arrivals = inputs.Arrivals(self.seed, self.pool, self.pool.ids, stream=1)
        for _hit in range(workload.warmup_hits):
            self.hit(client, arrivals.next(), "warmup")
        if timed_hits is None:
            timed_hits = workload.tiny_timed_hits if self.tiny else workload.timed_hits
        self.timed(server, client, arrivals, timed_hits)
        if not read_phase:
            return
        # The newest full page of the ledger (the default page is 100).
        self.state.decisions_since = max(0, self.state.selects - 100)
        final = self.reads(client)
        self.results["reads_end"] = time.perf_counter()
        self.score(final)
        status, session = client.request("GET", self.base, phase="reads")
        before_kill = {}
        if status == 200:
            before_kill = {
                "answers_collected": session.get("answers_collected"),
                "decision_chain_hash": session.get("decision_chain_hash"),
            }
            if session.get("answers_collected") != self.state.acknowledged:
                self.problem(
                    f"server holds {session.get('answers_collected')} answers, "
                    f"client saw {self.state.acknowledged} acknowledged"
                )
        self.results["peak_rss_mb"] = server.peak_rss_mb()
        self.results["answers_total"] = self.state.acknowledged
        self.crash(server)
        crashed = server.durable_root
        session_dir = crashed / SESSION_ID
        self.results["disk_bytes"] = sum(
            path.stat().st_size for path in session_dir.rglob("*") if path.is_file()
        ) if session_dir.exists() else 0
        if workload.durable and self.results["disk_bytes"] == 0:
            self.problem("the durable session left nothing on disk")
        recover_times, recover_references = [], []
        for index in range(restarts):
            copy_root = self.workdir / f"restart{index}" / "durable"
            shutil.copytree(crashed, copy_root)
            references = [reference_seconds() for _ in range(RESTART_REFERENCES)]
            restarted, seconds = self.spawn(f"restart{index}", copy_root)
            references += [reference_seconds() for _ in range(RESTART_REFERENCES)]
            recover_times.append(seconds)
            recover_references.append(references)
            if workload.durable:
                self.verify_recovery(restarted, before_kill)
            self.crash(restarted)
        self.results["recover_seconds"] = recover_times
        self.results["recover_references"] = recover_references

    def verify_recovery(self, server: Server, before_kill: dict) -> None:
        if SESSION_ID not in server.recovered:
            self.problem("restarted server did not report the session as recovered")
        status, session = self.client(server).request("GET", self.base, phase="recovery")
        if status != 200:
            return
        for key, value in before_kill.items():
            if session.get(key) != value:
                self.problem(f"after recovery {key} is {session.get(key)!r}, "
                             f"before the kill it was {value!r}")

    def score(self, reply: dict) -> None:
        estimates = stats.parse_estimates(reply.get("estimates", {}))
        for problem in stats.estimate_problems(self.table, estimates):
            self.problem(problem)
        if reply.get("answers_collected") != self.state.acknowledged:
            self.problem(
                f"estimates report {reply.get('answers_collected')} answers, "
                f"client saw {self.state.acknowledged} acknowledged"
            )
        self.results["error_rate"] = stats.error_rate(self.table, estimates)
        self.results["mnad"] = stats.mnad(self.table, estimates, self.state.values)


def check_samples(name: str, samples: List[float], q: float) -> Optional[str]:
    """A sizing problem when a percentile has too few samples beyond it."""
    if stats.beyond(len(samples), q) < stats.MIN_BEYOND:
        return (f"{name}: only {stats.beyond(len(samples), q)} of {len(samples)} samples "
                f"beyond p{round(q * 100)}; need {stats.MIN_BEYOND}")
    return None

