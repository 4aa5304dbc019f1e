"""Fleet transport fault injection and wire-format fuzzing.

The contract battery (``tests/test_executor_contract.py``) certifies
that :class:`FleetExecutor` streams like every other executor when
nothing goes wrong.  This suite certifies what the socket transport
adds on top:

- the length-prefixed JSON framing survives arbitrarily fragmented
  reads and fails loudly (``FrameError``) on truncated, corrupt, or
  non-object frames — never hangs, never mistakes damage for data;
- a SIGKILLed worker's lease is re-issued and the final report is
  byte-identical to a serial run;
- a SIGKILLed *coordinator* resumes from the checkpoint journal into a
  byte-identical report;
- a zombie worker (silent past the lease timeout) loses its lease, and
  its late/duplicate results are rejected by at-most-once acceptance;
- a peer that sends garbage frames is dropped and re-leased around —
  one bad peer never wedges the stream;
- a launcher that cannot keep workers alive exhausts the respawn
  budget into a loud ``FleetError`` instead of a wedge;
- warm-state counters are aggregated per coordinator-named worker, so
  two workers reporting the same pid still count as two.
"""

import multiprocessing
import os
import queue
import random
import signal
import socket
import struct
import threading
import time

import pytest

from repro.chip import ComponentChip
from repro.core.report import format_table2
from repro.orchestrate import (
    CampaignCheckpoint, CampaignOrchestrator, CompiledProblemStore,
    EngineConfig, FleetExecutor, LocalFleetLauncher,
    ModuleAffinityScheduling, SerialExecutor, SshFleetLauncher,
    decode_job_result, encode_job_result, parse_launcher_spec,
    plan_campaign, run_check_job,
)
from repro.orchestrate.config import CampaignConfig
from repro.orchestrate.fleet import (
    FleetError, FrameError, MAX_FRAME_BYTES, jobs_from_config,
    recv_frame, send_frame,
)

#: jobs in the tiny two-module plan (asserted in the fixture)
TOTAL_JOBS = 17


def _engines(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


@pytest.fixture(scope="module")
def tiny_blocks():
    """Two modules, one seeded defect — PASS and FAIL mixed, so
    counterexample frames cross the socket in every scenario."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def tiny_plan(tiny_blocks):
    plan = plan_campaign(tiny_blocks, _engines())
    assert len(plan.jobs) == TOTAL_JOBS
    return plan


def _outcome(job_result):
    return (job_result.index, job_result.qualified_name,
            job_result.result.status, job_result.result.engine,
            job_result.result.depth)


@pytest.fixture(scope="module")
def serial_results(tiny_plan):
    return list(SerialExecutor().map(tiny_plan.jobs))


@pytest.fixture(scope="module")
def serial_outcomes(serial_results):
    return [_outcome(r) for r in serial_results]


@pytest.fixture(scope="module")
def reference(tiny_blocks):
    """The uninterrupted serial report every faulted fleet run must
    still reproduce byte-for-byte."""
    return CampaignOrchestrator(tiny_blocks, engines=_engines()).run()


# ----------------------------------------------------------------------
# framing: fragmented reads, truncation, corruption, fuzz
# ----------------------------------------------------------------------

class _ChunkSocket:
    """In-memory stream stub: ``sendall`` appends to a buffer,
    ``recv`` returns it back in deliberately tiny (optionally
    randomized) chunks, then a clean EOF — the worst-case fragmented
    TCP peer, deterministic and threadless."""

    def __init__(self, rng=None, max_chunk=7):
        self.buffer = bytearray()
        self.rng = rng
        self.max_chunk = max_chunk

    def sendall(self, data):
        self.buffer.extend(data)

    def feed(self, data):
        self.buffer.extend(data)

    def recv(self, limit):
        if not self.buffer:
            return b""
        take = self.max_chunk if self.rng is None \
            else self.rng.randint(1, self.max_chunk)
        take = min(take, limit, len(self.buffer))
        out = bytes(self.buffer[:take])
        del self.buffer[:take]
        return out


def _random_payload(rng, depth=0):
    kinds = ["int", "float", "str", "bool", "null"]
    if depth < 2:
        kinds += ["list", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-10**9, 10**9)
    if kind == "float":
        return rng.randint(-10**6, 10**6) / 128.0
    if kind == "str":
        alphabet = "abc é☃世界\"\\\n"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 12)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "list":
        return [_random_payload(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    return {f"k{i}": _random_payload(rng, depth + 1)
            for i in range(rng.randint(0, 4))}


class TestFraming:
    def test_roundtrip_byte_at_a_time(self):
        sock = _ChunkSocket(max_chunk=1)
        payload = {"type": "hello", "worker": "w0", "pid": 123,
                   "token": "t" * 32}
        send_frame(sock, payload)
        assert recv_frame(sock) == payload
        assert recv_frame(sock) is None  # clean EOF at frame boundary

    def test_job_specs_roundtrip_fragmented(self, tiny_plan):
        rng = random.Random(11)
        sock = _ChunkSocket(rng=rng)
        for job in tiny_plan.jobs:
            send_frame(sock, {"type": "lease", "lease": 0,
                              "jobs": [job.spec()]})
        for job in tiny_plan.jobs:
            frame = recv_frame(sock)
            assert frame["jobs"] == [job.spec()]
            assert frame["jobs"][0]["fingerprint"] == job.fingerprint
        assert recv_frame(sock) is None

    def test_fail_results_roundtrip_fragmented(self, tiny_plan,
                                               serial_results):
        """FAIL replies — counterexample trace and all — must survive
        the worst-case fragmented read and still replay on decode."""
        fails = [r for r in serial_results if r.result.status == "fail"]
        assert fails, "fixture must produce at least one FAIL"
        rng = random.Random(13)
        for job_result in fails:
            job = tiny_plan.jobs[job_result.index]
            sock = _ChunkSocket(rng=rng)
            send_frame(sock, {"type": "result", "index": job.index,
                              "result": encode_job_result(job_result)})
            frame = recv_frame(sock)
            decoded = decode_job_result(frame["result"], job,
                                        CompiledProblemStore())
            assert _outcome(decoded) == _outcome(job_result)
            assert decoded.result.trace is not None
            assert decoded.result.trace.replay()

    def test_truncated_frame_raises_at_every_cut(self):
        whole = _ChunkSocket()
        send_frame(whole, {"k": "truncation probe", "n": [1, 2, 3]})
        wire = bytes(whole.buffer)
        for cut in range(1, len(wire)):
            sock = _ChunkSocket(max_chunk=3)
            sock.feed(wire[:cut])
            with pytest.raises(FrameError, match="truncated"):
                recv_frame(sock)

    def test_zero_length_prefix_raises(self):
        sock = _ChunkSocket()
        sock.feed(struct.pack(">I", 0))
        with pytest.raises(FrameError, match="invalid frame length"):
            recv_frame(sock)

    def test_absurd_length_prefix_raises(self):
        sock = _ChunkSocket()
        sock.feed(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(FrameError, match="invalid frame length"):
            recv_frame(sock)

    def test_invalid_utf8_body_raises(self):
        sock = _ChunkSocket()
        sock.feed(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")
        with pytest.raises(FrameError, match="undecodable"):
            recv_frame(sock)

    def test_non_object_payload_raises(self):
        sock = _ChunkSocket()
        body = b"[1,2]"
        sock.feed(struct.pack(">I", len(body)) + body)
        with pytest.raises(FrameError, match="must be an object"):
            recv_frame(sock)

    def test_unsendable_payload_raises(self):
        with pytest.raises(FrameError, match="not JSON-able"):
            send_frame(_ChunkSocket(), {"bad": {1, 2}})

    def test_oversize_payload_raises(self):
        with pytest.raises(FrameError, match="exceeds"):
            send_frame(_ChunkSocket(),
                       {"pad": "x" * (MAX_FRAME_BYTES + 1)})

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzz_payloads_roundtrip(self, seed):
        rng = random.Random(seed)
        sock = _ChunkSocket(rng=rng)
        payloads = [{"p": _random_payload(rng)} for _ in range(25)]
        for payload in payloads:
            send_frame(sock, payload)
        for payload in payloads:
            assert recv_frame(sock) == payload
        assert recv_frame(sock) is None

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_fuzz_junk_bytes_never_hang_or_pass_as_data(self, seed):
        """Random wire garbage must terminate promptly in FrameError
        (or clean EOF) — never block, never decode into a frame."""
        rng = random.Random(seed)
        for _ in range(50):
            sock = _ChunkSocket(rng=rng)
            sock.feed(bytes(rng.randrange(256)
                            for _ in range(rng.randint(0, 64))))
            try:
                frame = recv_frame(sock)
            except FrameError:
                continue
            assert frame is None or isinstance(frame, dict)


# ----------------------------------------------------------------------
# launchers and the replan path
# ----------------------------------------------------------------------

class TestLaunchers:
    def test_ssh_command_argv(self):
        launcher = SshFleetLauncher(("hostA", "hostB"),
                                    config_path="cfg.toml")
        argv = launcher.command("hostA", "w0", ("0.0.0.0", 5555), "tok")
        assert argv == ("ssh", "hostA",
                        "python3", "-m", "repro", "fleet", "worker",
                        "--config", "cfg.toml",
                        "--connect", "0.0.0.0:5555",
                        "--worker-id", "w0",
                        "--token", "tok")

    def test_ssh_connect_host_override(self):
        launcher = SshFleetLauncher(("h",),
                                    connect_host="coord.example")
        argv = launcher.command("h", "w1", ("0.0.0.0", 1234), "t")
        assert "--connect" in argv
        assert argv[argv.index("--connect") + 1] == "coord.example:1234"

    def test_ssh_round_robin_hosts(self, monkeypatch):
        launched = []
        import repro.orchestrate.fleet as fleet_module
        monkeypatch.setattr(
            fleet_module.subprocess, "Popen",
            lambda argv: launched.append(argv) or object(),
        )
        launcher = SshFleetLauncher(("a", "b"))
        for worker_id in ("w0", "w1", "w2"):
            launcher.launch(worker_id, ("127.0.0.1", 1), "t", {}, None)
        assert [argv[1] for argv in launched] == ["a", "b", "a"]

    def test_ssh_requires_hosts(self):
        with pytest.raises(ValueError, match="at least one host"):
            SshFleetLauncher(())

    def test_parse_launcher_spec(self):
        assert isinstance(parse_launcher_spec("local"),
                          LocalFleetLauncher)
        ssh = parse_launcher_spec("ssh:a, b", config_path="x.toml")
        assert isinstance(ssh, SshFleetLauncher)
        assert ssh.hosts == ("a", "b")
        assert ssh.config_path == "x.toml"

    @pytest.mark.parametrize("bad", ["", "ssh", "ssh:", "rsh:a",
                                     "local:extra"])
    def test_parse_launcher_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_launcher_spec(bad)

    def test_replan_from_config_is_deterministic(self):
        """The ssh-worker path: planning from the config twice must
        give identical indices and fingerprints (the coordinator's
        lease specs match a remote replan by construction)."""
        config = CampaignConfig(blocks=["C"])
        first = jobs_from_config(config)
        second = jobs_from_config(config)
        assert len(first) > 0
        assert [j.index for j in first] == list(range(len(first)))
        assert [j.fingerprint for j in first] == \
            [j.fingerprint for j in second]


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

class TrackingLauncher(LocalFleetLauncher):
    """Local launcher that keeps every process handle so the test can
    land a SIGKILL on a real worker pid."""

    def __init__(self):
        self.handles = []

    def launch(self, worker_id, address, token, settings, jobs):
        handle = super().launch(worker_id, address, token, settings,
                                jobs)
        self.handles.append(handle)
        return handle


class _ScriptedWorker(threading.Thread):
    """In-process fake worker: speaks just enough protocol (hello with
    the real token, accept one lease) to misbehave on cue."""

    def __init__(self, worker_id, address, token, script):
        super().__init__(daemon=True)
        self.worker_id = worker_id
        self.address = address
        self.token = token
        self.script = script
        self.lease_frame = None
        self.leased = threading.Event()
        self.go = threading.Event()
        self.sent = threading.Event()
        self._aborted = threading.Event()
        self.sock = None

    def run(self):
        try:
            self.sock = socket.create_connection(self.address,
                                                 timeout=10.0)
            self.sock.settimeout(60.0)
            send_frame(self.sock, {"type": "hello",
                                   "worker": self.worker_id,
                                   "pid": 0, "token": self.token})
            frame = recv_frame(self.sock)
            if frame is not None and frame.get("type") == "lease":
                self.lease_frame = frame
                self.leased.set()
                self.script(self)
            # hold the connection open (a zombie's socket survives its
            # lease) until the launcher tears us down
            self._aborted.wait(60.0)
        except (OSError, FrameError):
            pass
        finally:
            if self.sock is not None:
                try:
                    self.sock.close()
                except OSError:
                    pass

    def abort(self):
        self._aborted.set()
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass


class ScriptedFirstLauncher(LocalFleetLauncher):
    """First launch is the scripted fake; every later launch is a real
    forked worker, so the campaign always finishes."""

    def __init__(self, script):
        self.script = script
        self.fake = None

    def launch(self, worker_id, address, token, settings, jobs):
        if self.fake is None:
            self.fake = _ScriptedWorker(worker_id, address, token,
                                        self.script)
            self.fake.start()
            return self.fake
        return super().launch(worker_id, address, token, settings,
                              jobs)

    def alive(self, handle):
        return handle.is_alive()

    def stop(self, handle):
        if isinstance(handle, _ScriptedWorker):
            handle.abort()
        else:
            super().stop(handle)

    def join(self, handle, timeout=None):
        handle.join(timeout)


class _DeadHandle:
    def is_alive(self):
        return False


class StillbornLauncher:
    """Launcher whose workers are dead on arrival — the no-wedge path
    must burn the respawn budget and then raise."""

    name = "stillborn"

    def launch(self, worker_id, address, token, settings, jobs):
        return _DeadHandle()

    def alive(self, handle):
        return False

    def stop(self, handle):
        pass

    def join(self, handle, timeout=None):
        pass


class _SamePidWorker(threading.Thread):
    """In-process fake worker that serves its leases for real but
    reports the same pid as its sibling (workers on two hosts can) and
    a canned warm snapshot: the running count of jobs it served."""

    PID = 4242

    def __init__(self, worker_id, address, token, jobs, barrier):
        super().__init__(daemon=True)
        self.worker_id = worker_id
        self.address = address
        self.token = token
        self.jobs = {job.index: job for job in jobs}
        self.barrier = barrier

    def run(self):
        sock = socket.create_connection(self.address, timeout=10.0)
        sock.settimeout(60.0)
        served = 0
        try:
            send_frame(sock, {"type": "hello", "worker": self.worker_id,
                              "pid": self.PID, "token": self.token})
            # both workers join before either answers, so each of them
            # is leased work
            self.barrier.wait(10.0)
            while True:
                frame = recv_frame(sock)
                if frame is None or frame.get("type") == "shutdown":
                    return
                for spec in frame.get("jobs", []):
                    job = self.jobs[spec["index"]]
                    result = encode_job_result(run_check_job(job))
                    served += 1
                    send_frame(sock, {
                        "type": "result", "lease": frame["lease"],
                        "index": job.index,
                        "fingerprint": job.fingerprint,
                        "result": result, "pid": self.PID,
                        "warm": {"compile_store": {"served": served}},
                    })
        except (OSError, FrameError, threading.BrokenBarrierError):
            pass
        finally:
            sock.close()


class SamePidLauncher(LocalFleetLauncher):
    """Every launch is a :class:`_SamePidWorker` thread."""

    def __init__(self):
        self.barrier = threading.Barrier(2)

    def launch(self, worker_id, address, token, settings, jobs):
        worker = _SamePidWorker(worker_id, address, token, jobs,
                                self.barrier)
        worker.start()
        return worker

    def stop(self, handle):
        pass


class TestWarmStats:
    def test_same_pid_workers_counted_apart(self, tiny_plan,
                                            serial_outcomes):
        """Warm snapshots are keyed by the coordinator's worker name,
        not the self-reported pid: two workers reporting one pid are
        two workers, and their counters add up."""
        executor = FleetExecutor(workers=2, launcher=SamePidLauncher(),
                                 max_respawns=0)
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        jobs_per_worker = executor.fleet_stats()["jobs_per_worker"]
        assert len(jobs_per_worker) == 2
        assert all(jobs_per_worker.values())
        warm = executor.warm_stats()
        assert warm["compile_store"] == {"served": TOTAL_JOBS,
                                         "workers": 2}
        assert warm["bdd_workspace"] == warm["sat_workspace"] == {}


class TestWorkerFaults:
    def test_sigkilled_worker_lease_reissued_results_identical(
            self, tiny_plan, serial_outcomes):
        """SIGKILL a worker holding a module-affinity lease after its
        first result: the unanswered jobs must be re-leased and the
        stream must stay identical to serial."""
        launcher = TrackingLauncher()
        executor = FleetExecutor(
            workers=2, launcher=launcher,
            scheduling=ModuleAffinityScheduling(),
            heartbeat_interval=0.1,
        )
        stream = executor.map(tiny_plan.jobs)
        results = [next(stream)]
        os.kill(launcher.handles[0].pid, signal.SIGKILL)
        results.extend(stream)
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["workers_lost"] >= 1
        assert stats["leases_reissued"] >= 1
        assert stats["workers_launched"] >= 3  # the replacement

    def test_sigkilled_worker_report_byte_identical(self, tiny_blocks,
                                                    reference):
        launcher = TrackingLauncher()
        killed = []

        def progress(line):
            if not killed and launcher.handles:
                os.kill(launcher.handles[0].pid, signal.SIGKILL)
                killed.append(True)

        report = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=FleetExecutor(
                workers=2, launcher=launcher,
                scheduling=ModuleAffinityScheduling(),
                heartbeat_interval=0.1,
            ),
        ).run(progress=progress)
        assert killed
        assert report.canonical_bytes() == reference.canonical_bytes()
        assert report.stats["fleet"]["workers_lost"] >= 1

    def test_zombie_lease_revoked_and_late_results_rejected(
            self, tiny_plan, serial_outcomes):
        """A worker that takes a lease and then goes silent past the
        lease timeout loses the lease; the late result it finally sends
        — and the duplicate after it — are rejected, and the fleet's
        answers still match serial exactly."""

        def zombie(worker):
            # silence: no heartbeats, no results, until the test has
            # watched the lease be revoked and re-served
            if not worker.go.wait(30.0):
                return
            lease = worker.lease_frame
            spec = lease["jobs"][0]
            late = {"type": "result", "lease": lease["lease"],
                    "index": spec["index"],
                    "fingerprint": spec["fingerprint"],
                    "result": {"bogus": True}, "pid": 0}
            send_frame(worker.sock, late)
            send_frame(worker.sock, late)  # and a duplicate
            worker.sent.set()

        launcher = ScriptedFirstLauncher(zombie)
        executor = FleetExecutor(
            workers=2, launcher=launcher,
            scheduling=ModuleAffinityScheduling(),
            lease_timeout=1.5, heartbeat_interval=0.2,
        )
        stream = executor.map(tiny_plan.jobs)
        # consuming all but the last result forces the zombie's unit
        # through revocation + re-lease (the fake never answers)
        results = [next(stream) for _ in range(TOTAL_JOBS - 1)]
        assert launcher.fake.leased.is_set()
        run = executor._run
        assert run.stats["leases_reissued"] >= 1
        launcher.fake.go.set()
        assert launcher.fake.sent.wait(10.0)
        # pump the event queue (consumer-thread discipline: the
        # generator is parked between next() calls) until both late
        # frames have been seen and rejected
        deadline = time.monotonic() + 10.0
        while run.stats["results_rejected"] < 2 \
                and time.monotonic() < deadline:
            try:
                event = run.events.get(timeout=0.05)
            except queue.Empty:
                continue
            run._handle(event)
        results.extend(stream)
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["results_rejected"] >= 2
        assert stats["leases_reissued"] >= 1
        assert stats["workers_lost"] >= 1

    def test_garbage_frames_drop_peer_without_wedging(
            self, tiny_plan, serial_outcomes):
        """A peer that answers its lease with wire garbage is dropped
        (FrameError at the reader), its lease re-issued, and the
        campaign completes untouched."""

        def garbage(worker):
            worker.sock.sendall(struct.pack(">I", 9) + b"not json!")
            worker.sent.set()

        launcher = ScriptedFirstLauncher(garbage)
        executor = FleetExecutor(
            workers=2, launcher=launcher,
            scheduling=ModuleAffinityScheduling(),
            heartbeat_interval=0.1,
        )
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["workers_lost"] >= 1
        assert stats["leases_reissued"] >= 1

    def test_stray_connection_never_joins_the_fleet(self, tiny_plan,
                                                    serial_outcomes):
        """A connection that cannot present the run token must never be
        leased or counted — port knowledge alone buys nothing."""
        executor = FleetExecutor(workers=2, heartbeat_interval=0.1)
        stream = executor.map(tiny_plan.jobs)
        results = [next(stream)]
        run = executor._run
        sock = socket.create_connection(run.address, timeout=5.0)
        try:
            send_frame(sock, {"type": "hello", "worker": "intruder",
                              "pid": 0, "token": "wrong-token"})
            # pump events on the consumer thread (the generator is
            # parked between next() calls) until the coordinator has
            # processed our bogus hello and hung up
            sock.settimeout(0.05)
            deadline = time.monotonic() + 10.0
            hung_up = False
            while not hung_up and time.monotonic() < deadline:
                try:
                    run._handle(run.events.get_nowait())
                except queue.Empty:
                    pass
                try:
                    hung_up = sock.recv(1) == b""
                except socket.timeout:
                    continue
                except OSError:
                    hung_up = True
            assert hung_up, "coordinator never dropped the stray"
            results.extend(stream)
        finally:
            sock.close()
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert "intruder" not in stats["jobs_per_worker"]

    def test_all_workers_lost_raises_instead_of_wedging(self,
                                                        tiny_plan):
        executor = FleetExecutor(
            workers=2, launcher=StillbornLauncher(),
            max_respawns=1, lease_timeout=1.0,
        )
        with pytest.raises(FleetError, match="respawn budget"):
            list(executor.map(tiny_plan.jobs))


def _fleet_campaign(blocks, journal_path):
    """Child-process campaign on a 2-worker fleet, throttled so the
    parent can land a SIGKILL mid-stream."""
    CampaignOrchestrator(
        blocks, engines=_engines(),
        executor=FleetExecutor(workers=2, heartbeat_interval=0.1),
        checkpoint=CampaignCheckpoint(journal_path),
    ).run(progress=lambda line: time.sleep(0.03))


class TestCoordinatorKill:
    def test_sigkilled_coordinator_resumes_byte_identical(
            self, tiny_blocks, reference, tmp_path):
        """SIGKILL the whole coordinator process mid-campaign, then
        resume from the journal — on a fresh fleet — into a report
        byte-identical to the uninterrupted serial run."""
        journal = tmp_path / "journal.jsonl"
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_fleet_campaign,
                                args=(tiny_blocks, str(journal)))
        child.start()
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal.exists() and \
                        len(journal.read_text().splitlines()) >= 6:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("child fleet campaign never journaled "
                            "5 entries")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join()
        resumed = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=FleetExecutor(workers=2, heartbeat_interval=0.1),
            checkpoint=CampaignCheckpoint(journal),
        ).run(resume=True)
        replayed = resumed.stats["journal_replayed"]
        assert 0 < replayed < TOTAL_JOBS
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        assert format_table2(resumed) == format_table2(reference)
