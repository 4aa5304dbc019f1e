"""Shared BDD workspaces: manager reuse must never change a verdict.

Covers the workspace pool itself (lease/reuse/eviction/memo policies),
manager-level soundness (clear_memos, budget exhaustion mid-operation),
engine wiring (``EngineOptions.workspace``), and the campaign-level
contract: byte-identical ``CampaignReport.canonical_bytes`` with
sharing on or off, across all three executors.
"""

import pytest

from repro.chip import ComponentChip
from repro.formal.bdd import Bdd, nodes_created_total
from repro.formal.budget import BudgetExceeded, ResourceBudget
from repro.formal.engine import (
    EngineOptions, ModelChecker, PASS, TIMEOUT,
)
from repro.formal.workspace import BddWorkspace, WorkspaceBinding
from repro.orchestrate import (
    CampaignOrchestrator, EngineConfig, ParallelExecutor, SerialExecutor,
    WarmSpec, WarmState, WorkStealingExecutor, plan_campaign,
    run_check_job,
)


def _bdd_engines(**overrides):
    overrides.setdefault("method", "bdd-combined")
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


@pytest.fixture(scope="module")
def small_blocks():
    """First four modules of block C — enough structure, fast checks."""
    chip = ComponentChip(only_blocks=["C"])
    return [("C", chip.blocks[0][1][:4])]


@pytest.fixture(scope="module")
def cold_report(small_blocks):
    """Reference outcome with sharing explicitly off — campaigns now
    default to ``share_bdd=True``, and these tests are exactly the
    cold-vs-shared comparison, so the cold side must opt out."""
    return CampaignOrchestrator(
        small_blocks, engines=_bdd_engines(),
        executor=SerialExecutor(),
    ).run()


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------

class TestWorkspacePool:
    def test_lease_creates_then_reuses(self):
        ws = BddWorkspace()
        first = ws.lease("m1")
        assert ws.lease("m1") is first
        assert ws.lease("m2") is not first
        stats = ws.stats()
        assert stats["leases"] == 3
        assert stats["reuses"] == 1
        assert stats["managers"] == 2

    def test_bind_scopes_to_one_key(self):
        ws = BddWorkspace()
        binding = ws.bind("m1")
        assert isinstance(binding, WorkspaceBinding)
        assert binding.lease() is ws.lease("m1")

    def test_lease_rearms_budget(self):
        ws = BddWorkspace()
        first_budget = ResourceBudget(bdd_nodes=100)
        manager = ws.lease("m1", first_budget)
        assert manager.budget is first_budget
        second_budget = ResourceBudget(bdd_nodes=200)
        assert ws.lease("m1", second_budget).budget is second_budget
        assert ws.lease("m1").budget is None  # disarmed

    def test_lru_eviction_at_capacity(self):
        ws = BddWorkspace(max_managers=2)
        a = ws.lease("a")
        ws.lease("b")
        ws.lease("a")            # refresh a: b is now least recent
        ws.lease("c")            # evicts b
        assert ws.manager("b") is None
        assert ws.manager("a") is a
        assert ws.stats()["evictions"] == 1

    def test_retain_memos_false_clears_between_leases(self):
        ws = BddWorkspace(retain_memos=False)
        manager = ws.lease("m")
        x, y = manager.var_node(0), manager.var_node(1)
        manager.and_(x, y)
        assert manager._ite_memo
        assert ws.lease("m") is manager
        assert not manager._ite_memo

    def test_oversize_manager_discarded(self):
        ws = BddWorkspace(max_manager_nodes=4)
        manager = ws.lease("m")
        for var in range(6):
            manager.var_node(var)
        fresh = ws.lease("m")
        assert fresh is not manager
        assert ws.stats()["oversize_discards"] == 1

    def test_discard_and_clear_memos(self):
        ws = BddWorkspace()
        manager = ws.lease("m")
        manager.and_(manager.var_node(0), manager.var_node(1))
        ws.clear_memos("m")
        assert not manager._ite_memo
        ws.discard("m")
        assert ws.manager("m") is None
        assert ws.lease("m") is not manager

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            BddWorkspace(max_managers=0)
        with pytest.raises(ValueError):
            BddWorkspace(max_manager_nodes=1)


# ----------------------------------------------------------------------
# manager-level soundness
# ----------------------------------------------------------------------

class TestManagerReuse:
    def test_clear_memos_keeps_node_table_sound(self):
        """Recomputing cleared operations rebuilds no nodes and returns
        the same canonical results."""
        manager = Bdd()
        x, y, z = (manager.var_node(v) for v in range(3))
        before = [manager.ite(x, y, z),
                  manager.and_exists(x, manager.or_(y, z), frozenset([1])),
                  manager.exists(manager.xor_(x, y), frozenset([0]))]
        table_size = manager.num_nodes()
        manager.clear_memos()
        after = [manager.ite(x, y, z),
                 manager.and_exists(x, manager.or_(y, z), frozenset([1])),
                 manager.exists(manager.xor_(x, y), frozenset([0]))]
        assert before == after
        assert manager.num_nodes() == table_size  # all hash-cons hits

    def test_budget_exhaustion_leaves_manager_consistent(self):
        """A BudgetExceeded mid-operation must not poison the table:
        the next problem (fresh budget) computes correct results."""
        manager = Bdd(ResourceBudget(bdd_nodes=5))
        variables = [manager.var_node(v) for v in range(3)]
        with pytest.raises(BudgetExceeded):
            for _ in range(10):
                acc = manager.var_node(0)
                for v in range(1, 8):
                    acc = manager.xor_(acc, manager.var_node(v))
        manager.rearm(ResourceBudget(bdd_nodes=1_000_000))
        x, y = variables[0], variables[1]
        reference = Bdd()
        rx, ry = reference.var_node(0), reference.var_node(1)
        # same structure ⇒ same truth assignments on both managers
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assignment = {0: bits[0], 1: bits[1]}
            assert (manager.eval(manager.xor_(x, y), assignment)
                    == reference.eval(reference.xor_(rx, ry), assignment))

    def test_supplied_manager_disarmed_without_budget(self, small_blocks):
        """SymbolicModel(bdd=manager) with no budget must disarm the
        manager — a spent budget from its previous problem would
        otherwise trip a 'check' that was given no budget at all."""
        from repro.formal.reachability import SymbolicModel
        from repro.orchestrate import compile_job
        plan = plan_campaign(small_blocks, _bdd_engines())
        ts = compile_job(plan.jobs[0])
        manager = Bdd(ResourceBudget(bdd_nodes=10))
        with pytest.raises(BudgetExceeded):
            SymbolicModel(ts, budget=manager.budget, bdd=manager)
        model = SymbolicModel(ts, bdd=manager)  # no budget: disarmed
        assert manager.budget is None
        assert model.bdd is manager

    def test_warmed_manager_charges_less_budget(self, small_blocks):
        """The second identical problem on a shared manager creates
        (and is charged for) strictly fewer nodes."""
        plan = plan_campaign(small_blocks, _bdd_engines())
        job = plan.jobs[0]
        from repro.orchestrate import compile_job
        ts = compile_job(job)
        ws = BddWorkspace()
        cold_budget = ResourceBudget(bdd_nodes=5_000_000)
        checker = ModelChecker(ts, budget=cold_budget)
        options = EngineOptions(workspace=ws.bind("m"))
        first = checker.check(method="bdd-combined", options=options)
        warm_budget = ResourceBudget(bdd_nodes=5_000_000)
        checker = ModelChecker(ts, budget=warm_budget)
        second = checker.check(method="bdd-combined", options=options)
        assert first.status == second.status
        assert first.depth == second.depth
        assert warm_budget.spent_nodes < cold_budget.spent_nodes
        assert ws.stats()["reuses"] == 1


# ----------------------------------------------------------------------
# engine and job wiring
# ----------------------------------------------------------------------

class TestEngineWiring:
    @pytest.mark.parametrize("method", ["bdd-forward", "bdd-backward",
                                        "bdd-combined", "pobdd", "auto"])
    def test_shared_verdict_matches_cold(self, small_blocks, method):
        plan = plan_campaign(small_blocks, _bdd_engines(method=method))
        from repro.orchestrate import compile_job
        job = plan.jobs[0]
        ts = compile_job(job)
        budget = ResourceBudget(bdd_nodes=5_000_000,
                                sat_conflicts=500_000)
        cold = ModelChecker(ts, budget=budget).check(method=method)
        ws = BddWorkspace()
        shared = ModelChecker(
            ts, budget=ResourceBudget(bdd_nodes=5_000_000,
                                      sat_conflicts=500_000)
        ).check(method=method,
                options=EngineOptions(workspace=ws.bind(job.workspace_key)))
        assert (cold.status, cold.depth) == (shared.status, shared.depth)

    def test_workspace_excluded_from_fingerprints(self):
        config = EngineConfig(method="bdd-combined")
        assert "workspace" not in config.describe()
        # and the options slice carries no workspace at plan level
        assert config.options().workspace is None

    def test_run_check_job_binds_module_key(self, small_blocks):
        plan = plan_campaign(small_blocks, _bdd_engines())
        ws = BddWorkspace()
        first_module = plan.jobs[0].workspace_key
        same_module = [job for job in plan.jobs
                       if job.workspace_key == first_module]
        assert len(same_module) > 1
        for job in same_module:
            run_check_job(job, workspace=ws)
        stats = ws.stats()
        assert stats["managers"] == 1
        assert stats["reuses"] == len(same_module) - 1

    def test_portfolio_stages_share_one_manager(self, small_blocks):
        """TIMEOUT in a starved stage must not poison the generous
        stage leasing the same manager — the definitive verdict wins
        and matches the cold run."""
        starved_then_fed = (
            EngineConfig(method="bdd-combined", bdd_nodes=50),
            EngineConfig(method="bdd-combined", bdd_nodes=5_000_000),
        )
        plan = plan_campaign(small_blocks, starved_then_fed)
        job = plan.jobs[0]
        ws = BddWorkspace()
        shared = run_check_job(job, workspace=ws).result
        cold = run_check_job(job).result
        attempts = [a["status"] for a in shared.stats["portfolio"]]
        assert attempts[0] == TIMEOUT
        assert shared.status == cold.status == PASS
        assert shared.depth == cold.depth
        assert ws.stats()["reuses"] >= 1  # stage 2 reused stage 1's table

    def test_planner_module_groups_contiguous(self, small_blocks):
        plan = plan_campaign(small_blocks, _bdd_engines())
        groups = plan.module_groups()
        assert sum(len(indices) for indices in groups.values()) \
            == plan.total_jobs
        for indices in groups.values():
            assert indices == list(range(indices[0],
                                         indices[0] + len(indices)))


# ----------------------------------------------------------------------
# campaign-level contract
# ----------------------------------------------------------------------

class TestCampaignSharing:
    def test_serial_sharing_fewer_nodes_same_bytes(self, small_blocks,
                                                   cold_report):
        before = nodes_created_total()
        cold_again = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(),
            executor=SerialExecutor()).run()
        cold_nodes = nodes_created_total() - before
        ws = BddWorkspace()
        before = nodes_created_total()
        shared = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(),
            executor=SerialExecutor(state=WarmState(bdd=ws))).run()
        shared_nodes = nodes_created_total() - before
        assert shared.canonical_bytes() == cold_report.canonical_bytes()
        assert cold_again.canonical_bytes() == cold_report.canonical_bytes()
        assert shared_nodes < cold_nodes
        assert ws.stats()["reuses"] > 0

    @pytest.mark.parametrize("make_executor", [
        lambda: SerialExecutor(warm=WarmSpec(bdd={})),
        lambda: ParallelExecutor(processes=2, warm=WarmSpec(bdd={})),
        lambda: WorkStealingExecutor(processes=2, warm=WarmSpec(bdd={})),
    ], ids=["serial", "parallel", "work-stealing"])
    def test_byte_identical_across_executors(self, small_blocks,
                                             cold_report, make_executor):
        report = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(),
            executor=make_executor()).run()
        assert report.canonical_bytes() == cold_report.canonical_bytes()

    def test_starved_job_does_not_poison_next_job(self, small_blocks):
        """A TIMEOUT (budget exhausted mid-build) on a shared manager
        leaves the next job of the same module sound.  Under a
        *binding* node budget the contract is one-sided: a warmed
        manager charges only fresh nodes, so sharing may settle a
        check that TIMEOUTs cold — but never the reverse, and never a
        different PASS/FAIL verdict."""
        starved = (EngineConfig(method="bdd-combined", bdd_nodes=50),)
        cold = CampaignOrchestrator(
            small_blocks, engines=starved,
            executor=SerialExecutor()).run()
        shared = CampaignOrchestrator(
            small_blocks, engines=starved,
            executor=SerialExecutor(warm=WarmSpec(bdd={}))).run()
        statuses = [r.result.status for r in cold.results]
        assert TIMEOUT in statuses  # the starvation is real
        for cold_record, shared_record in zip(cold.results,
                                              shared.results):
            if cold_record.result.status == TIMEOUT:
                continue  # sharing may strengthen TIMEOUT, nothing else
            assert shared_record.result.status \
                == cold_record.result.status

    @pytest.mark.parametrize("make_executor", [
        lambda opts: SerialExecutor(warm=WarmSpec(bdd=opts)),
        lambda opts: ParallelExecutor(processes=2,
                                      warm=WarmSpec(bdd=opts)),
        lambda opts: WorkStealingExecutor(processes=2,
                                          warm=WarmSpec(bdd=opts)),
    ], ids=["serial", "parallel", "work-stealing"])
    def test_workspace_options_reach_workers(self, small_blocks,
                                             cold_report, make_executor):
        """The memory valves are tunable through every executor and
        never change the outcome."""
        options = {"max_managers": 1, "retain_memos": False,
                   "max_manager_nodes": 10_000}
        report = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(),
            executor=make_executor(options)).run()
        assert report.canonical_bytes() == cold_report.canonical_bytes()

    def test_workspace_persists_across_runs(self, small_blocks,
                                            cold_report):
        """An explicit workspace stays warm across campaigns — the
        ECO-rerun case — and reuses managers from run to run."""
        ws = BddWorkspace()
        executor = SerialExecutor(state=WarmState(bdd=ws))
        CampaignOrchestrator(small_blocks, engines=_bdd_engines(),
                             executor=executor).run()
        managers_after_first = ws.stats()["managers"]
        reuses_after_first = ws.stats()["reuses"]
        second = CampaignOrchestrator(small_blocks, engines=_bdd_engines(),
                                      executor=executor).run()
        assert second.canonical_bytes() == cold_report.canonical_bytes()
        assert ws.stats()["managers"] == managers_after_first
        assert ws.stats()["reuses"] > reuses_after_first
