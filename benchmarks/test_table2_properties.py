"""Table 2 — number of verified properties (the headline experiment).

Runs the complete formal campaign: all 2047 PSL assertions over the 95
leaf modules of the golden chip (every one must PASS), then attributes
the seven logic bugs by re-checking the defective modules of the
pre-fix chip.  The printed table carries exactly the paper's columns;
the §6.1 batch-feasibility narrative (X1: "about 20 hours on a single
CPU") becomes the measured wall-clock total.  The golden campaign runs
on two work-stealing workers where the machine has two CPUs, with the
default config's warm layers (compile store, BDD and SAT workspaces) in
each worker: block D's k-induction proofs dominate it, and verdicts do
not depend on the executor.
"""

import os

import pytest

from repro.chip import ComponentChip, DEFECTS, TABLE2_BUGS, TABLE2_TARGETS
from repro.core.campaign import FormalCampaign
from repro.core.report import format_status_summary, format_table2
from repro.core.stereotypes import stereotype_vunits
from repro.formal.budget import ResourceBudget
from repro.formal.engine import FAIL, ModelChecker
from repro.orchestrate import CampaignConfig
from repro.psl.compile import compile_assertion



def _budget():
    return ResourceBudget(sat_conflicts=1_000_000, bdd_nodes=10_000_000)


def run_full_campaign():
    chip = ComponentChip.golden()
    config = CampaignConfig(
        executor=f"workstealing:{min(2, os.cpu_count() or 1)}")
    campaign = FormalCampaign(chip.blocks, budget_factory=_budget,
                              config=config)
    return campaign.run()


def attribute_bugs():
    """Check only the defective modules of the pre-fix chip (the rest
    of the chip is identical to the golden run)."""
    chip = ComponentChip.with_all_defects()
    found = {}
    for defect in DEFECTS:
        module = chip.module_named(defect.module_name)
        for unit in stereotype_vunits(module):
            for assert_name, _ in unit.asserted():
                ts = compile_assertion(module, unit, assert_name)
                result = ModelChecker(ts, _budget()).check()
                if result.status == FAIL:
                    found.setdefault(defect.defect_id, []).append(
                        (defect.block, f"{unit.name}.{assert_name}")
                    )
    return found


def test_table2_full_campaign(benchmark, publish):
    report = benchmark.pedantic(run_full_campaign, rounds=1, iterations=1)

    # every property verified successfully (paper: "all properties were
    # verified successfully")
    assert report.all_passed, report.by_status("fail")[:5]
    assert report.total_properties == 2047

    # per-block structure matches Table 2 exactly
    for block, (subs, p0, p1, p2, p3) in TABLE2_TARGETS.items():
        summary = report.blocks[block]
        assert summary.submodules == subs, block
        assert (summary.p0, summary.p1, summary.p2, summary.p3) == \
            (p0, p1, p2, p3), block

    # bug attribution on the pre-fix chip
    found = attribute_bugs()
    assert set(found) == {d.defect_id for d in DEFECTS}
    bugs_per_block = {}
    for defect in DEFECTS:
        bugs_per_block[defect.block] = bugs_per_block.get(defect.block, 0) + 1
    for block, count in TABLE2_BUGS.items():
        assert bugs_per_block.get(block, 0) == count, block
        report.blocks[block].bugs = count

    # the published text is timing-free so reruns leave it unchanged;
    # the measured wall time goes to stdout and the benchmark record
    table = format_table2(report)
    timed_summary = format_status_summary(report)
    summary = timed_summary.replace(f" in {report.seconds:.1f}s", "")
    x1 = ("\nX1 batch feasibility: paper ~20 h on a 2004 workstation "
          "(single CPU, single licence); the measured wall time for all "
          "2047 assertions and the executor that ran them are the "
          "benchmark record's `seconds` and `executor`.")
    publish("table2_properties", table + "\n\n" + summary + x1)
    print(f"{timed_summary}\nX1 measured {report.seconds / 60:.1f} min "
          f"for all 2047 assertions on this machine.")

    benchmark.extra_info["properties"] = report.total_properties
    benchmark.extra_info["seconds"] = round(report.seconds, 1)
    benchmark.extra_info["executor"] = report.stats["executor"]
