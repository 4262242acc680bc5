"""The quick crash-plan space of one fuzz system, run in process.

CI's fuzz-smoke (``repro fuzz --quick``) censuses each system and
workload, then crashes at every site the census saw, at its first and
last occurrence.  :func:`explore` runs that plan space for one system
with :func:`repro.fuzz.runner.run_plan`, in this process, so a test can
patch or instrument the runtime first and inspect every result.
"""

from typing import List, Sequence

from repro.fuzz.campaign import CampaignOptions, census_plan, generate_plans
from repro.fuzz.runner import FuzzResult, run_plan
from repro.fuzz.workloads import WORKLOAD_NAMES


def explore(system: str,
            workloads: Sequence[str] = WORKLOAD_NAMES) -> List[FuzzResult]:
    """Every quick-mode plan of ``system`` on ``workloads``, run."""
    options = CampaignOptions(quick=True, systems=(system,),
                              workloads=tuple(workloads))
    counts = {(system, workload):
              run_plan(census_plan(system, workload, options.mode)).site_counts
              for workload in workloads}
    return [run_plan(plan) for plan in generate_plans(counts, options)]
