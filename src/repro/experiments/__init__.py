"""Experiment infrastructure: the memoizing runner, the paper's tables
and the SMT proxy.  Every data figure is a campaign spec under
``campaigns/`` rendered by :func:`repro.campaign.run_campaign`."""

from .multicore_experiments import smt_accuracy_check
from .runner import (BASELINE, Config, ExperimentError, ExperimentRunner,
                     SCALES, Scale, current_scale)
from .tables import (contribution_storage_text, table1_text, table2_text,
                     table3_rows, table3_text)

__all__ = [
    "smt_accuracy_check",
    "BASELINE", "Config", "ExperimentError", "ExperimentRunner",
    "SCALES", "Scale", "current_scale",
    "contribution_storage_text", "table1_text", "table2_text",
    "table3_rows", "table3_text",
]
