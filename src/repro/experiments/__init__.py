"""Paper experiment harness: Tables 1-2 and Figures 1-14 regenerators."""

from repro.experiments.datasets import AppDataset, load_app, APPS, PAPER_TABLE1, PAPER_TABLE2
from repro.experiments.table1 import Table1Row, run_table1
from repro.experiments.table2 import Table2Row, run_table2, DEFAULT_CODECS, DEFAULT_ERROR_BOUNDS
from repro.experiments.figures import (
    PipelineRow,
    TimestepRow,
    RDRow,
    run_fig1,
    run_fig2,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_rd,
    run_visual_compare,
    METHODS,
)
from repro.experiments.report import format_table, ascii_plot

__all__ = [
    "AppDataset",
    "load_app",
    "APPS",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "Table1Row",
    "run_table1",
    "Table2Row",
    "run_table2",
    "DEFAULT_CODECS",
    "DEFAULT_ERROR_BOUNDS",
    "PipelineRow",
    "TimestepRow",
    "RDRow",
    "run_fig1",
    "run_fig2",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_rd",
    "run_visual_compare",
    "METHODS",
    "format_table",
    "ascii_plot",
]
