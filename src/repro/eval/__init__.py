"""Clustering quality evaluation (the paper's equations 1-4)."""

from repro.eval.metrics import (
    PairConfusion,
    QualityScores,
    pair_confusion,
    quality_scores,
)
from repro.eval.families import FamilyComparison, FamilyMatch, compare_families
from repro.eval.report import Table1Row, report_lines, table1_row

__all__ = [
    "PairConfusion",
    "QualityScores",
    "pair_confusion",
    "quality_scores",
    "Table1Row",
    "table1_row",
    "report_lines",
    "FamilyComparison",
    "FamilyMatch",
    "compare_families",
]
