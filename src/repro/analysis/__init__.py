"""Analysis layer: every paper table and figure computed from trace stores."""

# perfbench/pipeline.py imports full_report from the package.
from repro.analysis.summary import full_report

__all__ = ["full_report"]
