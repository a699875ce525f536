"""Checks of BENCHMARK.json that guard the package source.

A per-layer metric names a traced function; deleting that function would
silently empty the metric, so the benchmark's own check of the names runs
here as well.  It is imported, not copied, from perfbench/test_perfbench.py
(the rest of that module needs the benchmark's workers and stays out of
this suite: python3 -m pytest -q perfbench/test_perfbench.py).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from test_perfbench import test_every_per_layer_metric_names_a_span_or_a_counter  # noqa: E402,F401
