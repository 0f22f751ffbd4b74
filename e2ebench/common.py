"""Shared configuration for the end-to-end HTTP benchmark.

Both the benchmark entry point (``run.py``) and the server process
(``launcher.py``) import this module, so the program input — the
knowledge graph and the fleet configuration — is defined exactly once.
The benchmark runs from the root of a source checkout and imports the
library from ``src/`` there; nothing is installed.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The generated knowledge graph: the curated catalog plus synthetic
#: recipes and ingredients from the default catalog seed (7).
KG_CONFIG = {"extra_recipes": 100, "extra_ingredients": 50}

#: The ``repro serve`` defaults: 4 shards x 2 workers, scenario cache 64
#: and closure cache 16 per shard, no request timeout.
FLEET_CONFIG = {
    "num_shards": 4,
    "workers_per_shard": 2,
    "queue_size": 64,
    "max_cached_scenarios": 64,
    "closure_cache_size": 16,
    "request_timeout": None,
}


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Exits with status 2 (and prints no result) when the checkout has no
    source tree, e.g. when only the benchmark's own files are present.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"e2ebench: no library source under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def build_catalog():
    """The benchmark's knowledge-graph catalog (deterministic)."""
    from repro.foodkg.generator import generate_catalog

    return generate_catalog(**KG_CONFIG)
