"""Shared fixtures and the result writer of the paper exhibits.

This module deliberately is **not** named ``conftest.py``: pytest imports
conftest files under the bare module name ``conftest``, so a helper module
with that name in ``benchmarks/`` would shadow ``tests/conftest.py`` (or vice
versa) whenever both directories are collected in one run.  The fixtures are
re-exported by ``benchmarks/conftest.py``; exhibits import :func:`record`
from here.

Scale note: the paper's Appendix A uses 200 M elements (9 GB) on a 2013 SAS
array; the exhibits run the same *experiment designs* at 10⁴–10⁵ elements so
that each finishes in seconds in pure Python.  Every exhibit records the
paper-style table it reproduces and asserts the claim's *shape* (who wins,
what dominates, where the crossover falls) so the reproduction is checked,
not just printed.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.analysis.reporting import format_table
from repro.datasets.neuroscience import NeuronDataset, generate_neurons
from repro.datasets.queries import range_queries_for_selectivity

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, os.path.join(HERE, "ledger"))
from harness import environment  # noqa: E402  (the ledger's environment block)

# One shared neuron dataset per session: ~20k capsule segments.
_NEURONS = 250
_SEGMENTS = 80


@pytest.fixture(scope="session")
def neuron_dataset() -> NeuronDataset:
    return generate_neurons(neurons=_NEURONS, segments_per_neuron=_SEGMENTS, seed=42)


@pytest.fixture(scope="session")
def neuron_items(neuron_dataset):
    return neuron_dataset.items


@pytest.fixture(scope="session")
def paper_queries(neuron_dataset):
    """200 queries at the paper's 5×10⁻⁴ % volume selectivity."""
    return range_queries_for_selectivity(
        200, neuron_dataset.universe, selectivity=5e-6, seed=7
    )


def record(exhibit: str, columns: list[str], rows: list[list], **facts) -> None:
    """Write ``benchmarks/out/<exhibit>.json`` and print the table.

    The file holds the table (``columns``, ``rows``), any headline ``facts``
    (the paper's figure, a measured crossover) and the performance ledger's
    environment block, so every exhibit names the machine it ran on.  The
    table also goes to stdout, visible under ``pytest -s``.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    result = {"exhibit": exhibit, "columns": columns, "rows": rows, **facts,
              "env": environment()}
    with open(os.path.join(OUT_DIR, f"{exhibit}.json"), "w") as handle:
        json.dump(result, handle, indent=2, default=float)
        handle.write("\n")
    print(f"\n{exhibit}:\n{format_table(columns, rows)}")
