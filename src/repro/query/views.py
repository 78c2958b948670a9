"""Render stored epochs through the canonical table renderers.

The serving layer must never fork the presentation logic: a table
served from the store has to be byte-identical to the same table
rendered live by :mod:`repro.analysis.tables`. The renderers read the
record rows an epoch stores, which are the rows the live report renders
from, so these views pass ``store.records(...)`` straight in.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import (
    render_category_probe,
    render_figure1,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.store import EpochManifest, ResultsStore

#: The table names the query engine and serving API expose.
TABLE_NAMES = (
    "table1",
    "table2",
    "figure1",
    "table3",
    "table4",
    "probe",
)


def render_epoch_table(
    store: ResultsStore, manifest: EpochManifest, name: str
) -> str:
    """One named table for one epoch, byte-identical to the live render."""
    if name not in TABLE_NAMES:
        raise ValueError(f"unknown table {name!r}; one of {TABLE_NAMES}")
    epoch_id = manifest.epoch_id
    products = manifest.identity.get("products")
    if name == "table1":
        return render_table1()
    if name == "table2":
        return render_table2(products)
    if name == "figure1":
        return render_figure1(
            store.records(epoch_id, "installations"), products
        )
    if name == "table3":
        return render_table3(store.records(epoch_id, "confirmations"))
    if name == "table4":
        return render_table4(store.records(epoch_id, "characterizations"))
    rows = store.records(epoch_id, "category_probe")
    if not rows:
        raise ValueError(f"epoch {manifest.short_id} has no category probe")
    return render_category_probe(rows[0])


def available_tables(manifest: EpochManifest) -> List[str]:
    """Which table views this epoch's segments can back."""
    names = ["table1", "table2"]
    if "installations" in manifest.segments:
        names.append("figure1")
    if "confirmations" in manifest.segments:
        names.append("table3")
    if "characterizations" in manifest.segments:
        names.append("table4")
    if "category_probe" in manifest.segments:
        names.append("probe")
    return names
