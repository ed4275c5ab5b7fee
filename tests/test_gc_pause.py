"""The table pipeline pauses the cyclic garbage collector and restores the caller's setting."""
import gc

import pytest

from chronoseq.codec import gc_paused, read_tables, records_to_tables, tables_to_records, write_tables
from chronoseq.evalharness import prevalence_report
from chronoseq.generation import summary_stats
from chronoseq.privacy import audit_tables
from chronoseq.synthworld import sample_hospital_records


@pytest.fixture
def collector():
    """Yields the gc module with the collector enabled; restores the setting the test found."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield gc
    finally:
        (gc.enable if was_enabled else gc.disable)()


@gc_paused
def _collector_state():
    return gc.isenabled()


@gc_paused
def _nested_state():
    inner = _collector_state()
    return inner, gc.isenabled()


def test_pause_disables_during_the_call_and_restores_on_return(collector):
    assert _collector_state() is False
    assert collector.isenabled()


def test_pause_restores_on_exception(collector, tmp_path):
    with pytest.raises(FileNotFoundError):
        read_tables(tmp_path / "persons.csv", tmp_path / "visits.csv", tmp_path / "events.csv")
    assert collector.isenabled()


def test_pause_leaves_an_already_disabled_collector_disabled(collector):
    collector.disable()
    assert _collector_state() is False
    assert not collector.isenabled()


def test_nested_pauses_resume_only_at_the_outer_return(collector):
    assert _nested_state() == (False, False)
    assert collector.isenabled()


def test_table_pipeline_starts_no_collection(collector, tmp_path):
    """No collection starts inside the decorated table functions, even at a young-generation
    threshold low enough that each of them would collect with the collector running."""
    paths = write_tables(records_to_tables(sample_hospital_records(300, seed=21)), tmp_path)
    running, collected = [], []

    def on_gc(phase, info):
        if phase == "start" and running:
            collected.append((running[-1], info["generation"]))

    def run(fn, *args):
        running.append(fn.__name__)
        try:
            return fn(*args)
        finally:
            running.pop()

    threshold = collector.get_threshold()
    collector.set_threshold(100, *threshold[1:])
    collector.callbacks.append(on_gc)
    try:
        tables = run(read_tables, paths["persons"], paths["visits"], paths["events"])
        run(tables_to_records, tables)
        run(audit_tables, tables, tables, tables)
        run(prevalence_report, tables, tables)
        run(summary_stats, tables)
    finally:
        collector.callbacks.remove(on_gc)
        collector.set_threshold(*threshold)
    assert not collected, f"collections (function, generation) inside the table pipeline: {collected}"
