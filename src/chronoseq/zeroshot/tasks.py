"""Zero-shot task definitions and concept-hierarchy expansion."""
from __future__ import annotations

import csv
from dataclasses import dataclass

from ..codec import csv_rows
from ..configfile import read_config

__all__ = ["TaskConfig", "ConceptAncestry", "expand_outcomes", "load_task_config"]


@dataclass(frozen=True)
class TaskConfig:
    task_name: str
    outcome_events: tuple[int, ...]
    include_descendants: bool = False
    prediction_window_start: int = 0
    prediction_window_end: int = 30
    max_new_tokens: int = 128
    n_simulations: int = 50

    def __post_init__(self):
        if not self.outcome_events:
            raise ValueError("outcome_events must be nonempty")
        if not (0 <= self.prediction_window_start < self.prediction_window_end):
            raise ValueError("need 0 <= prediction_window_start < prediction_window_end")
        if self.max_new_tokens <= 0 or self.n_simulations <= 0:
            raise ValueError("max_new_tokens and n_simulations must be positive")


def load_task_config(path) -> TaskConfig:
    """Key-value task file; field names match the task-definition examples verbatim."""
    return read_config(path, TaskConfig)


class ConceptAncestry:
    """(ancestor, descendant) pairs; every concept is its own descendant at query time."""

    def __init__(self, pairs=()):
        self._down: dict[int, set[int]] = {}
        for anc, desc in pairs:
            self._down.setdefault(int(anc), set()).add(int(desc))

    def descendants_of(self, concept_id: int) -> set[int]:
        return {int(concept_id)} | self._down.get(int(concept_id), set())

    @classmethod
    def load(cls, path) -> "ConceptAncestry":
        """ancestor,descendant rows of integer concept ids, after an optional header row."""
        pairs = []
        with open(path, newline="", encoding="utf-8") as f:
            for i, (line, (anc, desc)) in enumerate(csv_rows(csv.reader(f), path, 2)):
                try:
                    pairs.append((int(anc), int(desc)))
                except ValueError:
                    if i > 0:  # only the first row may be a header
                        raise ValueError(f"{path}, line {line}: concept ids must be integers") from None
        return cls(pairs)


def expand_outcomes(task: TaskConfig, ancestry: ConceptAncestry | None = None) -> frozenset[int]:
    """The outcome concept set, unioned with descendants when the task asks for it.

    Idempotent: expanding an already-expanded set adds nothing (the hierarchy
    pairs here are transitive-closure rows, as in the standard ancestor
    table). Unknown ids pass through unchanged.
    """
    base = {int(c) for c in task.outcome_events}
    if not task.include_descendants:
        return frozenset(base)
    if ancestry is None:
        raise ValueError("include_descendants is set but no ancestry was provided")
    out: set[int] = set()
    for c in base:
        out |= ancestry.descendants_of(c)
    return frozenset(out)
