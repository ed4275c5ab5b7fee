"""Synthetic sequences back to event tables, with an honest conversion report."""
from __future__ import annotations

from dataclasses import dataclass, field

from ..codec import DecodeError, EventTables, decode_sequence, records_to_tables, write_csv

__all__ = ["ConversionReport", "convert_to_tables"]


@dataclass
class ConversionReport:
    attempted: int = 0
    succeeded: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def fractions(self) -> dict[str, float]:
        """'succeeded' plus one entry per failure reason; sums to 1 over attempts."""
        if self.attempted == 0:
            return {"succeeded": 0.0}
        out = {"succeeded": self.succeeded / self.attempted}
        for reason, n in sorted(self.failures.items()):
            out[f"failed:{reason}"] = n / self.attempted
        return out

    def write_csv(self, path):
        rows = [["attempted", self.attempted, 1.0 if self.attempted else 0.0],
                ["succeeded", self.succeeded, self.fractions()["succeeded"]]]
        rows += [[f"failed:{reason}", n, n / self.attempted] for reason, n in sorted(self.failures.items())]
        write_csv(path, ["outcome", "count", "fraction"], rows)


def convert_to_tables(corpus) -> tuple[EventTables, ConversionReport]:
    """Decode every sequence; failures become report rows, never exceptions.

    Sequences flagged as having hit the generation cap are decoded leniently
    (truncated back to their last complete visit block). Synthetic person ids
    are reassigned densely.
    """
    sequences = corpus.sequences if hasattr(corpus, "sequences") else list(corpus)
    report = ConversionReport()
    records = []
    for seq in sequences:
        report.attempted += 1
        try:
            rec = decode_sequence(seq, person_id=f"s{report.succeeded + 1}", lenient_tail=seq.hit_max_tokens)
        except DecodeError as e:
            report.failures[e.reason] = report.failures.get(e.reason, 0) + 1
            continue
        report.succeeded += 1
        records.append(rec)
    return records_to_tables(records), report
