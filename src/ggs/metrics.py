"""Stage metrics: the wall time and counts of the named stages of a run.

A stage is a block of work with counts of what it handled:

    with stage("enumeration") as counts:
        ...
        counts["elements"] = len(group)

A stage that ends is kept, as {"stage": name, "s": seconds, **counts}, in
the list of the innermost `collect()` block open in the current context
(verify_claim keeps its claim's list as Certificate.metrics), and logged at
INFO on the "ggs" logger.  The package does not import logging: a program
that configures a logger has imported it, and a run that logs nothing pays
nothing for it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator

__all__ = ["collect", "stage"]

_records: ContextVar[list[dict] | None] = ContextVar("records", default=None)


@contextmanager
def collect() -> Iterator[list[dict]]:
    """The records of the stages that end within the block, in that order."""
    records: list[dict] = []
    token = _records.set(records)
    try:
        yield records
    finally:
        _records.reset(token)


@contextmanager
def stage(name: str, **counts: int) -> Iterator[dict]:
    """Time the block as the stage name; the block may add to counts.  A
    block left by an exception records nothing."""
    start = perf_counter()
    yield counts
    record = {"stage": name, "s": perf_counter() - start, **counts}
    records = _records.get()
    if records is not None:
        records.append(record)
    logging = sys.modules.get("logging")
    if logging is not None:
        text = "".join(f" {key}={value}" for key, value in counts.items())
        logging.getLogger("ggs").info("stage %s: %.6f s%s", name, record["s"], text)
