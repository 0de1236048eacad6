"""Crash-safe per-sim-day checkpoints of the whole study state.

The simulator, its observers (crawler, orderer, metrics recorder), and
everything they reference — the world, the engine caches, the RNG streams
— form one object graph; pickling them together in a single payload
preserves every shared reference, so a resumed run is the *same* program
state, not a reconstruction.

A checkpoint is a directory holding one file, ``checkpoint.pkl``: a
one-line JSON header (schema, scenario config digest, day index, state
digest, and the payload's length and BLAKE2 digest) followed by the raw
pickle.  Every save rewrites the whole file through
:func:`repro.util.atomicio.atomic_write` — temp file, one fsync, rename —
and the rename is the commit point, so a kill at any instant leaves the
previous save whole.  The payload is neither compressed nor split:
writing the raw pickle costs a small fraction of compressing it, and the
content-defined chunk store of schemas 2-3, though it wrote about a
quarter of the bytes, spent most of each save opening and fsyncing one
file per chunk.

``repro run --resume`` (and :class:`repro.study.StudyRun` with
``resume=True``) reads the header, checks the schema and the config
digest, checks the payload's length and digest *before* unpickling it,
then recomputes the state digest, and continues the day loop — producing
final artifacts byte-identical to an uninterrupted run (pinned in
``tests/test_faults.py``).  The digest covers the header's other fields
too, so a damaged day index fails it like a damaged payload byte.

:class:`SimulatedCrash` gives tests and CI a deterministic kill: the
checkpointer raises it right after persisting the configured day, which
sidesteps flaky subprocess-kill timing entirely.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from hashlib import blake2b
from typing import List, Optional, Sequence, Tuple

from repro.obs.manifest import config_digest
from repro.util.atomicio import atomic_write
from repro.util.perf import PERF

#: Checkpoint schema, bumped when the layout or the pickled object graph
#: changes.  Schema 1 was a single whole-graph pickle file; 2 and 3 a
#: directory of content-defined chunks behind ``HEAD``; 4 is one header
#: line plus the raw pickle in ``checkpoint.pkl``.
CHECKPOINT_SCHEMA = 4

#: The one file a checkpoint directory holds.
CHECKPOINT_FILE = "checkpoint.pkl"

#: What a schema 2-3 chunk store keeps at its top level.
_OLD_HEAD = "HEAD"


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be resumed from."""


class SimulatedCrash(RuntimeError):
    """Deterministic kill raised after checkpointing ``--die-after-day``."""

    #: Process exit code the CLI maps this to.
    exit_code = 3


def state_digest(simulator, observers: Sequence[object]) -> str:
    """A cheap fingerprint of resumable study state.

    Covers the simulation clock, the traffic RNG's full state, and each
    observer's progress counters.  Recomputed after load and compared to
    the value recorded at save time, it catches state that silently fails
    to round-trip through pickle (a ``__getstate__`` that drops a field).
    """
    parts: List[str] = []
    today = getattr(simulator.world, "today", None)
    parts.append(today.isoformat() if today is not None else "")
    parts.append(str(simulator._traffic_rng.getstate()))
    for observer in observers:
        parts.append(type(observer).__name__)
        dataset = getattr(observer, "dataset", None)
        records = getattr(dataset, "records", None)
        if records is not None:
            parts.append(str(len(records)))
            if records:
                parts.append(records[-1].to_json())
        total = getattr(observer, "total_orders_created", None)
        if total is not None:
            parts.append(str(total))
    digest = blake2b(digest_size=8)
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _payload_digest(fields: dict, blob: bytes) -> str:
    """BLAKE2 over the header's other fields, then the pickle."""
    digest = blake2b(json.dumps(fields, sort_keys=True).encode("utf-8"),
                     digest_size=16)
    digest.update(blob)
    return digest.hexdigest()


class Checkpointer:
    """Persists the (simulator, observers) graph at day boundaries."""

    def __init__(
        self,
        path: str,
        config,
        every_days: int = 1,
        die_after_day: Optional[int] = None,
    ):
        self.path = path
        self.config_digest = config_digest(config)
        self.every_days = max(1, every_days)
        #: When set, raise :class:`SimulatedCrash` after checkpointing this
        #: 0-based day index (testing/CI hook).
        self.die_after_day = die_after_day
        self.saves = 0
        self.payload_bytes_total = 0
        self.bytes_written = 0

    def _file(self) -> str:
        return os.path.join(self.path, CHECKPOINT_FILE)

    def on_day_complete(self, simulator, observers, day_index: int, day) -> None:
        """Called by the simulator after every completed sim day."""
        dying = self.die_after_day is not None and day_index >= self.die_after_day
        total_days = len(simulator.world.window)
        due = (day_index + 1) % self.every_days == 0
        if due or dying or day_index == total_days - 1:
            self.save(simulator, observers, day_index, day)
        if dying:
            raise SimulatedCrash(
                f"simulated crash after sim day {day_index} ({day.isoformat()})"
            )

    def save(self, simulator, observers, day_index: int, day) -> None:
        digest = state_digest(simulator, observers)
        blob = pickle.dumps((simulator, list(observers)),
                            protocol=pickle.HIGHEST_PROTOCOL)
        fields = {
            "schema": CHECKPOINT_SCHEMA,
            "config_digest": self.config_digest,
            "day_index": day_index,
            "state_digest": digest,
            "payload_bytes": len(blob),
        }
        header = dict(fields, payload_digest=_payload_digest(fields, blob))
        head = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        os.makedirs(self.path, exist_ok=True)
        with atomic_write(self._file(), "wb") as handle:
            handle.write(head)
            handle.write(blob)
        self.saves += 1
        self.payload_bytes_total += len(blob)
        self.bytes_written += len(head) + len(blob)
        PERF.count("faults.checkpoint.saved")

    def clear(self) -> None:
        """Remove the checkpoint after a successful complete run."""
        if os.path.isdir(self.path):
            # Refuse to rmtree anything that is not recognisably ours.
            if not (
                os.path.exists(self._file())
                or os.path.exists(os.path.join(self.path, _OLD_HEAD))
            ):
                raise CheckpointError(
                    f"refusing to remove {self.path!r}: not a checkpoint store"
                )
            shutil.rmtree(self.path, ignore_errors=True)
        elif os.path.exists(self.path):
            # Schema-1 leftover: a single pickle file.
            os.unlink(self.path)

    def stats(self) -> dict:
        """Save accounting for benchmarks and docs.

        The chunk keys date from the chunk store of schemas 2-3 and stay
        for their readers: ``chunks_written`` counts saves, nothing is
        reused or compacted, and ``delta_ratio`` reads just over 1.0 (the
        header line)."""
        return {
            "saves": self.saves,
            "compactions": 0,
            "payload_bytes_total": self.payload_bytes_total,
            "bytes_written": self.bytes_written,
            "chunks_written": self.saves,
            "chunks_reused": 0,
            "delta_ratio": (
                self.bytes_written / self.payload_bytes_total
                if self.payload_bytes_total
                else None
            ),
        }


def _schema_error(schema) -> CheckpointError:
    return CheckpointError(
        f"checkpoint schema {schema!r} != supported {CHECKPOINT_SCHEMA}"
    )


def load_checkpoint(path: str, config) -> Tuple[object, List[object], int]:
    """Load and verify a checkpoint.

    Returns ``(simulator, observers, next_day_index)``.  Raises
    :class:`CheckpointError` when the checkpoint belongs to a different
    scenario config, uses a different schema, is missing or damaged,
    names classes this code no longer has, or its state fails digest
    verification after unpickling.
    """
    if os.path.isfile(path):
        # A schema-1 single-pickle checkpoint (or something else entirely).
        try:
            with open(path, "rb") as handle:
                legacy = pickle.load(handle)
            schema = legacy.get("schema") if isinstance(legacy, dict) else None
        except Exception:
            schema = None
        raise _schema_error(schema)
    file_path = os.path.join(path, CHECKPOINT_FILE)
    head_path = os.path.join(path, _OLD_HEAD)
    if not os.path.exists(file_path) and os.path.exists(head_path):
        # A chunk store of schema 2 or 3; its HEAD names which.
        try:
            with open(head_path, "r", encoding="utf-8") as handle:
                schema = json.load(handle).get("schema")
        except (OSError, ValueError, AttributeError):
            schema = None
        raise _schema_error(schema)
    try:
        with open(file_path, "rb") as handle:
            line = handle.readline()
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"no checkpoint under {path!r}: {exc}") from exc
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header of {file_path!r} is damaged")
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise _schema_error(header.get("schema"))
    expected = config_digest(config)
    if header.get("config_digest") != expected:
        raise CheckpointError(
            f"checkpoint was written for config "
            f"{header.get('config_digest')}, not {expected} — refusing "
            f"to resume a different scenario"
        )
    fields = dict(header)
    claimed = fields.pop("payload_digest", None)
    if _payload_digest(fields, blob) != claimed:
        raise CheckpointError(
            "checkpoint payload failed its digest — the file is incomplete "
            "or damaged"
        )
    try:
        simulator, observers = pickle.loads(blob)
    except (pickle.UnpicklingError, AttributeError, ImportError) as exc:
        raise CheckpointError(
            f"checkpoint payload does not unpickle with this code: {exc}"
        ) from exc
    recomputed = state_digest(simulator, observers)
    if recomputed != header.get("state_digest"):
        raise CheckpointError(
            f"state digest mismatch after load: saved {header.get('state_digest')}, "
            f"recomputed {recomputed} — checkpointed state did not round-trip"
        )
    for observer in observers:
        rebase = getattr(observer, "rebase", None)
        if callable(rebase):
            # e.g. MetricsRecorder: PERF deltas must restart from the new
            # process's registry, not the dead process's totals.
            rebase()
    PERF.count("faults.checkpoint.loaded")
    return simulator, observers, header["day_index"] + 1
