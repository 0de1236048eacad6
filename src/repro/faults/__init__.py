"""Fault injection, retry policy, and crash-safe checkpointing.

The paper's eight-month measurement lived through blocked crawls, missed
days, truncated pages, and host outages; its analyses had to tolerate
those gaps.  This package makes failure a first-class, *deterministic*,
testable input:

* :mod:`repro.faults.profiles` — named fault profiles (rates for fetch
  timeouts, connection errors, truncated/garbled HTML, missing SERPs,
  crawler IP-block windows, AWStats outages);
* :mod:`repro.faults.injector` — a seeded injector whose every decision
  is a pure hash of (fault seed, fault kind, subject, day, attempt), so
  the same fault seed replays the same failures regardless of call order;
* :mod:`repro.faults.retry` — a bounded number of attempts per fetch, a
  per-day retry budget, and a per-host circuit breaker;
* :mod:`repro.faults.checkpoint` — per-sim-day crash-safe checkpoints of
  the whole study state, one file rewritten atomically per save, with
  ``repro run --resume`` continuation that is byte-identical to an
  uninterrupted run.
"""

from repro.faults.checkpoint import (
    CheckpointError,
    Checkpointer,
    SimulatedCrash,
    load_checkpoint,
    state_digest,
)
from repro.faults.injector import (
    FAULT_AWSTATS_DOWN,
    FAULT_CONNECTION,
    FAULT_GARBLED,
    FAULT_IP_BLOCK,
    FAULT_SERP_MISSING,
    FAULT_TIMEOUT,
    FAULT_TRUNCATED,
    FaultInjector,
)
from repro.faults.profiles import FaultProfile, PROFILES, profile_named
from repro.faults.retry import FAULT_CIRCUIT_OPEN, ResilientFetcher, RetryPolicy

__all__ = [
    "CheckpointError",
    "Checkpointer",
    "FAULT_AWSTATS_DOWN",
    "FAULT_CIRCUIT_OPEN",
    "FAULT_CONNECTION",
    "FAULT_GARBLED",
    "FAULT_IP_BLOCK",
    "FAULT_SERP_MISSING",
    "FAULT_TIMEOUT",
    "FAULT_TRUNCATED",
    "FaultInjector",
    "FaultProfile",
    "PROFILES",
    "ResilientFetcher",
    "RetryPolicy",
    "SimulatedCrash",
    "load_checkpoint",
    "profile_named",
    "state_digest",
]
