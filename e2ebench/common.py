"""Shared pieces of the end-to-end benchmark: the world scale, the
scratch area, timing statistics, memory readings and the result shape.

Every workload module returns a :class:`Result`; ``run.py`` turns it
into the printed metric table and the final JSON line.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

#: Checkout root (the directory holding ``src/`` and this package).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything the benchmark writes lives under here (git-ignored).
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: World scale.  ``tiny`` (150 locations per million, 60 providers)
#: takes about a minute per cold build on a 2-core box, which does not
#: fit the run budget; this keeps every stage and its shares (geometry
#: still dominates a cold build) at roughly a third of the claims.
LOCATIONS_PER_MILLION = 12
N_PROVIDERS = 16


#: The end-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "claims_per_s": "claims/s",
    "holdout_auc": "AUC",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


class CheckFailed(AssertionError):
    """A benchmark correctness check found a wrong program output."""


class InvalidRun(RuntimeError):
    """The run cannot report its figures (the load generator fell
    behind its schedule); it prints no result."""


def require_source_tree() -> None:
    """Put ``src/`` on the path, or exit non-zero when it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"e2ebench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


def scratch_dir(name: str) -> str:
    """A fresh directory under the checkout's ``.bench_out``."""
    path = os.path.join(OUT_DIR, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


#: The program modules every workload uses; importing them is the
#: process-start part of set-up.
PROGRAM_MODULES = (
    "repro.core.pipeline",
    "repro.core.model",
    "repro.serve.store",
    "repro.serve.workers",
    "repro.store",
    "repro.enrich",
)


def keep_temp_files_local() -> None:
    """Point ``tempfile`` (and child processes) inside the checkout."""
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp


def bench_config(seed: int):
    """The benchmark's scenario: ``tiny`` with a smaller fabric."""
    from repro.core.config import tiny
    from repro.fcc.fabric import FabricConfig
    from repro.fcc.providers import ProviderConfig

    return replace(
        tiny(seed),
        fabric=FabricConfig(locations_per_million=LOCATIONS_PER_MILLION),
        providers=ProviderConfig(n_providers=N_PROVIDERS),
    )


#: Seconds :func:`reference_job` takes on the reference host (a 2-core
#: x86 VM at 2.1 GHz in a quiet period).  Only the ratio to it is used.
HOST_REF_S = 0.08
#: Reference jobs per :meth:`HostSpeed.sample`.
HOST_REPEATS = 3
#: Time metrics scaled by the host's slowdown: ``-1`` divides (seconds,
#: lower is better), ``+1`` multiplies (a rate, higher is better).  A
#: workload module may narrow this with its own ``HOST_SCALED``.
HOST_SCALED = {"setup_s": -1, "op_s": -1, "claims_per_s": +1}


def reference_job() -> int:
    """Fixed work of the three kinds the workloads do: an interpreted
    loop, numpy kernels and small-object allocation."""
    total = 0
    for i in range(1_000_000):
        total += i * i
    # Small arrays: large ones would time the allocator's page faults.
    values = np.random.default_rng(0).random(8_192)
    for _ in range(150):
        np.sort(values)
        values * 2.0 + 1.0
    for _ in range(20):
        total += len([{"key": i} for i in range(10_000)])
    return total


class HostSpeed:
    """How much slower the host runs now than the reference host.

    The benchmark shares its machine, whose speed drifts by up to 2x over
    tens of minutes: the same pipeline run at seed 7 took 7.7 s, then
    4.0 s an hour later, while a fixed pure-Python loop went from 0.28 s
    to 0.15 s.  Each run therefore times the reference job at its start,
    between its operations and at its end, outside every timed region
    and while the program is idle, and scales its time metrics to the
    reference host by the median of those samples.
    """

    def __init__(self):
        self.samples: list[float] = []
        reference_job()  # first calls in a process run slow; not a sample

    def sample(self) -> float:
        """Time the reference job ``HOST_REPEATS`` times; returns the
        seconds spent, so a caller can leave them out of its budget."""
        start = time.perf_counter()
        for _ in range(HOST_REPEATS):
            gc.collect()
            seconds, _ = timed(reference_job)
            self.samples.append(seconds)
        return time.perf_counter() - start

    def slowdown(self) -> float:
        return median(self.samples) / HOST_REF_S

    def scale(self, result: "Result", scaled: dict = HOST_SCALED) -> None:
        """Scale ``result``'s ``scaled`` time metrics to the reference
        host and keep the measured values as ``<name>.raw`` notes."""
        slowdown = self.slowdown()
        result.note("host.slowdown", slowdown, "x")
        for name, sign in scaled.items():
            if name in result.metrics:
                metric = result.metrics[name]
                result.note(f"{name}.raw", metric.value, metric.unit)
                result.put(name, metric.value * slowdown ** sign, metric.unit)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    low, high = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    if pos == lo or low == high:  # also keeps inf (a failed request) exact
        return low
    return low + (high - low) * (pos - lo)


def self_peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Metric:
    value: float
    unit: str


@dataclass
class Result:
    """One workload run: counts, metrics and human-readable notes."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Extra named figures printed above the JSON line (per-workload names,
    #: sample counts, validity flags); never part of the JSON metrics.
    report: dict[str, Metric] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = Metric(float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        self.report[name] = Metric(float(value), unit)
