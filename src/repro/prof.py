"""``repro.prof`` — phase-attributed wall-clock profiler for replays.

The replay hot path is pure Python, and ROADMAP item 1 (the vectorized
struct-of-arrays core) needs to prove *where* its speedup comes from.
This module attributes host wall-clock time to the runtime's named
phases:

==================  ====================================================
phase               what it covers
==================  ====================================================
``trace-gen``       generating/iterating the workload's warp stream
``dispatch``        warp decomposition (:meth:`GMTRuntime.access_warp`)
``access``          the coalesced access path's own bookkeeping
``page-table``      :meth:`PageTable.lookup`
``reuse-policy``    VTD clock, policy ``on_access``/``choose``/fills
``victim-select``   Tier-1 clock sweep / Tier-2 order victim nomination
``eviction``        the eviction pipeline outside its wrapped leaves
``writeback``       dirty-page SSD writeback accounting
``prefetch``        the sequential prefetcher
``device-model``    PCIe/NVMe byte accounting and the queueing model
``stats-obs``       telemetry/flight-recorder emission overhead
==================  ====================================================

Attribution is *exclusive* (self-time): each clock delta is charged to
the innermost active phase only, so the phase totals sum to
(approximately) the replay wall time and the ``stack -> self seconds``
map renders directly as a collapsed-stack flamegraph (``flamegraph.pl``
/ speedscope both read the format).

Two engines share that output schema:

``sampled`` (default)
    A daemon thread wakes every ``interval`` seconds, snapshots the
    profiled thread's Python frames (``sys._current_frames``), maps
    frame code objects to phases via a table built at attach time, and
    charges the elapsed wall to the innermost phase.  Nothing on the
    runtime is touched, so the enabled overhead is a few percent —
    the replay hot path makes ~15 phase-boundary calls per access,
    far too many for per-call timing to stay inside the <15% budget.

``exact``
    Enter/exit hooks: phase-boundary methods are wrapped (instance
    attributes, restored at detach) to append ``(phase, t)`` events
    that a bulk drain folds into the same per-phase tables.
    Deterministic — with an injected clock the attribution is
    bit-exact — but the per-call clock reads cost roughly another
    replay on default-scale configs.  Use it for unit tests and for
    precise call counts, not for overhead-sensitive measurement.

Profiling is **off by default and costs nothing when off** — the same
``self._prof is None`` discipline as the flight recorder, except here
"off" is even cheaper: a non-profiled runtime is not instrumented at
all (no wrappers, no sampler), so it executes the original methods
with zero extra checks.  ``runtime._prof`` only marks the attachment
(and guards double-attach).

Quick start::

    from repro.prof import profile_replay

    runtime = build_runtime("reuse", config)
    prof, result = profile_replay(runtime, workload)
    print(prof.format_top())
    prof.write_collapsed("profile.folded")      # flamegraph.pl input

or, from the shell::

    gmt-prof hotspot --runtime reuse --scale 4096 --json-out before.json
    # ... change the code ...
    gmt-prof hotspot --runtime reuse --scale 4096 --json-out after.json
    gmt-prof --compare before.json after.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigError, SimulationError

#: The named phases (docs table above).  ``format_top`` orders unknown
#: phases after these, so custom wrap sites are allowed.
PHASES = (
    "trace-gen",
    "dispatch",
    "access",
    "page-table",
    "reuse-policy",
    "victim-select",
    "eviction",
    "writeback",
    "prefetch",
    "device-model",
    "stats-obs",
)

PROFILE_VERSION = 1


class ThroughputMeter:
    """Wall-clock accesses/sec meter with periodic samples.

    ``tick(position)`` stamps ``(position, wall_s since start)`` at most
    every ``interval`` position units; :meth:`rate` reads the recent
    rate, :meth:`overall` the whole-run rate.
    """

    def __init__(self, interval: int = 1000, clock: Callable[[], float] = time.perf_counter) -> None:
        if interval < 1:
            raise ConfigError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        self.clock = clock
        self.samples: list[tuple[int, float]] = []
        self._t0: float | None = None
        self._base = 0

    def start(self, position: int = 0) -> None:
        self._t0 = self.clock()
        self._base = position
        self.samples = [(position, 0.0)]

    def tick(self, position: int) -> None:
        if self._t0 is None:
            self.start(position)
            return
        if position - self.samples[-1][0] >= self.interval:
            self.samples.append((position, self.clock() - self._t0))

    def rate(self, window: int = 5) -> float:
        """Accesses/sec over the most recent ``window`` samples."""
        if len(self.samples) < 2:
            return self.overall()
        tail = self.samples[-window - 1 :]
        positions = tail[-1][0] - tail[0][0]
        seconds = tail[-1][1] - tail[0][1]
        return positions / seconds if seconds > 0 else 0.0

    def overall(self) -> float:
        """Accesses/sec across the whole metered run so far."""
        if self._t0 is None:
            return 0.0
        elapsed = self.clock() - self._t0
        position = self.samples[-1][0] if self.samples else self._base
        return (position - self._base) / elapsed if elapsed > 0 else 0.0


class PhaseProfiler:
    """Exclusive-time phase profiler over one runtime's replay.

    Args:
        mode: ``"sampled"`` (frame-sampling thread, default) or
            ``"exact"`` (enter/exit event hooks; deterministic but
            roughly doubles replay cost on default-scale configs).
        interval: sampling period in seconds (sampled mode).
        clock: injectable time source (seconds; default
            ``time.perf_counter``).
        throughput_interval: sampling cadence of the embedded
            :class:`ThroughputMeter` (coalesced accesses).
    """

    def __init__(
        self,
        mode: str = "sampled",
        interval: float = 0.001,
        clock: Callable[[], float] = time.perf_counter,
        throughput_interval: int = 1000,
    ) -> None:
        if mode not in ("sampled", "exact"):
            raise ConfigError(f"mode must be 'sampled' or 'exact', got {mode!r}")
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        self.mode = mode
        self.interval = interval
        self.clock = clock
        #: Exclusive (self) seconds per phase.
        self.self_s: dict[str, float] = defaultdict(float)
        #: Per-phase event counts: wrapped calls in exact mode, sampler
        #: hits in sampled mode.
        self.calls: dict[str, int] = defaultdict(int)
        #: Collapsed stacks: ``"access;page-table" -> exclusive seconds``.
        self.stacks: dict[str, float] = defaultdict(float)
        self.throughput = ThroughputMeter(interval=throughput_interval, clock=clock)
        #: Total replay wall seconds (set by :meth:`run`).
        self.wall_s = 0.0
        #: Coalesced accesses replayed under :meth:`run`.
        self.accesses = 0
        #: Call paths seen so far, by small-integer id (id 0 is the root,
        #: outside every phase): the ``;``-joined path, its innermost
        #: phase, and its ``phase -> child id`` map.  Draining walks ids,
        #: so a charge is a list update rather than a string join and
        #: two dict updates.
        self._path_names: list[str] = [""]
        self._path_phase: list[str] = [""]
        self._path_kids: list[dict[str, int]] = [{}]
        #: Ids of the open paths, innermost last (the root never pops).
        self._open: list[int] = [0]
        self._mark = 0.0
        #: Raw boundary events ``(phase | _EXIT, t)``.  The hot path only
        #: appends here — all stack walking and charging happens in bulk
        #: in :meth:`_drain`, keeping per-call overhead to two clock
        #: reads and two list appends.
        self._events: list[tuple[object, float]] = []
        #: Drain threshold bounding event-buffer memory (~64 MB worst
        #: case).  Mid-run drains leave their own cost unattributed
        #: rather than mis-charging it to whatever phase was running.
        self._drain_at = 1 << 20
        #: Manual phase markers (sampled mode): the sampler prepends
        #: these outside whatever the frame walk finds.
        self._manual: list[str] = []
        #: ``(obj, attr, original)`` restore records; ``original`` is the
        #: :data:`_CLASS_ATTR` sentinel when the wrap shadowed a class
        #: method (restore = remove the instance shadow).
        self._wrapped: list[tuple[object, str, object]] = []
        self._runtime = None
        # --- sampled-mode state -------------------------------------
        #: ``code object -> phase`` lookup the sampler walks frames with.
        self._code_phases: dict[object, str] = {}
        self._sampler: threading.Thread | None = None
        self._stop: threading.Event | None = None
        self._target_tid: int | None = None
        #: The interpreter's switch interval before attach (restored on
        #: detach).
        self._switch_interval: float | None = None

    # ------------------------------------------------------------------
    # phase stack
    # ------------------------------------------------------------------
    def enter(self, phase: str) -> None:
        """Push a manual ``phase``.  Exact mode records a timestamped
        event; sampled mode just marks the phase as active so the
        sampler attributes wall to it."""
        if self.mode == "exact":
            self._events.append((phase, self.clock()))
        else:
            self._manual.append(phase)

    def exit(self) -> None:
        """Pop the innermost manual phase."""
        if self.mode == "exact":
            events = self._events
            events.append((_EXIT, self.clock()))
            if len(events) >= self._drain_at:
                self._drain()
        else:
            self._manual.pop()

    def _drain(self) -> None:
        """Fold the raw event buffer into per-phase exclusive times.

        Each inter-event interval is charged to the phase that was
        innermost during it; intervals outside any phase stay
        unattributed (they count against :attr:`coverage`).
        """
        events = self._events
        if not events:
            return
        mark = self._mark
        names = self._path_names
        phase_of = self._path_phase
        kids = self._path_kids
        open_ids = self._open
        spent = [0.0] * len(names)
        entered = [0] * len(names)
        cur = open_ids[-1]
        for tag, t in events:
            spent[cur] += t - mark
            if tag is _EXIT:
                open_ids.pop()
                cur = open_ids[-1]
            else:
                child = kids[cur].get(tag)
                if child is None:
                    child = kids[cur][tag] = len(names)
                    names.append(f"{names[cur]};{tag}" if cur else tag)
                    phase_of.append(tag)
                    kids.append({})
                    spent.append(0.0)
                    entered.append(0)
                open_ids.append(child)
                cur = child
                entered[cur] += 1
            mark = t
        # Fold this drain's per-path totals into the public tables; the
        # root's share is the unattributed gap time and is dropped.
        self_s = self.self_s
        stacks = self.stacks
        calls = self.calls
        for pid in range(1, len(names)):
            phase = phase_of[pid]
            stacks[names[pid]] += spent[pid]
            self_s[phase] += spent[pid]
            calls[phase] += entered[pid]
        events.clear()
        # Skip the wall the drain itself consumed: advancing the mark to
        # "now" leaves it unattributed instead of charging it to the
        # phase that happened to be on top of the stack.
        self._mark = self.clock()

    # ------------------------------------------------------------------
    # instrumentation (attach wraps instance attributes; detach restores)
    # ------------------------------------------------------------------
    def _wrap(self, obj: object, attr: str, phase: str) -> None:
        fn = getattr(obj, attr, None)
        if fn is None:
            return
        if attr in vars(obj):
            # Already an instance attribute: either another profiler's
            # wrapper (refused at attach) or a runtime that stores bound
            # callables directly — wrap it the same way, but remember to
            # restore the *original* value instead of deleting.
            original = vars(obj)[attr]
            self._wrapped.append((obj, attr, original))
        else:
            self._wrapped.append((obj, attr, _CLASS_ATTR))

        # The wrapper is the enabled-overhead hot path: two clock reads
        # and two appends per call, everything else closure-captured.
        events = self._events
        clock = self.clock
        drain_at = self._drain_at
        drain = self._drain

        def wrapped(*args, **kwargs):
            events.append((phase, clock()))
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((_EXIT, clock()))
                if len(events) >= drain_at:
                    drain()

        wrapped.__wrapped__ = fn  # introspection/debugging
        setattr(obj, attr, wrapped)

    def attach(self, runtime) -> "PhaseProfiler":
        """Instrument ``runtime``'s phase boundaries (one runtime per
        profiler; raises if either side is already attached).

        Exact mode wraps the boundary methods; sampled mode builds the
        code-object table and starts the sampler thread (which samples
        only the attaching thread)."""
        if self._runtime is not None:
            raise ConfigError("PhaseProfiler is already attached to a runtime")
        if getattr(runtime, "_prof", None) is not None:
            raise ConfigError("runtime already has an attached profiler")
        self._runtime = runtime
        runtime._prof = self
        if self.mode == "sampled":
            self._register_sites(runtime)
            self._target_tid = threading.get_ident()
            self._stop = threading.Event()
            # The sampler wakes every ``interval`` but must then take the
            # interpreter lock from the profiled thread, which by default
            # yields it only every 5 ms: samples would land ~5 ms apart
            # whatever ``interval`` says.  Shorten the switch interval
            # while attached so the requested period holds.
            self._switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(min(self._switch_interval, self.interval / 10))
            self._sampler = threading.Thread(
                target=self._sample_loop, name="gmt-prof-sampler", daemon=True
            )
            self._sampler.start()
            return self

        for obj, attr, phase in _phase_sites(runtime):
            self._wrap(obj, attr, phase)
        return self

    def _register_sites(self, runtime) -> None:
        """Build the sampled-mode ``code object -> phase`` table from the
        same site list exact mode wraps."""
        for obj, attr, phase in _phase_sites(runtime):
            fn = getattr(obj, attr, None)
            code = getattr(fn, "__code__", None)
            if code is not None:
                self._code_phases[code] = phase

    def _sample_loop(self) -> None:
        """Sampler thread body: every ``interval``, walk the profiled
        thread's frames innermost-out, map code objects to phases, and
        charge the elapsed wall to the innermost matching phase.

        Samples with no matching frame (and no manual phase) are left
        unattributed — they count against :attr:`coverage`, which is
        exactly the honest outcome for time spent outside the runtime.
        """
        clock = self.clock
        stop = self._stop
        interval = self.interval
        tid = self._target_tid
        code_phases = self._code_phases
        self_s = self.self_s
        stacks = self.stacks
        calls = self.calls
        manual = self._manual
        last = clock()
        while not stop.wait(interval):
            now = clock()
            dt = now - last
            last = now
            frame = sys._current_frames().get(tid)
            phases: list[str] = []  # innermost-first, adjacent dups folded
            while frame is not None:
                phase = code_phases.get(frame.f_code)
                if phase is not None and (not phases or phases[-1] != phase):
                    phases.append(phase)
                frame = frame.f_back
            phases.reverse()
            if manual:
                phases = list(manual) + phases
            if not phases:
                continue
            leaf = phases[-1]
            self_s[leaf] += dt
            stacks[";".join(phases)] += dt
            calls[leaf] += 1

    def detach(self) -> None:
        """Stop sampling / restore every wrapped attribute; the profile
        data stays."""
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join()
            sys.setswitchinterval(self._switch_interval)
            self._sampler = None
            self._stop = None
            self._target_tid = None
        self._drain()
        for obj, attr, original in self._wrapped:
            if original is _CLASS_ATTR:
                vars(obj).pop(attr, None)
            else:
                setattr(obj, attr, original)
        self._wrapped.clear()
        if self._runtime is not None:
            self._runtime._prof = None
            self._runtime = None

    # ------------------------------------------------------------------
    # driving a replay
    # ------------------------------------------------------------------
    def run(self, runtime, trace: Iterable) -> "object":
        """Attach, replay ``trace`` with trace-generation timed as its own
        phase, detach; returns the runtime's :class:`RunResult`."""
        self.attach(runtime)
        accesses0 = runtime.stats.coalesced_accesses
        stats = runtime.stats
        meter = self.throughput
        meter.start(accesses0)
        iterator = iter(trace)
        if self.mode == "sampled":
            # A generator-backed workload shows up in the frame walk as
            # its own code object; tag it so iteration time lands in
            # "trace-gen" instead of going unattributed.
            gen_code = getattr(iterator, "gi_code", None)
            if gen_code is not None:
                self._code_phases[gen_code] = "trace-gen"
        t0 = self.clock()
        self._mark = t0
        try:
            if self.mode == "sampled":
                for warp in iterator:
                    runtime.access_warp(warp)
                    meter.tick(stats.coalesced_accesses)
            else:
                while True:
                    self.enter("trace-gen")
                    try:
                        warp = next(iterator)
                    except StopIteration:
                        break
                    finally:
                        self.exit()
                    runtime.access_warp(warp)
                    meter.tick(stats.coalesced_accesses)
        finally:
            self.wall_s += self.clock() - t0
            self.accesses += runtime.stats.coalesced_accesses - accesses0
            if runtime._obs is not None:
                runtime._obs.finish()
            self.detach()
        return runtime.result()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        """Seconds attributed to named phases (sum of self-times)."""
        self._drain()
        return sum(self.self_s.values())

    @property
    def coverage(self) -> float:
        """Fraction of the replay wall attributed to named phases."""
        if self.wall_s <= 0:
            return 0.0
        return min(1.0, self.attributed_s / self.wall_s)

    @property
    def accesses_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.accesses / self.wall_s

    def report(self) -> dict:
        """JSON-ready profile document (the ``gmt-prof --json-out`` body
        and the ``--compare`` input)."""
        self._drain()
        return {
            "version": PROFILE_VERSION,
            "mode": self.mode,
            "interval_s": self.interval if self.mode == "sampled" else None,
            "wall_s": self.wall_s,
            "accesses": self.accesses,
            "accesses_per_sec": self.accesses_per_sec,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "phases": {
                name: {"self_s": self.self_s.get(name, 0.0), "calls": self.calls.get(name, 0)}
                for name in sorted(self.self_s, key=_phase_order)
            },
            "stacks": dict(sorted(self.stacks.items())),
        }

    def format_top(self, limit: int | None = None) -> str:
        return format_top(self.report(), limit=limit)

    def collapsed_lines(self) -> list[str]:
        return collapsed_lines(self.report())

    def write_collapsed(self, path: str) -> int:
        """Write collapsed-stack lines (flamegraph.pl / speedscope input);
        returns the line count."""
        lines = self.collapsed_lines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)


#: Sentinel marking a wrap that shadowed a class-level attribute.
_CLASS_ATTR = object()

#: Sentinel event tag marking a phase exit in the raw event buffer.
_EXIT = object()


def _phase_sites(runtime):
    """Yield ``(obj, attr, phase)`` phase-boundary sites of ``runtime``.

    The single source of truth for both engines: exact mode wraps each
    site, sampled mode registers each site's code object.
    """
    yield runtime, "access_warp", "dispatch"
    yield runtime, "access", "access"
    yield runtime.page_table, "lookup", "page-table"
    yield runtime.vts, "observe_access", "reuse-policy"
    for name in ("on_access", "choose", "on_tier1_fill", "on_evicted"):
        yield runtime.policy, name, "reuse-policy"
    for selector in (runtime.t1_clock, runtime._t2_order):
        yield selector, "select_victim", "victim-select"
        yield selector, "select_victim_where", "victim-select"
    yield runtime, "_ensure_tier1_frame", "eviction"
    yield runtime, "_evict_from_tier2", "eviction"
    yield runtime, "_writeback_if_dirty", "writeback"
    yield runtime, "_prefetch_after", "prefetch"
    yield runtime.ssd, "record_read", "device-model"
    yield runtime.ssd, "record_write", "device-model"
    yield runtime.pcie, "record_h2d", "device-model"
    yield runtime.pcie, "record_d2h", "device-model"
    queueing = runtime._queueing_model()
    if queueing is not None:
        for name in ("on_hit", "on_miss", "on_background_io", "on_background_pcie"):
            yield queueing, name, "device-model"
    if runtime._obs is not None:
        for name in ("tick", "span", "instant", "on_miss"):
            yield runtime._obs, name, "stats-obs"
    if runtime._flight is not None:
        yield runtime._flight, "emit", "stats-obs"


def _phase_order(name: str):
    try:
        return (0, PHASES.index(name))
    except ValueError:
        return (1, name)


@contextmanager
def profile(runtime) -> Iterator[PhaseProfiler]:
    """Context manager: profile arbitrary driving of ``runtime``.

    >>> with profile(runtime) as prof:
    ...     runtime.run(workload)
    >>> print(prof.format_top())

    Unlike :func:`profile_replay` the trace-generation cost is not
    separable (the caller owns the loop), so it shows up as unattributed
    wall; prefer :func:`profile_replay` for full replays.
    """
    prof = PhaseProfiler()
    prof.attach(runtime)
    accesses0 = runtime.stats.coalesced_accesses
    t0 = prof.clock()
    try:
        yield prof
    finally:
        prof.wall_s += prof.clock() - t0
        prof.accesses += runtime.stats.coalesced_accesses - accesses0
        prof.detach()


def profile_replay(runtime, workload, profiler: PhaseProfiler | None = None):
    """Replay ``workload`` through ``runtime`` under a profiler.

    Returns ``(profiler, run_result)``.
    """
    prof = profiler if profiler is not None else PhaseProfiler()
    result = prof.run(runtime, workload)
    return prof, result


# ----------------------------------------------------------------------
# report rendering / diffing (pure functions over profile documents)
# ----------------------------------------------------------------------
def format_top(doc: dict, limit: int | None = None) -> str:
    """Per-phase top table of a profile document."""
    from repro.analysis.report import render_table

    wall = doc.get("wall_s", 0.0)
    sampled = doc.get("mode", "exact") == "sampled"
    phases = doc.get("phases", {})
    ordered = sorted(phases.items(), key=lambda kv: -kv[1]["self_s"])
    if limit is not None:
        ordered = ordered[:limit]
    rows = []
    for name, rec in ordered:
        self_s = rec["self_s"]
        calls = rec["calls"]
        # ns/call only means something when calls are real call counts
        # (exact mode); in sampled mode the count is sampler hits.
        per_call = f"{self_s / calls * 1e9:10.0f}" if calls and not sampled else "-"
        rows.append(
            [
                name,
                f"{self_s * 1e3:10.2f}",
                f"{self_s / wall:7.1%}" if wall > 0 else "-",
                calls,
                per_call,
            ]
        )
    title = (
        f"phase profile ({doc.get('mode', 'exact')}): wall {wall * 1e3:.1f} ms, "
        f"{doc.get('accesses', 0)} accesses, "
        f"{doc.get('accesses_per_sec', 0.0):,.0f} accesses/s, "
        f"{doc.get('coverage', 0.0):.1%} attributed"
    )
    count_col = "samples" if sampled else "calls"
    return render_table(
        ["phase", "self ms", "% wall", count_col, "ns/call"], rows, title=title
    )


def collapsed_lines(doc: dict, scale: float = 1e6) -> list[str]:
    """Collapsed-stack lines (``stack value``) from a profile document.

    Values are exclusive microseconds (integers — the flamegraph toolchain
    expects integer sample counts).
    """
    lines = []
    for stack, seconds in sorted(doc.get("stacks", {}).items()):
        value = round(seconds * scale)
        if value > 0:
            lines.append(f"{stack} {value}")
    return lines


def diff_profiles(before: dict, after: dict) -> str:
    """Human-readable phase-by-phase diff of two profile documents.

    The table shows where wall-clock moved: negative deltas are phases
    the ``after`` profile made cheaper.  The headline reports the
    throughput change — the number a perf PR quotes.
    """
    from repro.analysis.report import render_table

    names = sorted(
        set(before.get("phases", {})) | set(after.get("phases", {})),
        key=_phase_order,
    )
    rows = []
    for name in names:
        b = before.get("phases", {}).get(name, {"self_s": 0.0, "calls": 0})
        a = after.get("phases", {}).get(name, {"self_s": 0.0, "calls": 0})
        delta = a["self_s"] - b["self_s"]
        ratio = (a["self_s"] / b["self_s"]) if b["self_s"] > 0 else float("inf")
        rows.append(
            [
                name,
                f"{b['self_s'] * 1e3:10.2f}",
                f"{a['self_s'] * 1e3:10.2f}",
                f"{delta * 1e3:+10.2f}",
                "-" if b["self_s"] <= 0 else f"x{ratio:.2f}",
            ]
        )
    rows.sort(key=lambda r: float(r[3]))
    before_rate = before.get("accesses_per_sec", 0.0)
    after_rate = after.get("accesses_per_sec", 0.0)
    speedup = after_rate / before_rate if before_rate > 0 else float("inf")
    title = (
        f"profile diff: {before_rate:,.0f} -> {after_rate:,.0f} accesses/s "
        f"({speedup:.2f}x throughput)"
    )
    return render_table(["phase", "before ms", "after ms", "delta ms", "ratio"], rows, title=title)


def load_profile(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "phases" not in doc:
        raise SimulationError(f"{path}: not a gmt-prof profile document")
    return doc


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-prof``."""
    parser = argparse.ArgumentParser(
        prog="gmt-prof",
        description="Phase-attributed wall-clock profile of one replay",
    )
    parser.add_argument(
        "workload", nargs="?", default=None, help="Table 2 application to replay"
    )
    parser.add_argument(
        "--runtime",
        default="reuse",
        help="runtime kind to profile (default: reuse)",
    )
    parser.add_argument("--scale", type=int, default=4096,
                        help="byte-scale divisor (default 4096)")
    parser.add_argument("--oversubscription", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--exact", action="store_true",
        help="use the deterministic enter/exit engine instead of frame "
        "sampling (precise call counts, but roughly doubles replay cost)",
    )
    parser.add_argument(
        "--interval-ms", type=float, default=1.0, metavar="MS",
        help="sampling period in milliseconds (default 1.0; sampled mode)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most expensive phases",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the profile document (feeds --compare)",
    )
    parser.add_argument(
        "--collapsed-out", metavar="PATH", default=None,
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
        help="diff two saved profile documents instead of replaying",
    )
    parser.add_argument(
        "--min-coverage", type=float, default=None, metavar="FRAC",
        help="exit 1 unless at least FRAC of replay wall-clock was "
        "attributed to named phases (CI smoke assertion)",
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        before, after = (load_profile(p) for p in args.compare)
        print(diff_profiles(before, after))
        return 0
    if args.workload is None:
        parser.error("need a workload to replay (or --compare BEFORE AFTER)")

    from repro.experiments.harness import (
        RUNTIME_KINDS,
        build_runtime,
        default_config,
        get_workload,
    )

    if args.runtime not in RUNTIME_KINDS:
        parser.error(f"unknown runtime {args.runtime!r}; choose from {RUNTIME_KINDS}")
    config = default_config(args.scale)
    workload = get_workload(
        args.workload, config, oversubscription=args.oversubscription, seed=args.seed
    )
    runtime = build_runtime(args.runtime, config)
    profiler = PhaseProfiler(
        mode="exact" if args.exact else "sampled",
        interval=args.interval_ms / 1e3,
    )
    prof, _result = profile_replay(runtime, workload, profiler=profiler)
    print(prof.format_top(limit=args.top))

    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(prof.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote profile to {args.json_out}")
    if args.collapsed_out is not None:
        count = prof.write_collapsed(args.collapsed_out)
        print(f"wrote {count} collapsed stacks to {args.collapsed_out}")
    if args.min_coverage is not None and prof.coverage < args.min_coverage:
        print(
            f"gmt-prof: coverage {prof.coverage:.1%} below required "
            f"{args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main())
