"""Sampled (VTD, reuse-distance) pair collection with pipelined flushes.

Paper section 2.1.3, step 1: "the GPU pushes collected VTD samples into a
queue shared with the CPU, that is regularly consumed by a dedicated thread
on the latter.  This thread uses these samples and employs a tree-based
method to calculate actual reuse distances from the VTDs. ... rather than
wait until we get this final equation at the end of sampling, we pipeline
the samples (every 10000 samples) to the CPU thread, which iteratively
improves on the regression."

In the reproduction the "GPU side" is the sampler's :meth:`observe` call on
the access path and the "CPU side" is the reuse-distance tracker plus the
incremental OLS; the shared queue is the batch buffer between them.  The
division of labour (and the batch cadence) is preserved even though both
sides run in one process.
"""

from __future__ import annotations

from repro.reuse.distance import ReuseDistanceTracker
from repro.reuse.regression import IncrementalOLS, LinearModel


class VTDSampler:
    """Collect (VTD, RD) training pairs early in execution and maintain the
    pipelined OLS fit of RD = m * VTD + b.

    Args:
        sample_target: stop collecting after this many *pairs* (the paper
            collects "hundreds of thousands"; scaled configs use fewer).
        batch_size: flush cadence to the regression (paper: 10 000).
    """

    #: Optional :class:`~repro.obs.telemetry.Telemetry` — feeds the
    #: reuse-distance histogram and flush markers; None costs one check.
    telemetry = None

    def __init__(self, sample_target: int = 100_000, batch_size: int = 10_000) -> None:
        if sample_target <= 0:
            raise ValueError(f"sample_target must be positive, got {sample_target}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.sample_target = sample_target
        self.batch_size = batch_size
        self._rd_tracker = ReuseDistanceTracker()
        self._ols = IncrementalOLS()
        self._queue: list[tuple[int, int]] = []  # the GPU->CPU sample queue
        self._collected = 0
        self._model: LinearModel | None = None

    @property
    def collected(self) -> int:
        """Number of training pairs gathered so far."""
        return self._collected

    @property
    def sampling_done(self) -> bool:
        return self._collected >= self.sample_target

    @property
    def model(self) -> LinearModel | None:
        """Latest pipelined fit, or ``None`` before the first flush."""
        return self._model

    def observe(self, page: int, vtd: int | None) -> None:
        """Feed one coalesced access (GPU side).

        Every access during the sampling window is run through the exact
        reuse-distance tracker; accesses that have both a finite VTD and a
        finite RD become training pairs.  After the target is reached this
        becomes a no-op, so the steady-state access path pays nothing.
        """
        if self._collected >= self.sample_target:
            return  # sampling done
        rd = self._rd_tracker.record(page)
        if vtd is None or rd is None:
            return
        self._queue.append((vtd, rd))
        self._collected += 1
        if self.telemetry is not None:
            self.telemetry.reuse_distance.observe(rd)
        if len(self._queue) >= self.batch_size or self.sampling_done:
            self._flush()

    def _flush(self) -> None:
        """Hand the queued samples to the "CPU thread" (OLS update)."""
        if not self._queue:
            return
        batch = len(self._queue)
        vtds = [float(v) for v, _ in self._queue]
        rds = [float(r) for _, r in self._queue]
        self._ols.update(vtds, rds)
        self._queue.clear()
        if self._ols.ready:
            self._model = self._ols.model()
        if self.telemetry is not None:
            args = {"samples": batch, "collected": self._collected}
            if self._model is not None:
                args["slope"] = self._model.m
                args["intercept"] = self._model.b
            self.telemetry.instant("sampler-flush", "reuse", **args)

    def predict_rrd(self, rvtd: int) -> float | None:
        """Project a remaining VTD to a remaining reuse distance (Eq. 3).

        Returns ``None`` while no model is available (the runtime then
        falls back to a default placement strategy, as the paper allows).
        Predictions are clamped at zero: a distance cannot be negative.
        """
        model = self._model
        if model is None:
            return None
        rrd = model.predict(float(rvtd))
        return rrd if rrd > 0.0 else 0.0
