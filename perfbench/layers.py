"""Per-layer metrics of the traced run.

Counts come from the workload's own operations, repeated in traced passes
(see run.py). Gaussian numbers drawn and Monte Carlo chunks are observed in
the library: during a traced pass ``counting_streams`` replaces the
``stream`` that its modules call with one that counts each generator made
and each standard normal drawn. LASSO iterations come from the solver's own
diagnostics. A layer the workload's operations never call counts zero.

Times come from probes: calls into each layer's public functions on the
workload's own instances, at the workload's own sizes, each wrapped in a
span. Where the operations never reach a layer, its probe runs at the
smallest size that exercises it on the workload's first instance (one
4096-sample chunk; two LASSO trials at m = 3n/4; ten denoise trials at two
noise levels), so every time is a measurement of this workload's data.
"""

from __future__ import annotations

import statistics
import tracemalloc
from contextlib import contextmanager

import numpy as np

from proxmse import cli, denoise, geometry, lasso, prox, signals
from proxmse.streams import stream

# every module that draws through streams.stream
STREAM_USERS = (geometry, denoise, lasso, signals)

COUNTS = ("streams.samples", "geometry.chunks", "lasso.iterations", "lasso.iter_max",
          "lasso.excluded")


class _CountingGenerator:
    """A random generator that counts the standard normals it draws."""

    def __init__(self, rng: np.random.Generator, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._tracer.count("streams.samples", int(np.size(out)))
        return out

    def __getattr__(self, name: str):
        return getattr(self._rng, name)


@contextmanager
def counting_streams(tracer):
    """Count, in ``tracer``, what the library draws while the block runs.

    geometry makes one stream per Monte Carlo chunk, so the streams it makes
    are ``geometry.chunks``.
    """
    def counted(module):
        def make(seed: int, *path: int):
            if module is geometry:
                tracer.count("geometry.chunks", 1)
            return _CountingGenerator(stream(seed, *path), tracer)
        return make

    for module in STREAM_USERS:
        module.stream = counted(module)
    try:
        yield
    finally:
        for module in STREAM_USERS:
            module.stream = stream


def _per_call_us(tracer, name: str, fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the time per call, in microseconds."""
    per_call = []
    for _ in range(batches):
        with tracer.span(name) as index:
            for _ in range(calls):
                fn()
        start, end = tracer.spans[index][1:3]
        per_call.append((end - start) / calls * 1e6)
    return statistics.median(per_call)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _draw(mc, dim: int) -> None:
    done, ci = 0, 0
    while done < mc.samples:
        n = min(mc.chunk, mc.samples - done)
        stream(mc.seed, ci).standard_normal((n, dim))
        done += n
        ci += 1


def probe(w, tracer) -> dict[str, float]:
    m = {}
    rng = np.random.default_rng(w.seed)

    # signals: building the workload's instances
    makes = [tracer.timed("signals.make", w.make_instances, w.seed)[1] for _ in range(5)]
    m["signals.make_s"] = statistics.median(makes)

    # streams: the chunk layout the geometry probe reads, and one stream
    draw = lam0 = cone = optlam = 0.0
    for s, mc in w.mc_probe():
        draw += tracer.timed("streams.draw", _draw, mc, s.ambient_dim)[1]
    m["streams.draw_s"] = draw
    m["streams.create_us"] = _per_call_us(tracer, "streams.stream",
                                          lambda: stream(w.seed, 1, 2), 400)

    # geometry: profile, scale minimisation, tuned scale, their memory
    cone_peak = optlam_peak = 0.0
    for s, mc in w.mc_probe():
        lam0 += tracer.timed("geometry.msd_lambda0", geometry.msd_lambda, s, 0.0, mc)[1]
        cone += tracer.timed("geometry.msd_cone", geometry.msd_cone, s, mc)[1]
        optlam += tracer.timed("geometry.optimal_lambda", geometry.optimal_lambda, s, mc)[1]
        cone_peak = max(cone_peak, _peak_mb(lambda: geometry.msd_cone(s, mc)))
        optlam_peak = max(optlam_peak, _peak_mb(lambda: geometry.optimal_lambda(s, mc)))
    m["geometry.profile_s"] = lam0 - draw
    m["geometry.minimise_s"] = cone - lam0
    m["geometry.optlam_s"] = optlam - lam0
    m["geometry.cone_peak_mb"] = cone_peak
    m["geometry.optlam_peak_mb"] = optlam_peak
    s0 = w.first().structure
    g = rng.standard_normal(s0.ambient_dim)
    m["geometry.dist_sq_us"] = _per_call_us(
        tracer, "geometry.dist_sq_scaled_subdiff",
        lambda: geometry.dist_sq_scaled_subdiff(s0, g, 1.0), 100)

    # prox: one call at the workload's vector length or matrix side
    y = rng.standard_normal(w.vec_dim())
    x = prox.soft_threshold(y, 0.5).minimizer
    radius = 0.5 * float(np.abs(y).sum())
    mat = rng.standard_normal((w.mat_d(), w.mat_d()))
    nuclear = 0.5 * float(np.linalg.svd(mat, compute_uv=False).sum())
    m["prox.soft_threshold_us"] = _per_call_us(
        tracer, "prox.soft_threshold", lambda: prox.soft_threshold(y, 0.5), 200)
    m["prox.residual_us"] = _per_call_us(
        tracer, "prox.prox_residual", lambda: prox.prox_residual("l1", y, x, 0.5), 200)
    m["prox.project_ball_l1_us"] = _per_call_us(
        tracer, "prox.project_ball_l1", lambda: prox.project_ball(y, "l1", radius), 200)
    m["prox.svt_us"] = _per_call_us(
        tracer, "prox.singular_value_threshold",
        lambda: prox.singular_value_threshold(mat, 0.5), 50)
    m["prox.project_ball_nuclear_us"] = _per_call_us(
        tracer, "prox.project_ball_nuclear",
        lambda: prox.project_ball(mat, "nuclear", nuclear), 50)

    # lasso: one Haar operator per m, then the sweep; the rest is iterations
    inst, m_grid, trials = w.lasso_probe()
    n = inst.ambient_dim
    operator = sum(tracer.timed("lasso.sample_partial_unitary", lasso.sample_partial_unitary,
                                mm, n, w.seed)[1] for mm in m_grid)
    (_, diags), sweep = tracer.timed(
        "lasso.sweep_measurements", lasso.sweep_measurements, inst, m_grid, trials=trials,
        seed=w.seed, d_reference=89.0, collect=True)
    iterations = sum(d.iterations for mm in m_grid for d in diags[mm])
    m["lasso.operator_s"] = operator
    m["lasso.s_per_iter"] = (sweep - trials * operator) / max(iterations, 1)

    # denoise: direct run_* calls, per trial
    seconds = work = 0
    for label, thunk, trials in w.denoise_probe():
        seconds += tracer.timed(f"denoise.{label}", thunk)[1]
        work += trials
    m["denoise.trial_us"] = seconds / work * 1e6

    # cli: a job minus the direct library calls it makes
    overheads = []
    for argv, direct in w.cli_probe():
        jobs = [tracer.timed("cli.main", cli.main, argv)[1] for _ in range(3)]
        calls = [tracer.timed("cli.direct", direct)[1] for _ in range(3)]
        overheads.append(statistics.median(jobs) - statistics.median(calls))
    m["cli.overhead_s"] = statistics.fmean(overheads)
    return m
