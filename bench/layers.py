"""Per-layer metrics computed from the spans of traced CLI passes.

A pass is one traced CLI invocation: ``{"import_ns": int, "spans": [...]}``
as written by tracer.py, each span ``[name, start_ns, end_ns, parent, note]``.
A span's self time is its duration minus the durations of its children;
spans of one pass nest (one thread), so children never overlap.

Counts (calls, integrand evaluations, samples, computed bytes) must repeat
exactly from pass to pass.  Times are the median over passes; rates and
call-time percentiles pool every pass.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

ARCHS = ("irs", "df", "affg")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("sweep.rows", "count", "higher"),
    ("sweep.self_s", "s", "lower"),
    *(
        metric
        for arch in ARCHS
        for metric in (
            (f"capacity.{arch}.calls", "count", "lower"),
            (f"capacity.{arch}.call_ms_p50", "ms", "lower"),
            (f"capacity.{arch}.call_ms_tail", "ms", "lower"),
            (f"capacity.{arch}.call_ms_tail_pct", "pct", "higher"),
        )
    ),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.irs.integrand_evals", "count", "lower"),
    ("quadrature.affg.integrand_evals", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("specfun.mgf_contour.calls", "count", "lower"),
    ("specfun.mgf_contour.time_s", "s", "lower"),
    ("specfun.mgf_contour.us_per_call", "us", "lower"),
    ("capacity.affg_ccdf.calls", "count", "lower"),
    ("capacity.affg_ccdf.time_s", "s", "lower"),
    ("capacity.affg_ccdf.us_per_call", "us", "lower"),
    ("montecarlo.samples", "count", "higher"),
    ("montecarlo.irs.samples_per_s", "1/s", "higher"),
    ("montecarlo.df.samples_per_s", "1/s", "higher"),
    ("montecarlo.affg.samples_per_s", "1/s", "higher"),
    ("montecarlo.irs.element_draws_per_s", "1/s", "higher"),
    ("montecarlo.self_s", "s", "lower"),
    ("montecarlo.chunk_bytes_computed", "B", "lower"),
    ("channels.sample_gamma.calls", "count", "lower"),
    ("channels.sample_gamma.time_s", "s", "lower"),
    ("channels.sample_gamma.share", "fraction", "lower"),
    ("trace.passes", "count", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Deterministic per-pass counts: the same on every pass and every seed.
COUNTS = (
    "sweep.rows",
    *(f"capacity.{arch}.calls" for arch in ARCHS),
    "quadrature.calls",
    "quadrature.integrand_evals",
    "quadrature.irs.integrand_evals",
    "quadrature.affg.integrand_evals",
    "specfun.mgf_contour.calls",
    "capacity.affg_ccdf.calls",
    "montecarlo.samples",
    "montecarlo.chunk_bytes_computed",
    "channels.sample_gamma.calls",
)

# Per-pass times reported as their median over passes.
TIMES = (
    "setup.import_s",
    "config.parse_s",
    "sweep.self_s",
    "quadrature.self_s",
    "specfun.mgf_contour.time_s",
    "capacity.affg_ccdf.time_s",
    "montecarlo.self_s",
    "channels.sample_gamma.time_s",
    "trace.unattributed_frac",
)

# The layers whose self times should account for a fig3-analytic pass.
ANALYTIC_LEAVES = ("specfun.mgf_contour", "capacity.affg_ccdf", "quadrature")

TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def tail(values: list[float]) -> tuple[float, float]:
    """(p, value) of the highest percentile with at least ten samples beyond it.

    (0, 0.0) when there are fewer than 20 samples.
    """
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return float(p), percentile(values, p)
    return 0.0, 0.0


def pass_stats(record: dict) -> dict:
    """Counts, times and per-call samples of one traced pass."""
    spans = record["spans"]
    dur = [s[2] - s[1] for s in spans]
    covered = [0] * len(spans)
    drawn_bytes = defaultdict(list)
    for i, (name, _, _, parent, note) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
            if name == "channels.sample_gamma":
                drawn_bytes[parent].append(note)
    calls = Counter()
    total_ns = Counter()
    self_ns = Counter()
    call_ms = defaultdict(list)
    evals = Counter()
    mc_samples = Counter()
    mc_ns = Counter()
    element_draws = 0
    chunk_bytes = 0
    for i, (name, _, _, parent, note) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += dur[i]
        self_ns[name] += dur[i] - covered[i]
        if name.startswith("capacity.") and name[9:] in ARCHS:
            call_ms[name].append(dur[i] / 1e6)
        elif name == "quadrature" and note is not None:
            evals["all"] += note
            if parent >= 0:
                evals[spans[parent][0]] += note
        elif name.startswith("montecarlo."):
            samples, n_elements, chunk_size = note
            arch = name[11:]
            mc_samples[arch] += samples
            mc_ns[arch] += dur[i]
            if arch == "irs":
                element_draws += samples * n_elements
            # Bytes of the arrays drawn for one chunk (computed from the
            # array sizes, not measured); the largest chunk of the pass.
            sizes = drawn_bytes[i]
            n_chunks = -(-samples // chunk_size)
            per_chunk = len(sizes) // n_chunks
            if per_chunk:
                chunk_bytes = max(
                    chunk_bytes,
                    max(sum(sizes[j:j + per_chunk]) for j in range(0, len(sizes), per_chunk)),
                )
    pass_ns = total_ns["sweep"]
    leaves_ns = sum(self_ns[name] for name in ANALYTIC_LEAVES)
    mc_total = sum(total_ns[f"montecarlo.{a}"] for a in ARCHS)
    mc_self = sum(self_ns[f"montecarlo.{a}"] for a in ARCHS)
    counts = {
        "sweep.rows": sum(s[4] or 0 for s in spans if s[0] == "sweep"),
        **{f"capacity.{a}.calls": calls[f"capacity.{a}"] for a in ARCHS},
        "quadrature.calls": calls["quadrature"],
        "quadrature.integrand_evals": evals["all"],
        "quadrature.irs.integrand_evals": evals["capacity.irs"],
        "quadrature.affg.integrand_evals": evals["capacity.affg"],
        "specfun.mgf_contour.calls": calls["specfun.mgf_contour"],
        "capacity.affg_ccdf.calls": calls["capacity.affg_ccdf"],
        "montecarlo.samples": sum(mc_samples.values()),
        "montecarlo.chunk_bytes_computed": chunk_bytes,
        "channels.sample_gamma.calls": calls["channels.sample_gamma"],
    }
    times = {
        "setup.import_s": record["import_ns"] / 1e9,
        "config.parse_s": total_ns["config"] / 1e9,
        "sweep.self_s": self_ns["sweep"] / 1e9,
        "quadrature.self_s": self_ns["quadrature"] / 1e9,
        "specfun.mgf_contour.time_s": total_ns["specfun.mgf_contour"] / 1e9,
        "capacity.affg_ccdf.time_s": total_ns["capacity.affg_ccdf"] / 1e9,
        "montecarlo.self_s": mc_self / 1e9,
        "channels.sample_gamma.time_s": total_ns["channels.sample_gamma"] / 1e9,
        "trace.unattributed_frac": 1.0 - leaves_ns / pass_ns if pass_ns else 0.0,
    }
    return {
        "counts": counts,
        "times": times,
        "call_ms": call_ms,
        "mc_samples": mc_samples,
        "mc_ns": mc_ns,
        "mc_total_ns": mc_total,
        "element_draws": element_draws,
    }


def summarize(passes: list[dict], traced_walls: list[float], plain_walls: list[float]):
    """Per-layer metrics over traced passes; also whether counts repeated.

    ``traced_walls`` and ``plain_walls`` are the wall times of the traced
    and untraced invocations of the same run, which give the tracing
    overhead.
    """
    stats = [pass_stats(p) for p in passes]
    counts_repeat = all(s["counts"] == stats[0]["counts"] for s in stats)
    m = dict(stats[0]["counts"])
    for name in TIMES:
        m[name] = statistics.median(s["times"][name] for s in stats)
    for arch in ARCHS:
        samples = [x for s in stats for x in s["call_ms"][f"capacity.{arch}"]]
        pct, value = tail(samples)
        m[f"capacity.{arch}.call_ms_p50"] = percentile(samples, 50) if samples else 0.0
        m[f"capacity.{arch}.call_ms_tail"] = value
        m[f"capacity.{arch}.call_ms_tail_pct"] = pct
        mc_ns = sum(s["mc_ns"][arch] for s in stats)
        m[f"montecarlo.{arch}.samples_per_s"] = (
            sum(s["mc_samples"][arch] for s in stats) / (mc_ns / 1e9) if mc_ns else 0.0
        )
    irs_ns = sum(s["mc_ns"]["irs"] for s in stats)
    m["montecarlo.irs.element_draws_per_s"] = (
        sum(s["element_draws"] for s in stats) / (irs_ns / 1e9) if irs_ns else 0.0
    )
    for name in ("specfun.mgf_contour", "capacity.affg_ccdf"):
        n = m[f"{name}.calls"]
        m[f"{name}.us_per_call"] = m[f"{name}.time_s"] / n * 1e6 if n else 0.0
    mc_total = sum(s["mc_total_ns"] for s in stats)
    m["channels.sample_gamma.share"] = (
        sum(s["times"]["channels.sample_gamma.time_s"] for s in stats) * 1e9 / mc_total
        if mc_total else 0.0
    )
    m["trace.passes"] = len(passes)
    m["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        if traced_walls and plain_walls else 0.0
    )
    return {name: m[name] for name, _, _ in PER_LAYER}, counts_repeat
