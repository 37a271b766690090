"""Run the linksec CLI in this process with a span around each layer call.

Usage: python3 tracer.py SPANS_OUT -- CLI_ARGS...

The program is not changed: each traced function is replaced, at the
module attribute its caller looks it up through, by a wrapper that records
(name, start_ns, end_ns, parent span index, attribute).  Spans stay in a
list in memory and are written to SPANS_OUT as one JSON object when the
CLI returns.  The CLI runs sequentially (default ``--workers``), so one
stack gives every span its parent.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name, note=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``name`` is the span name, or a function of the call arguments that
        returns it; ``note(args, result)`` returns the span's attribute.
        """
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0, 0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(module, attr, wrapper)


def _rows_note(args, result):
    return len(result.rows if hasattr(result, "rows") else result)


def _mc_note(args, result):
    scenario, _, cfg = args
    return [cfg.samples, getattr(scenario, "n_elements", 1), cfg.chunk_size]


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points at the names their callers resolve."""
    import linksec.capacity as capacity
    import linksec.channels as channels
    import linksec.cli as cli
    import linksec.montecarlo as montecarlo
    import linksec.specfun as specfun

    tracer.wrap(cli, "parse_config", "config")
    tracer.wrap(cli, "reference_config", "config")
    for attr in ("run_sweep", "figure_preset", "validate"):
        tracer.wrap(cli, attr, "sweep", _rows_note)
    tracer.wrap(capacity, "ergodic_capacity_irs", "capacity.irs")
    tracer.wrap(capacity, "df_ergodic_capacity", "capacity.df")
    tracer.wrap(capacity, "affg_ergodic_capacity", "capacity.affg")
    tracer.wrap(capacity, "integrate_semi_infinite", "quadrature",
                lambda args, result: result.evaluations)
    tracer.wrap(capacity, "affg_ccdf", "capacity.affg_ccdf")
    tracer.wrap(specfun, "meijer_g_2_1_1_2", "specfun.mgf_contour")
    tracer.wrap(montecarlo, "mc_branch_estimates", lambda args: f"montecarlo.{args[1]}", _mc_note)
    tracer.wrap(channels, "sample_gamma", "channels.sample_gamma",
                lambda args, result: getattr(result, "nbytes", 8))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- CLI_ARGS...", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter_ns()
    import linksec.cli
    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return linksec.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ns": import_ns, "spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
