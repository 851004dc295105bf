"""Run the ``repro`` CLI in-process with a timing span around each layer.

    python perfledger/tracer.py SPANS_DIR REPRO_ARGS...

Spans are recorded from here, around calls into each module's public
functions; nothing inside ``src/`` is changed.  Each span is one JSON line
``[name, start, end, value]`` in ``SPANS_DIR/<pid>.jsonl``, with times from
the system-wide monotonic clock so that the harness can line up spans from
every process.  The main process ends its file with a ``{"entry", "exit"}``
line: when this script started running and when the CLI returned.

Pool workers are forked after the wrappers are installed, so they inherit
them.  A worker starts with an empty span list and appends its spans to its
own file after every fleet run, because pool workers exit without running
``atexit`` handlers.
"""

import os
import sys
import time

ENTRY = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402


class SpanLog:
    """Spans of one process, written to ``<out_dir>/<pid>.jsonl``."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.spans = []
        os.register_at_fork(after_in_child=self.spans.clear)

    def wrap(self, name, fn, value=None, flush_in_worker=False):
        """``fn`` timed into span ``name``; ``value(args, kwargs, result)``
        gives the span's number (a count, steps, ...)."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                v = 0 if value is None or result is None else value(args, kwargs, result)
                spans.append((name, start, end, v))
                if flush_in_worker and os.getpid() != self.main_pid:
                    self.flush()

        return traced

    def mark(self, name):
        now = time.monotonic()
        self.spans.append((name, now, now, 1))

    def flush(self, **process):
        path = os.path.join(self.out_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            if process:
                handle.write(json.dumps(process) + "\n")
        self.spans.clear()


def install(log):
    """Wrap every layer's public entry points; returns the traced ``main``."""
    start = time.monotonic()
    import repro.cli as cli

    log.spans.append(("cli.import", start, time.monotonic(), 0))

    from repro.engine import DEFAULT_FLEET_SIZE, FLEET_ENGINES
    from repro.experiments import scheduler, spec, store
    from repro.sim import runner

    for family, (params, builder) in list(spec.FAMILY_BUILDERS.items()):
        spec.FAMILY_BUILDERS[family] = (params, log.wrap("graphs.build", builder))

    def traced_fleet(factory):
        init = log.wrap("engine.fleet_init", factory)

        def make(*args, **kwargs):
            fleet = init(*args, **kwargs)
            fleet.run_until_cover = log.wrap(
                "engine.run",
                fleet.run_until_cover,
                value=lambda a, k, covers: sum(covers),
                flush_in_worker=True,
            )
            return fleet

        return make

    for walk, factory in list(FLEET_ENGINES.items()):
        FLEET_ENGINES[walk] = traced_fleet(factory)

    signature = inspect.signature(runner.run_trials)

    def batches(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        trials = len(bound["trial_indices"])
        if bound.get("engine") != "fleet":
            return trials
        size = bound.get("fleet_size") or DEFAULT_FLEET_SIZE
        return -(-trials // size)

    run_trials = log.wrap("runner.run_trials", runner.run_trials, value=batches)
    runner.run_trials = scheduler.run_trials = run_trials

    class CountedPool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log.mark("runner.pool_start")
            super().__init__(*args, **kwargs)

    runner.ProcessPoolExecutor = CountedPool

    result_store = store.ResultStore
    result_store.record = log.wrap("store.append", result_store.record)
    result_store.trials_for = log.wrap(
        "store.read", result_store.trials_for, value=lambda a, k, records: len(records)
    )
    result_store.record_manifest = log.wrap("store.manifest", result_store.record_manifest)
    cli.run_sweep = log.wrap("scheduler.run_sweep", cli.run_sweep)
    cli.format_sweep_report = log.wrap("reports.format", cli.format_sweep_report)
    return log.wrap("cli.main", cli.main)


def main():
    out_dir, argv = sys.argv[1], sys.argv[2:]
    log = SpanLog(out_dir)
    code = 1
    try:
        code = install(log)(argv)
    finally:
        log.flush(entry=ENTRY, exit=time.monotonic())
    return code


if __name__ == "__main__":
    sys.exit(main())
