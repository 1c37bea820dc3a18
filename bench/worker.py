"""
One repetition of a workload in a fresh interpreter; started by run.py.

    python3 bench/worker.py SPEC_JSON

SPEC_JSON holds `argv` (the `dominocells` command line), `launched`
(CLOCK_MONOTONIC when run.py started this interpreter), `mode` ("setup"
stops once the arguments are parsed; "run" and "trace" go on to the
verdict) and, for "trace", `out_dir` for the span file.  The last line on
standard output is one JSON object: `setup_s` and `wall_s` at the reference
speed, `setup_raw_s` and `wall_raw_s` as the clock read them,
`peak_rss_mb`, `exit_code` and, when traced, `layers`.

bench/speed.py says what the reference speed is and how a time is rescaled
to it.
"""

import json
import sys
import time

from speed import Speedometer

meter = Speedometer()
meter.start()
spec = json.loads(sys.argv[1])

from dominocells import cli  # noqa: E402  (the import is what set-up time measures)

cli._build_parser().parse_args(spec["argv"])
ready = time.monotonic()


def main() -> None:
    # Imported after `ready`, so that set-up time counts only what the CLI loads.
    import contextlib
    import os
    import resource

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"dominocells was imported from {cli.__file__}, not from {src}")
    result = {
        "setup_s": meter.rescale(spec["launched"], ready),
        "setup_raw_s": ready - spec["launched"],
    }
    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.monotonic()
        with tracer.span("workload") if tracer else contextlib.nullcontext():
            code = cli.main(spec["argv"])
        sys.stdout.flush()
        t1 = time.monotonic()
        meter.sample()
        result["wall_s"] = meter.rescale(t0, t1)
        result["wall_raw_s"] = t1 - t0
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.write_spans(os.path.join(spec["out_dir"], "trace.jsonl"))
            result["layers"] = tracer.layer_metrics()
    meter.stop()
    print(json.dumps(result))


main()
