"""One benchmark child process: import entwined, validate, run CLI commands.

Run as ``python3 child.py SPEC`` where SPEC is a JSON object with ``src``
(the checkout's ``src`` directory), ``spawned`` (the parent's
``time.monotonic()`` just before starting this process), ``commands`` (CLI
argument lists) and ``trace``.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _config_issues(cli, argv: list[str]) -> list[str]:
    """Resolve a command line through the CLI's public config functions."""
    args = cli.build_parser().parse_args(argv)
    sections = {"n": "lattice", "mass_scale": "lattice", "threads": "run", "out": "run"}
    overrides = {(sections.get(key, args.command), key): value
                 for key, value in vars(args).items() if key not in ("command", "config")}
    config = cli.load_config(args.command, args.config, overrides)
    return cli.validate(config)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import numpy

    import entwined
    from entwined import cli

    if not os.path.abspath(entwined.__file__).startswith(src + os.sep):
        print(f"entwined was imported from {entwined.__file__}, not {src}", file=sys.stderr)
        return 2
    for argv in spec["commands"]:
        issues = _config_issues(cli, argv)
        if issues:
            print(f"invalid configuration {argv}: {issues}", file=sys.stderr)
            return 2
    setup_s = time.monotonic() - spec["spawned"]

    tracer = observer = None
    if spec["trace"]:
        import counts
        import tracing

        observer = counts.Observer()
        tracer = tracing.Tracer(observer.hooks)
        tracing.install(tracer)

    run_s, codes = [], []
    for argv in spec["commands"]:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes.append(cli.main(argv))
            run_s.append(time.perf_counter() - start)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "setup_s": setup_s,
        "run_s": sum(run_s),
        "codes": codes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "user_s": usage.ru_utime,
        "system_s": usage.ru_stime,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["spans"] = tracer.spans()
        report["counts"] = observer.counts()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
