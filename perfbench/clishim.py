"""Run one `spsys` command with spans, for the traced cli-batch jobs.

    python3 perfbench/clishim.py SPANS_OUT <spsys arguments...>

Behaves like `python3 -m spsys.cli <arguments>` (same stdout, stderr and
exit code) and also writes the spans of the imports, of `cli.main` and of
the formats, classify and cpmaps functions the CLI calls to SPANS_OUT. The
functions are wrapped on their modules at run time; no spsys file changes.
"""

import json
import sys

from spans import Tracer

WRAPPED = {"formats": ("build_system", "dump_json"),
           "classify": ("q_equivalent", "quad_equivalent"),
           "cpmaps": ("strong_commute_stochastic", "as_fiber_dims")}


def _wrap(tracer, module, attr):
    fn = getattr(module, attr)
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    setattr(module, attr, traced)


def main(argv):
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.job = 0  # the worker files these spans under its own job id
    with tracer.span("spsys.import"):
        import spsys
    with tracer.span("cli.import"):
        import spsys.cli
    for module, attrs in WRAPPED.items():
        for attr in attrs:
            _wrap(tracer, getattr(spsys, module), attr)
    code = 1
    try:
        with tracer.span("cli.main"):
            code = spsys.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w") as f:
            json.dump(tracer.records, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
