"""The ``qcurv`` command, as its console-script entry point runs it.

    python3 perfbench/qcurv_cmd.py [--spans FILE] <qcurv arguments>

With ``--spans FILE`` the layer functions are wrapped with recording spans
(see ``tracing.py``) and the spans are written to FILE as JSON on exit.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from qcurv.cli import main as qcurv_main

        return qcurv_main(argv)
    spans_path, argv = argv[1], argv[2:]
    import tracing

    tracer = tracing.Tracer()
    try:
        with tracer.span("cli.child.import"):
            import qcurv.cli
        tracing.install(tracer)
        return qcurv.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": tracer.spans, "values": tracer.values, "absent": tracer.absent},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
