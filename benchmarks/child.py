"""One benchmark operation: a single ``skybps.cli.main([...])`` call.

Run by ``run.py`` in a fresh process, so that its peak RSS belongs to this
operation alone:

    python3 child.py --src SRC --t0 T0 --probe PROBE.json [--setup-only]
                     [--spans SPANS.json] -- verify --config cfg.json ...

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process. The probe file records when ``skybps.cli`` was imported and the
configuration validated (the set-up point), the exit code, the process's own
``ru_maxrss`` and, on an unexpected exception, its traceback. With
``--setup-only`` the operation stops at the set-up point. With ``--spans``
the layer tracer is installed and its spans are written there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


class _SetupDone(Exception):
    pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    probe = {"t0": args.t0, "t_setup": None, "rc": None, "error": None}
    tracer = None
    try:
        sys.path.insert(0, args.src)
        from skybps import cli

        validate = cli._validate_config

        def validate_and_stamp(cfg):
            out = validate(cfg)
            if probe["t_setup"] is None:
                probe["t_setup"] = time.monotonic()
                if args.setup_only:
                    raise _SetupDone
            return out

        cli._validate_config = validate_and_stamp
        if args.spans:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer(op=os.path.basename(os.path.dirname(args.spans)))
            tracer.install()
        probe["rc"] = cli.main(cli_args)
    except _SetupDone:
        probe["rc"] = 0
    except Exception:
        probe["error"] = traceback.format_exc()
        probe["rc"] = 3
    probe["t_end"] = time.monotonic()
    probe["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        probe["numpy"] = numpy.__version__
        probe["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.probe, "w") as f:
        json.dump(probe, f)
    return probe["rc"]


if __name__ == "__main__":
    sys.exit(main())
