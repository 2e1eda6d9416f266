"""Run one uwdiff CLI stage in this process, as the `uwdiff` entry point does.

    python3 stage.py [--trace FILE | --setup-probe FILE] -- <stage> <args...>

Plain, it calls `uwdiff.cli.main` and exits with its code. `--trace FILE`
installs the tracer hooks first and writes the span totals to FILE when the
stage ends. `--setup-probe FILE` stops the stage where its first item would
begin and writes the CLOCK_MONOTONIC time of that moment to FILE, so the
caller can tell how long the process took to get there.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Where each stage's first item begins: (hook target, "before" the call or
# "after" it returns). synth stops once the template pool is built, because
# its next call already decodes the first clean image.
FIRST_ITEM = {
    "enhance": ("uwdiff.pipeline:enhance_image", "before"),
    "finetune": ("uwdiff.cli:fine_tune", "before"),
    "train-prompts": ("uwdiff.cli:load_image", "before"),
    "eval": ("uwdiff.cli:load_image", "before"),
    "synth": ("uwdiff.synthesis:TemplatePool.from_dir", "after"),
}

PROBE_NOT_REACHED = 3


class _FirstItem(Exception):
    pass


def _install_stop(target: str, when: str) -> None:
    # resolved here, not through tracer, so the probe loads nothing a plain stage does not
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    fn = getattr(owner, attr)  # a classmethod comes back bound to its class

    def stop(*args, **kwargs):
        if when == "after":
            fn(*args, **kwargs)
        raise _FirstItem

    setattr(owner, attr, stop)


def run(argv: list[str], trace: str | None = None, probe: str | None = None) -> int:
    import uwdiff.cli

    if probe is not None:
        _install_stop(*FIRST_ITEM[argv[0]])
        try:
            uwdiff.cli.main(argv)
        except _FirstItem:
            reached = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            with open(probe, "w", encoding="utf-8") as fh:
                fh.write(f"{reached}\n")
            return 0
        return PROBE_NOT_REACHED
    if trace is None:
        return uwdiff.cli.main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = uwdiff.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


def main(args: list[str]) -> int:
    trace = probe = None
    while args and args[0] != "--":
        flag, value, args = args[0], args[1], args[2:]
        if flag == "--trace":
            trace = value
        elif flag == "--setup-probe":
            probe = value
        else:
            raise SystemExit(f"unknown option {flag!r}")
    return run(args[1:], trace=trace, probe=probe)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
