"""Run one ``fedconn`` command in this process and record what the parent cannot see.

    python3 perfbench/child.py --side FILE --mode MODE -- <fedconn arguments>

The report goes to standard output exactly as ``fedconn`` prints it.  FILE
receives a JSON object with ``setup_end``, the ``time.monotonic()`` reading
(one clock for all processes on the machine) taken when the scenario's model
is built, ``peak_rss_kb`` and the per-layer numbers of a traced mode.  In the
untraced modes it also receives ``probe``, the speed samples of
``probe.Sampler`` over the whole job, and ``setup_probe_s``, the time spent
in samples before ``setup_end``.  MODE is one of

* ``plain``: no instrumentation besides the speed samples;
* ``setup``: stop with exit code 0 as soon as the model is built;
* ``spans``: wrap the layers listed in ``spans.SPANS``;
* ``profile``: run under ``cProfile`` and sum the ring classes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from fedconn import cli
from fedconn.scenario import Scenario

import probe
import spans

# the calls that build each command's model: FedosovSetup (quantize),
# FamilyContext, which solves its FedosovSetup (family, gauge), and the
# linear Kahler family (kahler)
MODEL_BUILDERS = ("build_setup", "build_family", "build_kahler")


def _record_setup(side: dict, stop: bool, sampler):
    def wrap(build):
        def timed(self, *args, **kwargs):
            model = build(self, *args, **kwargs)
            if "setup_end" not in side:
                side["setup_end"] = time.monotonic()
                side["setup_probe_s"] = sampler.total_s() if sampler else 0.0
            if stop:
                raise SystemExit(0)
            return model
        return timed

    for name in MODEL_BUILDERS:
        setattr(Scenario, name, wrap(getattr(Scenario, name)))


def _peak_rss_kb():
    """High-water resident set of this process's own address space (Linux).

    ``ru_maxrss`` does not serve: it also counts the resident set the parent
    had when it spawned this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True)
    parser.add_argument("--mode", choices=("plain", "setup", "spans", "profile"), required=True)
    parser.add_argument("fedconn_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    fedconn_args = args.fedconn_args[1:] if args.fedconn_args[:1] == ["--"] else args.fedconn_args

    side = {}
    sampler = probe.Sampler() if args.mode in ("plain", "setup") else None
    _record_setup(side, stop=args.mode == "setup", sampler=sampler)
    tracer = profile = None
    if args.mode == "spans":
        tracer = spans.Tracer()
        side["missing"] = tracer.install()
    elif args.mode == "profile":
        import cProfile
        profile = cProfile.Profile()
    try:
        if sampler is not None:
            sampler.start()
        if profile is not None:
            profile.enable()
        try:
            code = cli.main(fedconn_args)
        finally:
            if profile is not None:
                profile.disable()
        sys.stdout.flush()
        if tracer is not None:
            side["layers"] = tracer.sums()
        if profile is not None:
            side["layers"] = spans.ring_stats(profile)
    finally:
        if sampler is not None:
            sampler.stop()
            side["probe"] = sampler.stats()
        side["peak_rss_kb"] = _peak_rss_kb()
        with open(args.side, "w", encoding="utf-8") as fh:
            json.dump(side, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
