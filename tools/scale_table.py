"""Write the scale table: wall time and peak RSS of fedconn runs past desk scale.

    python3 tools/scale_table.py --side parent=../parent-checkout --side change=. \
        [--out SCALE_TABLE.md]

Each ``--side LABEL=PATH`` names a checkout whose ``src`` is run.  The runs
are ``quantize`` on the generated curved R^4 (``perfbench/gen.py`` of this
checkout, at seed 0) and on the curved R^6 of ``tools/curved_r6.py`` (the
same seed), both at orders K = 2..5, ``family`` on
``scenarios/family_r2.scn`` at orders 1 and 3..6, ``gauge`` on it at orders
1 and 3..5 and on its pull-back off Darboux coordinates,
``scenarios/family_sheared_r2.scn``, at order 4, and ``family`` on
``scenarios/kahler_r4.scn`` at orders 1 and 3, the shipped
runs that ask for a flat section or the symbol again, deeper; every side
runs the same scenario files.  Each run is a fresh
``python`` child, one at a time, with the sides alternating; its wall time
counts interpreter start and imports, and its peak RSS is the child's own
``VmHWM``.  The table gives the median of five runs per side, and says
whether every side printed the same report; ``NOTES`` explains a row whose
reports differ by design, under the table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from curved_r6 import curved_r6, load_gen

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5  # runs per side and job
SEED = 0  # of the generated R^4 and R^6; every seed gives the same term counts and sizes
# rows whose reports differ between a checkout that kept the file's deeper
# truncation under a lower --order and one that derives it from K
NOTES = {
    "family family_r2 K=1": "`family` prints `i_V s` by total degree up to its truncation: "
                            "degrees 3..8 when built at the file's 2 * 3 + 2 = 8, degrees 3 "
                            "and 4 when built at 2K + 2 = 4, as the file with `order = 1` is.",
}

# runs one fedconn command and prints its exit code,  and VmHWM as JSON
CHILD = """
import contextlib, hashlib, io, json, sys
from fedconn.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[1:])
hwm = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                  "vmhwm_kib": int(hwm)}))
"""


def jobs(r4: Path, r6: Path):
    family = ROOT / "scenarios" / "family_r2.scn"
    out = [(f"quantize R^4 K={k}", ["quantize", "--scenario", str(r4), "--order", str(k)])
           for k in range(2, 6)]
    out += [(f"quantize R^6 K={k}", ["quantize", "--scenario", str(r6), "--order", str(k)])
            for k in range(2, 6)]
    out += [(f"family family_r2 K={k}", ["family", "--scenario", str(family), "--order", str(k)])
            for k in (1, 3, 4, 5, 6)]
    out += [(f"gauge family_r2 K={k}", ["gauge", "--scenario", str(family), "--order", str(k)])
            for k in (1, 3, 4, 5)]
    sheared = ROOT / "scenarios" / "family_sheared_r2.scn"
    out.append(("gauge family_sheared_r2 K=4",
                ["gauge", "--scenario", str(sheared), "--order", "4"]))
    kahler = ROOT / "scenarios" / "kahler_r4.scn"
    out += [(f"family kahler_r4 K={k}", ["family", "--scenario", str(kahler), "--order", str(k)])
            for k in (1, 3)]
    return out


def run(src: Path, argv) -> dict:
    env = {"PYTHONPATH": str(src), "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8",
           "PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True,
                          text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"{argv} failed under {src}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        raise SystemExit(f"{argv} exited {result['code']} under {src}")
    return {"wall_s": wall, "rss_mib": result["vmhwm_kib"] / 1024, "sha256": result["sha256"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--out", type=Path, default=ROOT / "SCALE_TABLE.md")
    args = parser.parse_args(argv)
    sides = [(label, Path(path).resolve() / "src")
             for label, path in (s.split("=", 1) for s in args.side)]
    with tempfile.TemporaryDirectory() as tmp:
        r4, r6 = Path(tmp) / "curved_r4.scn", Path(tmp) / "curved_r6.scn"
        r4.write_text(load_gen().curved_r4(SEED), encoding="utf-8")
        r6.write_text(curved_r6(SEED), encoding="utf-8")
        results = {}
        for name, cli_args in jobs(r4, r6):
            for r in range(REPEAT):
                order = sides if r % 2 == 0 else sides[::-1]
                for label, src in order:
                    results.setdefault((name, label), []).append(run(src, cli_args))
            print(name, " ".join(
                f"{label} {statistics.median(x['wall_s'] for x in results[(name, label)]):.2f}s"
                for label, _ in sides), file=sys.stderr)
    labels = [label for label, _ in sides]
    lines = [
        "# Scale table",
        "",
        "Written by `tools/scale_table.py`: the median wall time (child launch to",
        f"exit, interpreter start included) and peak RSS (`VmHWM`) of {REPEAT} fresh",
        "runs per side, one run at a time, sides alternating.",
        f"Python {platform.python_version()}, {os.cpu_count()} CPUs, {cpu_model()}.",
        f"`quantize R^4` runs the generated curved R^4 of `perfbench/gen.py` at seed {SEED},",
        f"`quantize R^6` the curved R^6 of `tools/curved_r6.py` at the same seed.",
        "",
        "| run | " + " | ".join(f"{lb} s" for lb in labels) + " | "
        + " | ".join(f"{lb} MiB" for lb in labels) + " | same report |",
        "|---" * (2 * len(labels) + 2) + "|",
    ]
    notes = []
    for name, _ in jobs(Path("-"), Path("-")):
        per = [results[(name, lb)] for lb in labels]
        times = [f"{statistics.median(x['wall_s'] for x in runs):.2f}" for runs in per]
        rss = [f"{statistics.median(x['rss_mib'] for x in runs):.1f}" for runs in per]
        same = len({x["sha256"] for runs in per for x in runs}) == 1
        lines.append(f"| {name} | " + " | ".join(times) + " | " + " | ".join(rss)
                     + f" | {'yes' if same else 'NO'} |")
        if not same and name in NOTES:
            notes.append(f"- {name}: {NOTES[name]}")
    if notes:
        lines += [""] + notes
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
