"""Where the time of one fresh ``latcert verify --full`` goes, layer by layer.

    PYTHONPATH=src python tests/verify_split.py SHELL [--runs N]

Each run starts a new interpreter, as the CLI does, that timestamps its own
stages on the system's monotonic clock: interpreter start (from just before
the spawn to its first statement), the numpy import, the latcert imports,
the shell read (load_shell), the orbit pass (sphercode._orbit_pass), the
rest of the command (moments, design strength, the report) and the exit
(from its last statement until the spawning process sees it end).  After
the command, the child also times the floor of a canonical file's read:
bytes.translate and the scan for '-' over the file's bytes, in the reader's
2^17-byte blocks.  The median of each stage over the runs is printed in
milliseconds.  Not a test: pytest collects only test_*.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

CHILD = r"""
import sys, time
stamps = {"start": time.monotonic()}
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as latcert.cli sets before numpy loads
import numpy as np
stamps["numpy"] = time.monotonic()
from latcert import cli, lattice32, sphercode
stamps["latcert"] = time.monotonic()

def timed(module, name, before, after):
    inner = getattr(module, name)
    def call(*args, **kwargs):
        stamps[before] = time.monotonic()
        out = inner(*args, **kwargs)
        stamps[after] = time.monotonic()
        return out
    setattr(module, name, call)

timed(lattice32, "load_shell", "read_start", "read")
timed(sphercode, "_orbit_pass", "pass_start", "pass")
path = sys.argv[1]
with open(os.devnull, "w") as sys.stdout:
    status = cli.main(["verify", "--shell", path, "--full"])
stamps["command"] = time.monotonic()
with open(path, "rb") as fh:
    data = fh.read()
t0 = time.monotonic()
for i in range(0, len(data), 2**17):
    data[i : i + 2**17].translate(None, b"-")
t1 = time.monotonic()
for i in range(0, len(data), 2**17):
    np.flatnonzero(np.frombuffer(data[i : i + 2**17], dtype=np.uint8) == ord("-"))
stamps["translate_s"], stamps["minus_scan_s"] = t1 - t0, time.monotonic() - t1
stamps["status"] = status
stamps["end"] = time.monotonic()
import json
sys.stderr.write(json.dumps(stamps))
"""

# (stage, from stamp, to stamp)
STAGES = [
    ("interpreter start", "spawn", "start"),
    ("numpy import", "start", "numpy"),
    ("latcert imports", "numpy", "latcert"),
    ("parsing the command", "latcert", "read_start"),
    ("shell read", "read_start", "read"),
    ("orbit pass", "pass_start", "pass"),
    ("rest of the command", "pass", "command"),
    ("exit", "end", "exited"),
]


def one_run(shell: str) -> dict:
    spawn = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CHILD, shell],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    exited = time.monotonic()
    stamps = json.loads(proc.stderr)
    if proc.returncode or stamps["status"]:
        raise SystemExit(f"verify --full failed: exit {proc.returncode}, status {stamps['status']}")
    stamps.update(spawn=spawn, exited=exited)
    split = {name: stamps[b] - stamps[a] for name, a, b in STAGES}
    split["total"] = exited - spawn - (stamps["end"] - stamps["command"])
    split["floor: translate"] = stamps["translate_s"]
    split["floor: minus scan"] = stamps["minus_scan_s"]
    return split


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("shell")
    ap.add_argument("--runs", type=int, default=11)
    args = ap.parse_args()
    runs = [one_run(args.shell) for _ in range(args.runs)]
    for name in runs[0]:
        values = [r[name] for r in runs]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{name:22} {1e3 * statistics.median(values):7.1f} ms"
              f"   (quartiles {1e3 * q[0]:.1f}-{1e3 * q[2]:.1f})")


if __name__ == "__main__":
    main()
