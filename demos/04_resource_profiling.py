"""
Sampling CPU and memory while work runs
=======================================

The profiler runs on a background thread and snapshots process CPU
percent, system RAM in use percent, and the process's resident set size
as a percent of physical RAM at a fixed interval. Stopping it returns
min/avg/max per channel plus the raw samples. This demo profiles a
deliberately busy loop and a sleep of the same length so the two reports
bracket what real workloads produce.
"""

import tempfile
import time
from pathlib import Path

from sentiq import profiler


def show(name, report):
    print(f"{name}: {report.sample_count} samples over {report.wall_seconds:.2f}s")
    for channel_name in ("cpu", "ram", "mem"):
        channel = getattr(report, channel_name)
        print(
            f"  {channel_name:3s}%  min {channel.min:6.2f}"
            f"  avg {channel.avg:6.2f}  max {channel.max:6.2f}"
        )


# Two seconds of pure spinning: the CPU channel should sit near (or above,
# with multiple cores) 100 percent.
handle = profiler.start(interval=0.25)
deadline = time.monotonic() + 2.0
counter = 0
while time.monotonic() < deadline:
    counter += 1
busy = profiler.stop(handle)
show("busy loop", busy)

# Two seconds of sleeping: the CPU channel should be near zero, while the
# memory channels barely move.
handle = profiler.start(interval=0.25)
time.sleep(2.0)
idle = profiler.stop(handle)
show("sleeping ", idle)

# The raw samples serialize to CSV for plotting or archiving; this one goes
# to a temporary directory that is removed once it has been shown.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "busy_samples.csv"
    busy.write_samples_csv(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    print()
    print(f"wrote {len(lines) - 1} samples to {out}")
    for line in lines[:4]:
        print(f"  {line}")
