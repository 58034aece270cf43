import json
import os
import sys
import threading
import time

import pytest

from sentiq import profiler
from sentiq.errors import ProfilerError
from sentiq.profiler import ChannelStats, ResourceReport, ResourceSample, start, stop


def test_rejects_non_positive_interval():
    with pytest.raises(ProfilerError, match="interval must be positive"):
        start(0.0)
    with pytest.raises(ProfilerError, match="interval must be positive"):
        start(-1.0)


def test_rejects_an_interval_too_long_for_threading_timeouts():
    # stop joins the sampler with a timeout of interval + 5 s; threading
    # raises OverflowError for any timeout above TIMEOUT_MAX.
    for interval in (float("inf"), 1e300, threading.TIMEOUT_MAX, threading.TIMEOUT_MAX - 4.0):
        with pytest.raises(ProfilerError, match="interval must be at most"):
            start(interval)
    report = stop(start(threading.TIMEOUT_MAX - 5.0))
    assert report.sample_count == 0


def test_double_stop_is_an_error():
    handle = start(0.05)
    stop(handle)
    with pytest.raises(ProfilerError, match="already stopped"):
        stop(handle)


def test_stop_before_first_sample_yields_empty_report():
    handle = start(interval=5.0)
    report = stop(handle)
    assert report.sample_count == 0
    assert report.samples == ()
    assert report.cpu == ChannelStats(0.0, 0.0, 0.0)
    assert report.ram == ChannelStats(0.0, 0.0, 0.0)
    assert report.mem == ChannelStats(0.0, 0.0, 0.0)
    assert report.interval == 5.0
    assert report.wall_seconds >= 0.0


def test_empty_session_serializes_channels_as_null():
    payload = json.loads(json.dumps(stop(start(interval=5.0)).to_dict()))
    assert payload["sample_count"] == 0
    assert (payload["cpu_pct"], payload["ram_pct"], payload["mem_pct"]) == (None, None, None)


def test_session_samples_at_roughly_the_requested_interval():
    interval = 0.05
    handle = start(interval=interval)
    time.sleep(0.5)
    report = stop(handle)
    assert 4 <= report.sample_count <= 15
    assert report.wall_seconds >= 0.45
    times = [s.t for s in report.samples]
    assert times == sorted(times)
    assert all(b > a for a, b in zip(times, times[1:]))
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(0.04 <= d <= 1.0 for d in deltas)
    assert times[0] >= 0.04


def test_channel_stats_summarize_the_samples():
    handle = start(interval=0.05)
    time.sleep(0.4)
    report = stop(handle)
    assert report.sample_count >= 3
    for channel, pick in (
        (report.cpu, lambda s: s.cpu_pct),
        (report.ram, lambda s: s.ram_pct),
        (report.mem, lambda s: s.mem_pct),
    ):
        values = [pick(s) for s in report.samples]
        assert channel.min == min(values)
        assert channel.max == max(values)
        assert channel.avg == pytest.approx(sum(values) / len(values), rel=1e-12, abs=1e-12)
        assert channel.min <= channel.avg <= channel.max
    for s in report.samples:
        assert s.cpu_pct >= 0.0
        assert 0.0 <= s.ram_pct <= 100.0
        assert s.mem_pct >= 0.0


def test_busy_loop_reads_high_cpu_and_sleep_reads_low():
    handle = start(interval=0.25)
    deadline = time.monotonic() + 1.5
    count = 0
    while time.monotonic() < deadline:
        count += 1
    busy = stop(handle)

    handle = start(interval=0.25)
    time.sleep(1.5)
    idle = stop(handle)

    assert count > 0
    assert busy.sample_count >= 3
    assert idle.sample_count >= 3
    assert busy.cpu.avg > 50.0
    assert idle.cpu.avg < 10.0


def test_report_serialization(tmp_path):
    handle = start(interval=0.05)
    time.sleep(0.3)
    report = stop(handle)

    payload = json.loads(json.dumps(report.to_dict()))
    assert payload == report.to_dict()
    assert set(payload) == {
        "cpu_pct",
        "ram_pct",
        "mem_pct",
        "sample_count",
        "wall_seconds",
        "interval",
    }
    assert set(payload["cpu_pct"]) == {"min", "avg", "max"}

    out = tmp_path / "samples.csv"
    report.write_samples_csv(out)
    csv_bytes = out.read_bytes()
    assert csv_bytes.endswith(b"\r\n")
    lines = csv_bytes.decode("utf-8").split("\r\n")[:-1]
    assert "\n" not in "".join(lines)
    assert lines[0] == "t,cpu_pct,ram_pct,mem_pct"
    assert len(lines) == report.sample_count + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        float(fields[0])


def test_report_is_a_plain_value_object(tmp_path):
    sample = ResourceSample(0.1, 50.0, 20.0, 1.0)
    report = ResourceReport(
        cpu=ChannelStats(50.0, 50.0, 50.0),
        ram=ChannelStats(20.0, 20.0, 20.0),
        mem=ChannelStats(1.0, 1.0, 1.0),
        sample_count=1,
        wall_seconds=0.2,
        interval=0.1,
        samples=(sample,),
    )
    assert report.to_dict()["sample_count"] == 1
    out = tmp_path / "samples.csv"
    report.write_samples_csv(out)
    assert out.read_bytes() == b"t,cpu_pct,ram_pct,mem_pct\r\n0.100,50.00,20.00,1.00\r\n"


def test_proc_counters_give_ram_in_use_and_rss_over_mem_total(tmp_path, monkeypatch):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:     1000 kB\nMemFree:  100 kB\nMemAvailable:  250 kB\n")
    statm = tmp_path / "statm"
    statm.write_text("900 25 10 1 0 20 0\n")
    monkeypatch.setattr(profiler, "MEMINFO", meminfo)
    monkeypatch.setattr(profiler, "STATM", statm)
    handle = start(interval=0.05)
    time.sleep(0.3)
    report = stop(handle)
    assert report.sample_count >= 2
    rss_pct = 25 * os.sysconf("SC_PAGE_SIZE") / (1000 * 1024) * 100.0
    for s in report.samples:
        assert s.ram_pct == pytest.approx(75.0, rel=1e-12)
        assert s.mem_pct == pytest.approx(rss_pct, rel=1e-12)


def test_without_proc_or_psutil_start_names_what_is_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(profiler, "MEMINFO", tmp_path / "no-meminfo")
    monkeypatch.setattr(profiler, "STATM", tmp_path / "no-statm")
    monkeypatch.setitem(sys.modules, "psutil", None)  # makes `import psutil` fail
    with pytest.raises(ProfilerError, match="no-meminfo.*psutil is not installed") as info:
        start(0.05)
    assert "\n" not in str(info.value)
