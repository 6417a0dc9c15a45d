"""Measurement, reporting and the result line for one benchmark run.

Imported by run.py once `src/` is on the import path.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path

import layers
from hostclock import HostClock, Timing
from micro import run_micro
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, build_world, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_EPISODES = 3
MIN_SETUPS = 101
SETUP_BATCH = 10
GATED_TAIL = 90


def latency_summary(samples: list[float], pct: int) -> dict:
    n = len(samples)
    beyond = n - 1 - int((n - 1) * pct / 100) if n else 0  # samples ranked above it
    return {"n": n, "value": percentile(samples, pct), "beyond": beyond}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "modbot").glob("*.py")))


def frames_of(world) -> int:
    return sum(link.transmissions for link in world.links)


def run_episode(workload, inputs, seed, clock=None):
    """One episode: (set-up Timing, run Timing, world, outcome).

    With a HostClock the episode is timed in calibrated slices; without
    one (the traced episode) only raw wall time is kept.
    """
    setup, run = Timing(), Timing()
    gc.collect()
    if clock is None:
        t0 = time.perf_counter()
        world = build_world(inputs, seed)
        t1 = time.perf_counter()
        observed = workload.drive(world, inputs, world.scheduler.run_until)
        setup.raw, run.raw = t1 - t0, time.perf_counter() - t1
    else:
        world = clock.timed(setup, build_world, inputs, seed)
        observed = workload.drive(world, inputs, clock.advancer(world.scheduler, run))
        clock.flush()
    return setup, run, world, workload.evaluate(world, inputs, observed)


def measure_untraced(workload, inputs, seed, seconds):
    """Episodes until `seconds` have passed (at least MIN_EPISODES), then
    extra set-ups up to MIN_SETUPS, all timed by one HostClock."""
    deadline = time.perf_counter() + seconds
    clock = HostClock()
    m = {"setups": [], "runs": [], "outcomes": []}
    while len(m["runs"]) < MIN_EPISODES or time.perf_counter() < deadline:
        setup, run, world, outcome = run_episode(workload, inputs, seed, clock)
        m["setups"].append(setup)
        m["runs"].append(run)
        m["outcomes"].append(outcome)
        m["world"] = world
    while len(m["setups"]) < MIN_SETUPS:
        for _ in range(SETUP_BATCH):
            gc.collect()
            setup = Timing()
            clock.timed(setup, build_world, inputs, seed)
            m["setups"].append(setup)
        clock.flush()  # set-ups are short: calibrate around every batch
    return m


def median_of(timings, attr: str = "calibrated") -> float:
    return statistics.median(getattr(t, attr) for t in timings)


def report_line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<8} {note}".rstrip())


def check_repeats(outcomes) -> list[str]:
    first = outcomes[0].key()
    return [f"episode {i} differs from episode 0"
            for i, o in enumerate(outcomes[1:], start=1) if o.key() != first]


def print_outcome(workload, outcome) -> dict:
    """Print the workload's latencies and failures; return the gated pair.

    `<op>_p50_cs` and `<op>_p<tail>_cs` follow the workload's own
    definition (for SEND: every response, errors included). The gated
    `op_p50_cs` and `op_tail_cs` (p90) cover the operations that succeeded;
    failures are counted against the attempts instead.
    """
    responses = outcome.responses_cs if outcome.responses_cs is not None else outcome.samples_cs
    for pct in (50, workload.tail):
        lat = latency_summary(responses, pct)
        report_line(f"{workload.op}_p{pct}_cs", lat["value"], "cs",
                    f"n={lat['n']} beyond={lat['beyond']}")
        if lat["beyond"] < 10 and pct != 50:
            print(f"  warning: fewer than 10 samples beyond p{pct}")
    gated = {}
    for name, pct in (("op_p50_cs", 50), ("op_tail_cs", GATED_TAIL)):
        lat = latency_summary(outcome.samples_cs, pct)
        report_line(name, lat["value"], "cs",
                    f"p{pct} of {lat['n']} {workload.op}s that succeeded, beyond={lat['beyond']}")
        gated[name] = (lat["value"], "cs")
    for key, value in sorted(outcome.extra.items()):
        report_line(key, value, "")
    share = outcome.failed / outcome.attempted
    report_line("ops_attempted", outcome.attempted, "count")
    report_line("ops_failed", outcome.failed, "count")
    report_line("ops_failed_share", share, "ratio")
    for category, count in sorted(outcome.failures.items()):
        if count:
            report_line(f"  failed.{category}", count, "count")
    for violation in outcome.violations:
        print(f"  VIOLATION: {violation}")
    print(f"  log_sha256={outcome.digest} records={outcome.records}")
    return gated


def untraced(workload, inputs, args) -> tuple[bool, int, int, dict]:
    m = measure_untraced(workload, inputs, args.seed, args.seconds)
    outcome = m["outcomes"][0]
    mismatches = check_repeats(m["outcomes"])
    horizon_s = outcome.horizon_cs / 100
    speeds = [horizon_s / t.calibrated for t in m["runs"]]
    raw_speeds = [horizon_s / t.raw for t in m["runs"]]
    frames = frames_of(m["world"])
    metrics = {
        "sim_speed": (statistics.median(speeds), "sim-s/s"),
        "setup_s": (median_of(m["setups"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload={workload.name} seed={args.seed} trace=0 episodes={len(m['runs'])} "
          f"horizon_cs={outcome.horizon_cs} src_lines={src_lines()}")
    report_line("sim_speed", metrics["sim_speed"][0], "sim-s/s",
                f"calibrated, median of {len(speeds)} episodes")
    report_line("sim_speed_wall", statistics.median(raw_speeds), "sim-s/s",
                f"uncalibrated, range {min(raw_speeds):.4g}-{max(raw_speeds):.4g}")
    report_line("setup_s", metrics["setup_s"][0], "s",
                f"calibrated, median of {len(m['setups'])} set-ups")
    report_line("setup_s_wall", median_of(m["setups"], "raw"), "s", "uncalibrated")
    report_line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB")
    report_line("us_per_frame", median_of(m["runs"]) / frames * 1e6, "us",
                f"calibrated, frames={frames}")
    metrics.update(print_outcome(workload, outcome))
    for mismatch in mismatches:
        print(f"  NONDETERMINISM: {mismatch}")
    correct = not mismatches and not outcome.violations
    save_summary(workload, args, {"trace": 0, "digest": outcome.digest, "metrics": metrics,
                                  "failures": dict(outcome.failures), "src_lines": src_lines()})
    return correct, outcome.attempted, outcome.failed, metrics


def traced(workload, inputs, args) -> tuple[bool, int, int, dict]:
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_run, world, outcome = run_episode(workload, inputs, args.seed)
    finally:
        tracer.uninstall()
    ref = measure_untraced(workload, inputs, args.seed,
                           max(0.0, deadline - time.perf_counter()))
    reference = ref["outcomes"][0]
    mismatches = check_repeats([outcome] + ref["outcomes"])
    t0 = time.perf_counter()
    ref["world"].log.render()
    render_s = time.perf_counter() - t0

    roles_inputs = WORKLOADS["roles_swarm"].generate(args.seed)
    program_text = roles_inputs.files[WORKLOADS["roles_swarm"].PROGRAM]
    snapshot = next(iter(ref["world"].modules.values())).snapshot()
    micro = run_micro(tracer.sample_frames, program_text, snapshot)

    metrics, extra = layers.per_layer(tracer, world, outcome, {
        "us_per_frame": median_of(ref["runs"]) / frames_of(ref["world"]) * 1e6,
        "render_s": render_s,
        "overhead_x": traced_run.raw / median_of(ref["runs"], "raw"),
    })
    metrics.update({name: (value, "ns") for name, value in micro.items()})
    metrics["src.lines"] = (src_lines(), "count")

    print(f"workload={workload.name} seed={args.seed} trace=1 "
          f"reference_episodes={len(ref['runs'])} horizon_cs={outcome.horizon_cs} "
          f"src_lines={src_lines()}")
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    print("reported only (zero where the layer is not exercised):")
    for name, (value, unit) in extra.items():
        report_line(name, value, unit)
    by_layer = tracer.self_ns_by_layer()
    total = sum(by_layer.values()) or 1
    print("self time by module (traced episode):")
    for layer in LAYERS:
        report_line(layer, by_layer[layer] / 1e9, "s", f"{100 * by_layer[layer] / total:.1f}%")
    print("frame sizes on the wire (bytes: frames):")
    for bucket, count in layers.size_histogram(tracer.frame_sizes).items():
        report_line(bucket, count, "frames")
    print_outcome(workload, reference)
    same = outcome.digest == reference.digest
    print(f"  traced_log_sha256={outcome.digest} {'==' if same else '!='} untraced")
    for mismatch in mismatches:
        print(f"  NONDETERMINISM: {mismatch}")
    correct = not mismatches and not reference.violations

    OUT.mkdir(exist_ok=True)
    prefix = OUT / f"{workload.name}-seed{args.seed}"
    tracer.write(prefix)
    save_summary(workload, args, {
        "trace": 1, "digest": outcome.digest, "metrics": metrics, "reported": extra,
        "self_s_by_module": {k: v / 1e9 for k, v in by_layer.items()},
        "frame_size_histogram": layers.size_histogram(tracer.frame_sizes),
        "spans": tracer.span_count, "src_lines": src_lines()})
    return correct, reference.attempted, reference.failed, metrics


def save_summary(workload, args, summary: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1, default=list) + "\n", encoding="utf-8")


