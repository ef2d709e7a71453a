"""One workload process of the benchmark; started by run.py, not by hand.

It imports lukatree from the checkout's ``src/``, does the workload's set-up
and prints ``READY <json>``.  A probe (``--probe``) stops there; it exists so
that run.py can time set-up in several fresh processes.  Otherwise it runs
ops in a closed loop, one at a time, for the given seconds, and prints
``RESULT <json>``.  Each op is one timed CLI call followed by its checks,
among them the public-call replay of the same op, which must reproduce its
output.  Timing and checking alternate, so the timed ops are spread over the
whole run and sample the host's slow and fast stretches alike.

With ``--trace 1`` the replay records spans; they give the per-layer figures,
and the replay's time against the CLI call's gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="stop after set-up")
    p.add_argument("--started-ns", type=int, required=True, help="time.monotonic_ns() at spawn")
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    return p.parse_args(argv)


def _setup(workload_name: str, started_ns: int, skip_ns: int) -> tuple[object, dict]:
    """Import lukatree and prepare the workload; returns it and set-up figures.

    ready_s runs from process start (started_ns) to the end of set-up, less
    skip_ns and less the import of the benchmark's own harness, so that only
    lukatree's imports and calls count.
    """
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import lukatree
    import lukatree.cli  # noqa: F401  (the op entry point)

    import_s = time.perf_counter() - t0
    imported_ns = time.monotonic_ns()
    import harness

    workload = harness.WORKLOADS[workload_name]
    t0 = time.perf_counter()
    floor = workload.floor_bits() if workload.kind == "sample" else None
    floor_s = time.perf_counter() - t0
    exports = [
        name for name, value in vars(lukatree).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    return workload, {
        "ready_s": (imported_ns - started_ns - skip_ns) / 1e9 + floor_s,
        "import_s": import_s,
        "floor_ms": floor_s * 1e3 if floor is not None else 0.0,
        "floor_bits": floor,
        "exports": len(getattr(lukatree, "__all__", exports)),
    }


def _run(workload, seed: int, seconds: float, floor: float | None, traced: bool, spans: Path | None) -> dict:
    """The closed loop: CLI op (timed), then its checks, until time is up."""
    import harness

    clock = harness.clock
    ref = harness.REF_OPS[workload.kind]
    tracer = harness.Tracer() if traced else harness.NullTracer()
    tally = harness.Tally()
    op_ns, op_at, traced_ns, per_op, ref_outputs = [], [], [], [], []
    counts: dict[str, float] = {}
    # Scalar ops are always replayed, since their bits= needs it; a scan's
    # replay costs as much as the scan, so only traced runs make it.
    replay = traced or workload.kind == "sample"
    host = hostspeed.HostSpeed(workload.host_reference)
    # A tick inside a traced replay would inflate its spans; untraced checks
    # are not timed, and their ticks sample the host between ops.
    checking = host.paused if traced else contextlib.nullcontext
    deadline = clock() + seconds * 1e9
    with host:
        while tally.attempted < ref or clock() < deadline:
            op = tally.attempted
            s = harness.op_seed(seed, op)
            busy = host.busy_ns
            t0 = clock()
            code, text = harness.run_cli(workload.argv(s))
            t1 = clock()
            op_ns.append(t1 - t0 - (host.busy_ns - busy))
            op_at.append((t0, t1))
            with checking():
                problems, found = harness.verify(workload, s, text, code, tracer, replay)
                if traced and not problems:
                    _, root_start, root_end, _ = tracer.spans[0]
                    traced_ns.append(root_end - root_start)
                    layer = tracer.finish_op()
                    layer.update((k, v) for k, v in found.items() if k.startswith("batch.heights_ms."))
                    if "bits" in found:
                        layer["bitstream.next_bit_ns"] = harness.next_bit_ns(int(found["bits"]), s)
                    per_op.append(layer)
            tally.record(op, problems)
            if op < ref:
                ref_outputs.append(text)
                for key in ("trees", "bits", "draws", "shuffle_bits", "shuffle_min_bits"):
                    counts[key] = counts.get(key, 0) + found.get(key, 0)

    per_tree = workload.trees_per_op()
    raw_ms = [ns / 1e6 / per_tree for ns in op_ns]
    tree_ms = [ms * host.scale(t0, t1) for ms, (t0, t1) in zip(raw_ms, op_at)]
    metrics = {
        "trees_per_s": len(tree_ms) / (sum(tree_ms) / 1e3),
        "tree_ms_p50": statistics.median(tree_ms),
        "raw.trees_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
        "raw.tree_ms_p50": statistics.median(raw_ms),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if harness.supported(len(tree_ms), 90):
        metrics["tree_ms_p90"] = harness.percentile(tree_ms, 90)
    exact = {
        "output_sha256": hashlib.sha256("".join(ref_outputs).encode()).hexdigest(),
        "digest_ops": len(ref_outputs),
    }
    trees = counts.get("trees", 0)
    if counts.get("bits"):
        exact["bits_per_tree"] = counts["bits"] / trees
        exact["bits_over_floor"] = counts["bits"] / trees / floor
        metrics["bitstream.bits"] = exact["bits_per_tree"]
        metrics["bitstream.bits_over_floor"] = exact["bits_over_floor"]
    if counts.get("draws"):
        metrics["samplers.bits_per_draw"] = counts["bits"] / counts["draws"]
    if counts.get("shuffle_bits"):
        metrics["bitstream.shuffle_accept_ratio"] = counts["shuffle_min_bits"] / counts["shuffle_bits"]
    if traced:
        for name in sorted({key for layer in per_op for key in layer}):
            metrics[name] = statistics.median(layer.get(name, 0.0) for layer in per_op)
        metrics["samplers.draw_bound"] = 2 + math.log2(workload.k)
        if traced_ns:
            metrics["trace.overhead_frac"] = statistics.median(traced_ns) / statistics.median(op_ns) - 1
        if workload.kind == "scan":
            metrics["batch.peak_alloc_mib"] = harness.batch_peak_alloc_mib(workload, seed)
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps({
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "ops_traced": len(traced_ns),
                "spans": tracer.kept,
            }))
    return {
        "metrics": metrics,
        "exact": exact,
        "ops": len(op_ns),
        "trees": per_tree * len(op_ns),
        "op_s": sum(op_ns) / 1e9,
        "op_ms": [ns / 1e6 for ns in op_ns],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    # The reference is timed before and after set-up; its own time is not set-up.
    begun = time.monotonic_ns()
    before = hostspeed.time_reference()
    workload, ready = _setup(args.workload, args.started_ns, time.monotonic_ns() - begun)
    ready["ref_ms"] = (before + hostspeed.time_reference()) / 2e6
    print("READY " + json.dumps(ready), flush=True)
    if args.probe:
        return 0
    result = _run(workload, args.seed, args.seconds, ready["floor_bits"], bool(args.trace), args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
