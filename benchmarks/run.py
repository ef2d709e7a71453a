"""The lukatree benchmark: one workload per invocation, metrics as JSON.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sample-dicho --seed 1 --seconds 30 --trace 0

Workloads, metric names, units and bounds are declared in BENCHMARK.json at
the root.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a separate traced run.  It
prints a readable report, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
and, for traced runs, the spans are written under ``benchmarks/out/``.

Set-up time is measured over several fresh processes (the workload process
and SETUP_PROBES probes that stop once ready) and reported as the median.
The end-to-end times in the JSON line are scaled to a nominal host speed, as
measured by hostspeed.py; the raw times are in the report.  Every process is
single-threaded: numeric libraries are capped to one thread.  The exit status
is 0 only when every op was checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_NOMINAL_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
TIME_LIMIT_S = 170  # the whole run, set-up probes included

# Single-threaded numeric libraries, and one string-hash layout in every process.
CHILD_ENV = {
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args: list[str], deadline: float) -> dict[str, dict]:
    """Run worker.py to completion; returns its READY and RESULT records."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--started-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with status {proc.returncode}")
    records = {}
    for line in stdout.splitlines():
        tag, _, payload = line.partition(" ")
        if tag in ("READY", "RESULT"):
            records[tag] = json.loads(payload)
    return records


def src_lines() -> int:
    """Lines of Python under src/ (ROADMAP aim 2 tracks its shrinkage)."""
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _report(name: str, value, unit: str = "", note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<28} {shown} {unit}".rstrip() + (f"   ({note})" if note else ""))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Run one lukatree benchmark workload.")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True, help="workload seed, 0 <= seed < 2**32")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        p.error("--seed must lie in [0, 2**32)")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Half the probes run before the workload and half after it, so that
        # the set-up median spans the run rather than one moment of the host.
        readies = [_spawn([*base, "--probe"], deadline)["READY"] for _ in range(SETUP_PROBES // 2)]
        spans = OUT / f"{args.workload}.spans.json"
        run_args = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        records = _spawn([*run_args, "--spans", str(spans)] if args.trace else run_args, deadline)
        readies.append(records["READY"])
        result = records["RESULT"]
        readies += [_spawn([*base, "--probe"], deadline)["READY"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (BenchError, KeyError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    setup = {
        "setup_s": statistics.median(r["ready_s"] * REF_NOMINAL_MS / r["ref_ms"] for r in readies),
        "raw.setup_s": statistics.median(r["ready_s"] for r in readies),
        "setup.import_s": statistics.median(r["import_s"] for r in readies),
        "enumeration.floor_ms": statistics.median(r["floor_ms"] for r in readies),
    }
    values = {**result["metrics"], **setup}
    exact = result["exact"]
    info = {
        "output_sha256": exact["output_sha256"],
        "digest_ops": exact["digest_ops"],
        "code.src_lines": src_lines(),
        "code.exports": readies[-1]["exports"],
    }
    fail_rate = result["failed"] / result["attempted"]

    print(f"lukatree benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    metrics = {}
    if args.trace:
        print(f"  per layer: medians over {result['ops']} traced ops; counts over the "
              f"first {exact['digest_ops']} ops; 0 where the workload never enters the layer")
        for m in spec["per_layer"]:
            value = values.get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            _report(m["name"], value, m["unit"])
    else:
        print(f"  end to end: {result['ops']} ops, {result['trees']} trees in {result['op_s']:.3f} s "
              "of timed calls")
        n = result["ops"]
        notes = {
            "setup_s": f"median of {len(readies)} process starts; raw {values['raw.setup_s']:.4g} s",
            "tree_ms_p50": f"n={n}; raw {values['raw.tree_ms_p50']:.4g} ms",
        }
        for m in spec["end_to_end"]:
            if m["name"] not in values:
                print(f"benchmark: metric {m['name']} was not measured", file=sys.stderr)
                return 1
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            _report(m["name"], values[m["name"]], m["unit"], notes.get(m["name"], ""))
        # Not in BENCHMARK.json: even scaled to the nominal host, a mean or an
        # upper percentile still swings by 10-15% from run to run here.
        _report("trees_per_s", values["trees_per_s"], "1/s",
                f"trees over summed op time; raw {values['raw.trees_per_s']:.4g} 1/s")
        if "tree_ms_p90" in values:
            _report("tree_ms_p90", values["tree_ms_p90"], "ms", f"n={n}")
        else:
            _report("tree_ms_p90", "not reported", "", f"n={n} leaves fewer than 10 samples beyond p90")
        for name in ("bits_per_tree", "bits_over_floor"):
            if name in exact:
                _report(name, exact[name], "bits" if name == "bits_per_tree" else "ratio",
                        f"exact, first {exact['digest_ops']} trees")
            else:
                _report(name, "not measured", "", "the batch engine draws no fair bits")
    _report("fail_rate", fail_rate, "ratio", f"{result['failed']} of {result['attempted']} ops failed")
    for name, value in info.items():
        _report(name, value, "", "informational")
    for message in result["messages"]:
        print(f"  FAILED {message}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "metrics": values, "info": info, "fail_rate": fail_rate,
        "attempted": result["attempted"], "failed": result["failed"], "messages": result["messages"],
        "op_ms": result["op_ms"],
    }, sort_keys=True))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
