"""The repository benchmark.

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a checkout.  One run is a series of rounds.  Each round
starts fresh single-threaded processes (``child.py``), pinned to one CPU,
with a fixed ``PYTHONHASHSEED`` and no ``REPRO_*`` settings.  Rounds repeat
until ``--seconds`` have passed, and at least two without tracing.  Times are
reported in seconds at a fixed reference CPU speed (see ``speed.py``) and
are the medians over the rounds.

With ``--trace 1`` untraced and traced rounds alternate: the per-layer
metrics come from the traced rounds and ``trace.overhead_s`` is the
difference of the two kinds' ``run_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (rounds) and ``metrics``; the line before it
holds each round's raw evidence (wall and CPU seconds, the sampler's cost,
kernel quartiles, the output digest).  ``--report`` runs every workload
both ways and prints both sets of metrics as tables.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Untraced rounds per run at least, so that every time is a median of two.
MIN_ROUNDS = 2
#: A process that takes longer than this has hung.
PROCESS_TIMEOUT_S = 55
#: No new round starts after this many seconds into a run, so that a run
#: ends within three minutes even on a slow host.
RUN_CAP_S = 60

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "attribution_accuracy": "fraction",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced; print tables")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required without --report")
    return args


def _checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit(f"{root} is not a checkout of the repository: no src/repro")
    return root


def _child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), HERE]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # Keep git (run by the checkpoint manifest) inside the checkout.
        GIT_CEILING_DIRECTORIES=os.path.dirname(root),
    )
    return env


def _spawn(root, tmp, role, workload, seed, trace, verify) -> dict:
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"),
         "--workload", workload, "--seed", str(seed), "--role", role,
         "--trace", str(int(trace)), "--verify", str(int(verify)),
         "--spawned-at", repr(spawned_at), "--tmp", tmp],
        cwd=root, env=_child_env(root), stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{role} process exited with {code}")
    with open(os.path.join(tmp, f"{role}.json")) as handle:
        return json.load(handle)


def run_round(root, workload, seed, trace, verify) -> dict:
    """One round in its own temp directory, deleted afterwards."""
    import workloads
    base = os.path.join(root, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    try:
        fill = None
        spec = workloads.WORKLOADS[workload]
        if spec.warm or spec.checkpoint:
            fill = _spawn(root, tmp, "fill", workload, seed, trace, verify)
        out = _spawn(root, tmp, "measure", workload, seed, trace, verify)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    out["traced"] = bool(trace)
    if fill is not None:
        out["setup_s"] += fill["setup_s"]
        out["raw"]["setup_wall_s"] += fill["raw"]["setup_wall_s"]
        out["checks"].update(fill["checks"])
        out["fill"] = fill
    return out


def _reference(workload: str, seed: int):
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def check_rounds(rounds, reference) -> int:
    """Mark each round ``ok``; returns how many are not.

    A round is ok when every check it ran passed and its output digest
    equals the reference digest for the seed, or, for a seed with no
    reference, the first round's digest: the rounds of one run, traced or
    not, must produce the same output."""
    expected = reference or rounds[0]["digest"]
    for r in rounds:
        r["ok"] = r["digest"] == expected and all(r["checks"].values())
    return sum(not r["ok"] for r in rounds)


def _layer_metrics(traced: dict) -> dict:
    """A traced round's per-layer metrics; the writes of the disk store and
    of checkpoints count the set-up phase too, where they happen."""
    import layers
    rows = dict(traced["rows"])
    checkpoint = traced["checkpoint"]
    fill = traced.get("fill")
    if fill is not None:
        for name in layers.SETUP_SPANS:
            extra = fill["rows"].get(name)
            if extra is not None:
                mine = rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "wait_s": 0.0})
                rows[name] = {k: mine[k] + extra[k] for k in mine}
        checkpoint = fill["checkpoint"] or checkpoint
    return layers.layer_metrics(rows, traced["counts"], traced["perf"],
                                traced["disk_bytes"], checkpoint)


def run(root, workload, seed, seconds, trace):
    """Every round of one run; returns (result line, evidence)."""
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if seed is None:
        seed = workloads.DEFAULT_SEEDS[workloads.WORKLOADS[workload].preset]
    reference = _reference(workload, seed)

    rounds, errors = [], []
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        try:
            rounds.append(run_round(root, workload, seed, traced,
                                    verify=not rounds and not trace))
        except RuntimeError as error:
            errors.append(str(error))
        elapsed = time.perf_counter() - started
        untraced = [r for r in rounds if not r["traced"]]
        enough = (len(untraced) >= 1 and len(rounds) > len(untraced)) if trace \
            else len(untraced) >= MIN_ROUNDS
        if (enough and elapsed >= seconds) or elapsed >= RUN_CAP_S or len(errors) > 2:
            break
    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if not untraced or (trace and not traced_rounds):
        raise SystemExit("no round completed: " + "; ".join(errors))

    failed = len(errors) + check_rounds(rounds, reference)
    if trace:
        per_round = [_layer_metrics(r) for r in traced_rounds]
        metrics = {m: statistics.median(p[m] for p in per_round) for m in per_round[0]}
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced_rounds)
                                       - statistics.median(r["run_s"] for r in untraced))
        import layers
        units = {m.name: m.unit for m in layers.LAYER_METRICS}
    else:
        accuracy = [r["accuracy"] for r in rounds if "accuracy" in r]
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "attribution_accuracy": accuracy[0] if accuracy else 0.0,
        }
        if len(set(accuracy)) > 1:
            failed += 1
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(rounds) + len(errors),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    evidence = {
        "workload": workload, "seed": seed, "reference_digest": reference,
        "errors": errors,
        "rounds": [{
            "traced": r["traced"], "ok": r["ok"], "digest": r["digest"],
            "checks": r["checks"], "run_s": r["run_s"], "setup_s": r["setup_s"],
            "peak_rss_mb": r["peak_rss_mb"], **r["raw"],
        } for r in rounds],
    }
    return result, evidence


def _pin_one_cpu() -> None:
    """Pin this process, and so every child, to the highest allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def report(root, seed, seconds) -> None:
    import layers
    import workloads
    end_to_end, per_layer = {}, {}
    for name in workloads.WORKLOADS:
        end_to_end[name], _ = run(root, name, seed, seconds, 0)
        per_layer[name], _ = run(root, name, seed, seconds, 1)
    names = list(workloads.WORKLOADS)
    width = max(len(m.name) for m in layers.LAYER_METRICS) + 2

    def table(title, results, rows):
        print(f"\n{title}")
        print(f"{'metric':<{width}}{'unit':<10}" + "".join(f"{n:>16}" for n in names)
              + "  should move")
        for metric, unit, moves in rows:
            cells = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
            print(f"{metric:<{width}}{unit:<10}{cells}  {moves}")
        print(f"{'correct':<{width}}{'':<10}"
              + "".join(f"{str(results[n]['correct']):>16}" for n in names))

    table("End-to-end metrics (untraced runs)", end_to_end,
          [(name, unit, "") for name, unit in END_TO_END.items()])
    table("Per-layer metrics (traced runs)", per_layer,
          [(m.name, m.unit, m.moves) for m in layers.LAYER_METRICS])


def _exit_on_term(signum, frame):
    # Unwind normally, so every child is killed and waited for.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    args = _parse(argv)
    root = _checkout_root()
    _pin_one_cpu()
    if args.report:
        report(root, args.seed, args.seconds)
        return 0
    result, evidence = run(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"evidence": evidence}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
