"""One fresh process of a benchmark round (started by ``run.py``).

``--role measure`` sets up (imports, scenario config), runs the workload's
measured phase, then checks its output.  ``--role fill`` is the cold run that
fills a disk store before a ``measure`` process reruns it warm; all of it is
set-up.  The speed sampler starts first, and its first slice reaches back to
``--spawned-at``, the parent's clock when it started this process, so the
interpreter's own start-up is part of set-up.  Results go to
``<tmp>/<role>.json``.
"""

import argparse
import json
import os
import resource
import sys

from speed import SpeedSampler


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("fill", "measure"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=0,
                        help="also run the once-per-run checks")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    return parser.parse_args(argv)


def _recorder(trace):
    if not trace:
        return None
    import layers
    from spans import SpanRecorder
    recorder = SpanRecorder()
    layers.install(recorder)
    return recorder


def _spans(recorder, clock):
    from spans import self_times
    return {"rows": self_times(recorder.spans, clock), "counts": recorder.counts}


def fill(args, sampler):
    import phases
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    config = phases.scenario(workload, args.seed)
    recorder = _recorder(args.trace)
    if recorder:
        recorder.active = True
    run, results = phases.setup_phase(workload, config, args.tmp)
    if recorder:
        recorder.active = False
    end = sampler.stop()
    clock = sampler.clock()
    out = {"setup_s": clock(end), "raw": {"setup_wall_s": end - args.spawned_at},
           "checks": {}}
    if results is not None:
        with open(os.path.join(args.tmp, "cold-records.jsonl"), "wb") as handle:
            handle.write(phases.records_bytes(results))
    if workload.checkpoint:
        out["checks"]["one checkpoint per sim day"] = (
            run.checkpoint_stats["saves"] == len(config.window))
    if recorder:
        out.update(_spans(recorder, clock))
        out["checkpoint"] = run.checkpoint_stats or {}
    return out


def measure(args, sampler):
    import phases
    from repro.perf.cache import disk_cache
    from repro.util.perf import PERF
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    config = phases.scenario(workload, args.seed)
    recorder = _recorder(args.trace)
    if workload.warm:
        phases.use_disk_cache(args.tmp)
    before = PERF.counters()

    setup_end = sampler.mark()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if recorder:
        recorder.active = True
    run, results, headline = phases.run_phase(workload, config, args.tmp)
    if recorder:
        recorder.active = False
    run_end = sampler.stop()

    end_usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = end_usage.ru_maxrss / 1024
    clock = sampler.clock()
    perf = {k: v - before.get(k, 0) for k, v in PERF.counters().items()}
    out = {
        "setup_s": clock(setup_end),
        "run_s": clock(run_end) - clock(setup_end),
        "peak_rss_mb": peak_rss_mb,
        "raw": {
            "setup_wall_s": setup_end - args.spawned_at,
            "run_wall_s": run_end - setup_end,
            "run_cpu_s": (end_usage.ru_utime + end_usage.ru_stime
                          - usage.ru_utime - usage.ru_stime),
            "run_sys_s": end_usage.ru_stime - usage.ru_stime,
            **sampler.evidence(setup_end, run_end),
        },
    }
    if recorder:
        disk = disk_cache()
        out.update(_spans(recorder, clock))
        out["perf"] = perf
        out["disk_bytes"] = disk.stats()["total_bytes"] if disk is not None else 0
        out["checkpoint"] = run.checkpoint_stats or {}

    # Output checks, after the timed phase.
    if headline is None:
        headline = results.headline()
    out["digest"] = phases.output_digest(results, headline)
    checks = {}
    if workload.warm:
        with open(os.path.join(args.tmp, "cold-records.jsonl"), "rb") as handle:
            checks["warm records equal cold records"] = (
                phases.records_bytes(results) == handle.read())
        checks["warm run read the disk store"] = sum(
            v for k, v in perf.items() if k.endswith(".disk_hit")) > 0
    if workload.checkpoint:
        checks["resumed after the last sim day"] = run.resumed_from_day == len(config.window)
        if args.verify:
            plain = phases.study_run(workload, config, args.tmp, checkpoint=False).execute()
            checks["records match an un-checkpointed run"] = (
                phases.output_digest(plain, plain.headline()) == out["digest"])
    out["checks"] = checks
    if workload.classify:
        out["accuracy"] = phases.attribution_accuracy(results)
    elif args.verify:
        # Attribute exactly as a classifying run would (CLI defaults).
        run._classify(results.crawler, results.oracle)
        out["accuracy"] = phases.attribution_accuracy(results)
    return out


def main(argv=None):
    args = _parse(argv)
    sampler = SpeedSampler(origin=args.spawned_at)
    sampler.start()
    out = (fill if args.role == "fill" else measure)(args, sampler)
    with open(os.path.join(args.tmp, f"{args.role}.json"), "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    sys.exit(main())
