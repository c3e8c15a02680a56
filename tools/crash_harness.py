#!/usr/bin/env python3
"""Kill/resume fault-injection harness for the sm-campaignd service.

Proves the crash-safety contract end to end: a campaign that is
kill -9'd at many seeded-random instants -- sometimes a single worker,
sometimes the whole supervisor process group, sometimes a planned fault
that cuts a checkpoint append mid-frame -- and resumed each time by
relaunching sm-campaignd with the same arguments, produces a final JSONL
report and metrics file BYTE-IDENTICAL to an uninterrupted run.

Procedure:
  1. baseline: run sm-campaignd to completion in a pristine dir.
  2. chaos: in a second dir, launch sm-campaignd (its own process
     group), sleep a seeded-random interval, then kill -9 either one
     worker (a child of the supervisor, read from
     /proc/<pid>/task/<pid>/children; the supervisor re-runs the trials
     it lost and keeps running) or the entire group (forces a full
     resume).  Launches also arm --fault-byte-budget until
     --fault-rounds planned faults have fired (the supervisor exits 86
     with a torn checkpoint tail that the resume must truncate and
     replay).  Once, between launches, the harness holds the campaign's
     lock itself and requires a launch to exit 3 without touching the
     checkpoint.
  3. once the campaign survives to completion with at least --kills
     kills injected (at least one of each kind) and every planned fault
     fired, byte-compare out.jsonl and metrics.json against the
     baseline.
  4. relaunch once on the finished chaos dir: the resume must rewrite
     both files byte-identically, and its largest process (ru_maxrss
     from wait4, which covers the workers it reaped) may peak at most
     RESUME_RSS_RATIO times the baseline run's.

Kill intervals adapt: a launch's kill clock starts once its workers
exist (the supervisor first builds the workload and loads the
checkpoint), and if the campaign is completing faster than kills are
being spent, the sleep shrinks so the budget lands before the trials run
out.  All randomness flows from --seed for replayable runs.

Usage:
    tools/crash_harness.py --build build [--trials 10000] [--jobs 4]
        [--kills 20] [--seed 1] [--workdir DIR] [--keep]

Exit 0 on byte-identical output, 1 on any mismatch or stuck campaign.
"""

import argparse
import fcntl
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def log(msg):
    print(f"crash_harness: {msg}", flush=True)


def run_measured(cmd):
    """Runs `cmd` to completion; returns (exit code, largest process's
    peak RSS in MB). wait4's ru_maxrss is the larger of the process's
    own and that of every descendant it waited for."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_baseline(daemon, workload, jobs, seed, dirpath):
    out = os.path.join(dirpath, "out.jsonl")
    metrics = os.path.join(dirpath, "metrics.json")
    cmd = [daemon, "--workload", workload, "--dir", os.path.join(dirpath, "d"),
           "--out", out, "--metrics-out", metrics,
           "-j", str(jobs), "--seed", str(seed)]
    t0 = time.monotonic()
    rc, rss_mb = run_measured(cmd)
    if rc != 0:
        log(f"baseline run failed (exit {rc})")
        sys.exit(1)
    elapsed = time.monotonic() - t0
    log(f"baseline complete in {elapsed:.1f}s, largest process "
        f"{rss_mb:.1f} MB")
    return out, metrics, elapsed, rss_mb


# Exit status of a launch whose planned checkpoint fault fired
# (campaign::kCheckpointFaultExit) and of a launch refused by the lock.
FAULT_EXIT = 86
LOCKED_EXIT = 3
# Bound on a relaunch's largest process on a finished --dir, as a
# multiple of the uninterrupted run's.
RESUME_RSS_RATIO = 1.25


def read_worker_pids(sup_pid):
    """Live (non-zombie) children of the supervisor: its workers."""
    pids = []
    try:
        with open(f"/proc/{sup_pid}/task/{sup_pid}/children") as f:
            children = [int(p) for p in f.read().split()]
    except OSError:
        return pids
    for pid in children:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != "Z":
            pids.append(pid)
    return pids


def check_lock_refusal(cmd, dirpath):
    """A launch on a --dir whose lock someone else holds must exit 3 and
    leave the checkpoint's bytes as they were."""
    ckpt = os.path.join(dirpath, "campaign.ckpt")
    with open(ckpt, "rb") as f:
        before = f.read()
    with open(os.path.join(dirpath, "campaign.lock"), "a") as lock:
        fcntl.lockf(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        fcntl.lockf(lock, fcntl.LOCK_UN)
    with open(ckpt, "rb") as f:
        after = f.read()
    if rc != LOCKED_EXIT or after != before:
        log(f"locked launch exited {rc} (want {LOCKED_EXIT}), checkpoint "
            f"{'unchanged' if after == before else 'CHANGED'}")
        return False
    log(f"locked launch refused (exit {rc}), checkpoint unchanged "
        f"({len(before)} bytes)")
    return True


def kill_pid(pid, group=False):
    try:
        os.kill(-pid if group else pid, signal.SIGKILL)
        return True
    except ProcessLookupError:
        return False


def files_equal(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except FileNotFoundError:
        return False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build", help="cmake build dir")
    ap.add_argument("--trials", type=int, default=10000)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--kills", type=int, default=20,
                    help="minimum kill -9 injections before completion")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fault-rounds", type=int, default=3,
                    help="planned mid-write faults that must fire")
    ap.add_argument("--max-launches", type=int, default=200,
                    help="bound on supervisor launches (stuck detector)")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--keep", action="store_true",
                    help="keep the workdir for post-mortem")
    args = ap.parse_args()

    daemon = os.path.join(args.build, "tools", "sm-campaignd")
    if not os.path.exists(daemon):
        log(f"{daemon} not found -- build first")
        return 1
    workload = f"synthetic:{args.trials}"
    rng = random.Random(args.seed)

    workdir = args.workdir or tempfile.mkdtemp(prefix="sm_crash_")
    os.makedirs(workdir, exist_ok=True)
    base_dir = os.path.join(workdir, "baseline")
    chaos_dir = os.path.join(workdir, "chaos")
    for d in (base_dir, chaos_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)

    log(f"workdir {workdir}; workload {workload} -j{args.jobs} "
        f"seed {args.seed}")
    base_out, base_metrics, base_elapsed, base_rss = run_baseline(
        daemon, workload, args.jobs, args.seed, base_dir)

    # Budget the kill cadence so ~all kills are spent within roughly one
    # uninterrupted-campaign duration of work (time with workers alive).
    mean_interval = max(0.05, base_elapsed / max(1, args.kills))
    chaos_out = os.path.join(chaos_dir, "out.jsonl")
    chaos_metrics = os.path.join(chaos_dir, "metrics.json")
    chaos_d = os.path.join(chaos_dir, "d")
    cmd = [daemon, "--workload", workload, "--dir", chaos_d,
           "--out", chaos_out, "--metrics-out", chaos_metrics,
           "-j", str(args.jobs), "--seed", str(args.seed)]

    kills = 0
    worker_kills = 0
    group_kills = 0
    armed = 0
    fired = 0
    lock_checked = False
    launches = 0
    work = 0.0
    while True:
        if not lock_checked and os.path.exists(
                os.path.join(chaos_d, "campaign.ckpt")):
            if not check_lock_refusal(cmd, chaos_d):
                return 1
            lock_checked = True
        launches += 1
        if launches > args.max_launches:
            log(f"stuck: {launches} launches without completion")
            return 1
        launch_cmd = list(cmd)
        if fired < args.fault_rounds:
            # Arm a planned mid-checkpoint-write crash.
            launch_cmd += ["--fault-byte-budget",
                           str(rng.randrange(64, 4096))]
            armed += 1
        sup = subprocess.Popen(launch_cmd, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL,
                               start_new_session=True)
        while sup.poll() is None and not read_worker_pids(sup.pid):
            time.sleep(0.001)
        started = time.monotonic()
        while True:
            # Adaptive cadence: spend remaining kills before the trials
            # run out (scaled down as the campaign nears completion).
            elapsed = work + time.monotonic() - started
            frac = min(1.0, elapsed / base_elapsed)
            urgency = 1.0 if kills >= args.kills else max(
                0.15, (1.0 - frac))
            interval = rng.uniform(0.3, 1.7) * mean_interval * urgency
            time.sleep(interval)
            rc = sup.poll()
            if rc is not None:
                break
            if kills >= args.kills:
                continue  # let it finish undisturbed
            if rng.random() < 0.4:
                pids = read_worker_pids(sup.pid)
                if pids and kill_pid(rng.choice(pids)):
                    kills += 1
                    worker_kills += 1
                    log(f"kill #{kills}: worker (launch {launches})")
                    continue
            # Whole process group: supervisor and every worker at once.
            if kill_pid(sup.pid, group=True):
                kills += 1
                group_kills += 1
                log(f"kill #{kills}: process group (launch {launches})")
            sup.wait()
            break
        rc = sup.wait()
        work += time.monotonic() - started
        if rc == 0:
            break
        if rc == FAULT_EXIT:
            fired += 1
            log(f"planned fault #{fired} fired (launch {launches})")
        elif rc != -signal.SIGKILL:
            log(f"supervisor exited {rc} (launch {launches})")
            return 1

    log(f"{kills} kills ({worker_kills} worker, {group_kills} group), "
        f"{fired} fired faults ({armed} armed launches), "
        f"{launches} launches")
    if kills < args.kills or not worker_kills or not group_kills or \
            fired < args.fault_rounds or not lock_checked:
        log(f"campaign finished before every fault kind landed "
            f"(want {args.kills} kills of both kinds, {args.fault_rounds} "
            f"fired faults, the lock check) -- increase --trials")
        return 1

    def outputs_match(when):
        ok = True
        for label, a, b in (("jsonl", base_out, chaos_out),
                            ("metrics", base_metrics, chaos_metrics)):
            if files_equal(a, b):
                log(f"{label} ({when}): BYTE-IDENTICAL")
            else:
                log(f"{label} ({when}): MISMATCH ({a} vs {b})")
                ok = False
        return ok

    ok = outputs_match("chaos")
    # A relaunch on the finished dir only loads the checkpoint and
    # rewrites the outputs: it must not cost much more than the campaign.
    # The chaos outputs go first, so the comparison reads what the
    # relaunch itself wrote.
    os.remove(chaos_out)
    os.remove(chaos_metrics)
    rc, resume_rss = run_measured(cmd)
    if rc != 0:
        log(f"relaunch on the finished dir exited {rc}")
        ok = False
    ok = outputs_match("relaunch") and ok
    ratio = resume_rss / base_rss
    within = ratio <= RESUME_RSS_RATIO
    log(f"relaunch largest process {resume_rss:.1f} MB = {ratio:.2f}x the "
        f"baseline's {base_rss:.1f} MB (limit {RESUME_RSS_RATIO:.2f}x)"
        f"{'' if within else ' -- OVER'}")
    ok = ok and within
    if ok and not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
