#!/usr/bin/env python3
"""Builds and runs the two-clock benchmark (perfbench/twoclock.cpp).

Run from the repository root:

    python3 perfbench/run.py --workload amr_regrid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record     # re-record perfbench/references.json

The library is compiled from ../src into .bench_build/ (or
$CARGO_TARGET_DIR when set), so the benchmark always measures the
sources next to it. The run itself is pinned to two CPUs, one per rank
thread of the largest workload: with its threads free to spread over
all cores, the host CPU seconds of a step moved with other processes'
load (see perfbench/GLOSSARY.md, which also defines every metric). The last stdout line is the result JSON. The exit
code is non-zero when the build fails or an output check fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("amr_regrid", "halo_overlap", "service_batch")
REFERENCES = HERE / "references.json"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-G", "Ninja",
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "twoclock"


def source_version():
    """git sha when the tree is a checkout, else a digest of src/."""
    if not (ROOT / ".git").exists():
        return source_digest()
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def pin_cpus(count=2):
    """Restricts this process, and the run it starts, to `count` CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-count:])


def workdir():
    return build_dir().parent / f"work-{os.getpid()}"


def record(binary):
    refs = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [str(binary), "--workload", name, "--seed", "0", "--record",
             "--workdir", str(workdir())],
            capture_output=True, text=True, check=True)
        text = proc.stdout[proc.stdout.index("\n{") + 1:]
        refs.update(json.loads(text))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the output-check references")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.record:
        record(binary)
        return 0
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir()), "--references", str(REFERENCES),
           "--git-sha", source_version()]
    pin_cpus()
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
