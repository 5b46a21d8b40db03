#!/usr/bin/env python3
"""Run one workload of the PFD benchmark and print its JSON result last.

    python3 perfbench/run.py --workload multi-lhs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload large-table --write-golden

Run from the repository root. The harness is a Scala program in this
directory. Its first use compiles it with sbt, together with the
repository's program from source (a source dependency on the root build).
Later runs reuse that build while the sources are unchanged. Build output
and Spark scratch space stay inside the checkout, under `.bench_build/`
and sbt's `target/` directories.

`--write-golden` re-records the workload's golden snapshot (deps, flagged
cells and quality counts per table); a change that alters it must explain
each difference. `--selftest` runs the harness on scaled-down tables and
checks that every metric named in BENCHMARK.json is reported with its unit
and that tracing attributes every Spark job to a layer.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

JAVA_OPTS = [
    "-Xmx3g", "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Dspark.driver.host=127.0.0.1",
    # deep enough for the tracer to see discoverLevel2 above mineEntries
    "-Dspark.callstack.depth=400",
]


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads: the program and the harness."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def source_id(digest):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return f"git:{commit or 'none'} sha256:{digest[:16]}"


def build(digest):
    """Compile harness + program; return the runtime classpath."""
    stamp = BUILD / "classpath.json"
    if stamp.exists():
        cached = json.loads(stamp.read_text())
        if cached.get("digest") == digest:
            return cached["classpath"]
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    # The build must not reach the network: resolve from local caches only.
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.supershell=false",
           "export perfbench/Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 3)
    lines = [l for l in out.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        die("build failed", 3)
    classpath = lines[-1].strip()
    stamp.write_text(json.dumps({"digest": digest, "classpath": classpath}))
    return classpath


def run_bench(classpath, bench_args, source):
    tmp = BUILD / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["SPARK_LOCAL_DIRS"] = str(tmp)
    cmd = (["java"] + JAVA_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", classpath,
           "repro.perfbench.Bench", "--golden-dir", str(HERE / "golden"), "--source", source]
           + bench_args)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("benchmark run timed out", 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, out


def selftest(classpath, source):
    """Run the harness on scaled-down tables: every metric named in
    BENCHMARK.json appears with its unit, and tracing attributes every job."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload, scale, trace in (("large-table", "0.01", 0), ("multi-lhs", "0.1", 1)):
        key = "per_layer" if trace else "end_to_end"
        code, out = run_bench(classpath, ["--workload", workload, "--seed", "0",
                                          "--seconds", "1", "--trace", str(trace),
                                          "--scale", scale], source)
        sys.stdout.write(out)
        if code != 0:
            print(f"selftest: {workload} trace={trace} exited {code}")
            ok = False
            continue
        got = json.loads(out.strip().splitlines()[-1])["metrics"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, unit in want.items():
            if name not in got:
                print(f"selftest: metric {name} missing ({workload} trace={trace})"); ok = False
            elif got[name]["unit"] != unit or not isinstance(got[name]["value"], (int, float)):
                print(f"selftest: metric {name} reads {got[name]} (want unit {unit})"); ok = False
        for name in set(got) - set(want):
            print(f"selftest: metric {name} not declared in BENCHMARK.json"); ok = False
        if trace == 1 and got.get("trace.unattributed_jobs", {}).get("value") != 0:
            print(f"selftest: unattributed jobs: {got.get('trace.unattributed_jobs')}"); ok = False
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="large-table or multi-lhs (see BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        die("--workload is required")
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (ROOT / "build.sbt").is_file():
        die(f"no program sources next to {HERE.name}/: run from a full checkout")
    digest = source_digest()
    classpath = build(digest)
    source = source_id(digest)
    if a.selftest:
        sys.exit(selftest(classpath, source))
    bench_args = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.write_golden:
        bench_args.append("--write-golden")
    code, out = run_bench(classpath, bench_args, source)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
