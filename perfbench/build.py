"""Build file of the benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) with the Scala compiler that ships in the
Spark distribution's jars directory. Classes go to
.bench_build/perfbench/<key>/classes, where <key> hashes every input, so a
changed source gets a fresh build and an unchanged one is reused.

The Spark distribution is found through SPARK_HOME, or else through
`spark-submit` on PATH; Java through JAVA_HOME, or else `java` on PATH.
"""

import glob
import hashlib
import os
import shutil
import subprocess

BUILD_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return found


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler: set SPARK_HOME")
    return jars


def sources(root):
    program = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError("no program sources under src/main/scala: run from the root of a checkout")
    bench = sorted(glob.glob(os.path.join(root, "perfbench", "src", "**", "*.scala"), recursive=True))
    return program, bench


def source_digest(root, files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def ensure(root):
    """Returns (classes dir, jars dir, java, source digest), building first
    when no build of the current sources exists."""
    java = java_bin()
    jars = spark_jars()
    program, bench = sources(root)
    digest = source_digest(root, program + bench)
    key = hashlib.sha256((digest + "\n".join(sorted(os.listdir(jars)))).encode()).hexdigest()[:16]
    out = os.path.join(root, ".bench_build", "perfbench", key)
    classes = os.path.join(out, "classes")
    if os.path.exists(os.path.join(out, "ok")):
        return classes, jars, java, digest
    tmp = out + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "classes"))
    os.makedirs(os.path.join(tmp, "jvmtmp"))
    argfile = os.path.join(tmp, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(program + bench) + "\n")
    cp = os.path.join(jars, "*")
    cmd = [java, "-Xmx1g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + os.path.join(tmp, "jvmtmp"),
           "-cp", cp, "scala.tools.nsc.Main", "-nowarn", "-classpath", cp,
           "-d", os.path.join(tmp, "classes"), "@" + argfile]
    try:
        res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation timed out")
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed:\n" + res.stdout[-4000:])
    shutil.rmtree(os.path.join(tmp, "jvmtmp"), ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    with open(os.path.join(out, "ok"), "w") as fh:
        fh.write(digest + "\n")
    return classes, jars, java, digest
