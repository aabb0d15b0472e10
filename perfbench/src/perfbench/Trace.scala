package perfbench

import java.io.PrintWriter

import scala.collection.mutable

import repro.core.{FiCSUM, FiCSUMConfig}
import repro.eval.{Probeable, ProbeResult, StreamSystem}

/** In-memory spans recorded around the benchmark's own calls into each
  * layer. A span name starts with its layer (`core.step.drift` belongs to
  * `core`). Not thread-safe: each thread records into its own tracer and
  * tracers are merged afterwards.
  */
final class Tracer {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var name  = new Array[Int](1024)
  private var start = new Array[Long](1024)
  private var stop  = new Array[Long](1024)
  private var parent = new Array[Int](1024)
  private var cell  = new Array[Int](1024)
  private var n = 0
  private var current = -1

  def size: Int = n

  private def id(s: String): Int = nameIds.getOrElseUpdate(s, { names += s; names.length - 1 })

  private def alloc(): Int = {
    if (n == name.length) {
      val c = n * 2
      name = java.util.Arrays.copyOf(name, c); start = java.util.Arrays.copyOf(start, c)
      stop = java.util.Arrays.copyOf(stop, c); parent = java.util.Arrays.copyOf(parent, c)
      cell = java.util.Arrays.copyOf(cell, c)
    }
    n += 1
    n - 1
  }

  def begin(span: String, cellId: Int): Int = {
    val i = alloc()
    name(i) = id(span); parent(i) = current; cell(i) = cellId
    current = i
    start(i) = System.nanoTime()
    i
  }

  def end(i: Int): Unit = {
    stop(i) = System.nanoTime()
    current = parent(i)
  }

  /** A finished span whose times were taken by the caller. */
  def record(span: String, cellId: Int, t0: Long, t1: Long, parentId: Int = -2): Int = {
    val i = alloc()
    name(i) = id(span); parent(i) = if (parentId == -2) current else parentId; cell(i) = cellId
    start(i) = t0; stop(i) = t1
    i
  }

  /** Appends another tracer's spans (from a worker thread) under `parentId`. */
  def merge(o: Tracer, parentId: Int): Unit = {
    val base = n
    var k = 0
    while (k < o.n) {
      val p = if (o.parent(k) < 0) parentId else base + o.parent(k)
      record(o.names(o.name(k)), o.cell(k), o.start(k), o.stop(k), p)
      k += 1
    }
  }

  /** Self time per layer in ms: each span's duration minus the part of its
    * interval covered by its children.
    */
  def selfMsByLayer: Map[String, Double] = {
    val kids = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    var k = 0
    while (k < n) { if (parent(k) >= 0) kids(parent(k)) += k; k += 1 }
    val out = mutable.HashMap.empty[String, Double].withDefaultValue(0.0)
    k = 0
    while (k < n) {
      val ivs = kids(k).map(c => (math.max(start(c), start(k)), math.min(stop(c), stop(k))))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L; var curA = Long.MinValue; var curB = Long.MinValue
      ivs.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      val layer = names(name(k)).takeWhile(_ != '.')
      out(layer) += (stop(k) - start(k) - covered) / 1e6
      k += 1
    }
    out.toMap
  }

  /** Durations (ns) of every span with the given name. */
  def durations(span: String): Array[Long] = nameIds.get(span) match {
    case None => Array.emptyLongArray
    case Some(j) =>
      val b = mutable.ArrayBuilder.make[Long]
      var k = 0
      while (k < n) { if (name(k) == j) b += stop(k) - start(k); k += 1 }
      b.result()
  }

  def write(path: String): Unit = {
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val w = new PrintWriter(f, "UTF-8")
    try {
      w.println("id\tname\tstart_ns\tend_ns\tparent\tcell")
      var k = 0
      while (k < n) {
        w.println(s"$k\t${names(name(k))}\t${start(k)}\t${stop(k)}\t${parent(k)}\t${cell(k)}")
        k += 1
      }
    } finally w.close()
  }
}

/** Delegating system handed to `Runner.run` or stepped directly. It writes
  * each step's latency and its (prediction, model id) into arrays sized
  * before the stream starts. With a tracer it also records one span per
  * step, classifying FiCSUM steps from the engine's public counters.
  */
class Timed(val inner: StreamSystem, capacity: Int, tracer: Tracer, cellId: Int) extends StreamSystem {
  def name: String = inner.name
  val stepNs = new Array[Long](capacity)
  val preds  = new Array[Int](capacity)
  val models = new Array[Int](capacity)
  var count  = 0

  private val engine: FiCSUM = inner match { case f: FiCSUM => f; case _ => null }
  private val cfg = FiCSUMConfig()
  private val baselineSpan = s"baselines.${inner.name}.step"

  def step(x: Array[Double], y: Int): (Int, Int) =
    if (tracer == null) {
      val t0 = System.nanoTime()
      val r = inner.step(x, y)
      val t1 = System.nanoTime()
      stepNs(count) = t1 - t0; preds(count) = r._1; models(count) = r._2
      count += 1
      r
    } else tracedStep(x, y)

  private def tracedStep(x: Array[Double], y: Int): (Int, Int) = {
    if (engine == null) {
      val t0 = System.nanoTime()
      val r = inner.step(x, y)
      val t1 = System.nanoTime()
      tracer.record(baselineSpan, cellId, t0, t1)
      stepNs(count) = t1 - t0; preds(count) = r._1; models(count) = r._2
      count += 1
      r
    } else {
      val fp = engine.fingerprintUpdates; val det = engine.detectorUpdates
      val dr = engine.driftCount; val repo = engine.repositorySize
      val t0 = System.nanoTime()
      val r = inner.step(x, y)
      val t1 = System.nanoTime()
      val i = count + 1
      val cls =
        if (engine.driftCount != dr || engine.repositorySize != repo) "drift"
        else if (i % cfg.repoGap == 0 && repo > 1 && i >= cfg.windowSize + cfg.bufferLen) "fsc"
        else if (engine.detectorUpdates != det) "detect"
        else if (engine.fingerprintUpdates != fp) "fingerprint"
        else "plain"
      tracer.record("core.step." + cls, cellId, t0, t1)
      stepNs(count) = t1 - t0; preds(count) = r._1; models(count) = r._2
      count += 1
      r
    }
  }

  /** Hash of the (prediction, model id) sequence. */
  def digest: String = {
    val h = new Fnv
    var k = 0
    while (k < count) { h.add(preds(k)); h.add(models(k)); k += 1 }
    h.hex
  }
}

/** A [[Timed]] wrapper for probeable systems, so `Runner.run` still probes. */
final class TimedProbe(inner: StreamSystem with Probeable, capacity: Int, tracer: Tracer, cellId: Int)
    extends Timed(inner, capacity, tracer, cellId) with Probeable {
  var probeCalls = 0
  var probeNs = 0L

  def probe(): Option[ProbeResult] = {
    val id = if (tracer != null) tracer.begin("eval.probe", cellId) else -1
    val t0 = System.nanoTime()
    val r = inner.probe()
    probeNs += System.nanoTime() - t0
    probeCalls += 1
    if (id >= 0) tracer.end(id)
    r
  }
}

object Timed {
  def wrap(s: StreamSystem, capacity: Int, tracer: Tracer, cellId: Int): Timed = s match {
    case p: StreamSystem with Probeable => new TimedProbe(p, capacity, tracer, cellId)
    case other                          => new Timed(other, capacity, tracer, cellId)
  }
}
