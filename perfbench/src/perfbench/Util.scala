package perfbench

import java.io.{ByteArrayOutputStream, ObjectOutputStream}

import scala.collection.mutable

/** Minimal JSON rendering for the report (no JSON library is on the
  * program's classpath that the benchmark may rely on).
  */
object Json {
  def render(v: Any): String = v match {
    case null                         => "null"
    case s: String                    => quote(s)
    case b: Boolean                   => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                    => java.lang.Double.toString(d)
    case f: Float                     => render(f.toDouble)
    case i: Int                       => i.toString
    case l: Long                      => l.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case s: Iterable[_]               => s.iterator.map(render).mkString("[", ",", "]")
    case a: Array[_]                  => render(a.toSeq)
    case o                            => quote(o.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').result()
  }
}

object Stats {
  /** Percentile levels a tail may be reported at. Above p90 a step's
    * latency follows how many drift and model-selection steps a seed's
    * streams happen to trigger, not the cost of a step. Over seeds 1-10, of
    * all steps pooled, p90, p95 and p99 spread by 0.06, 0.11 and 0.22 of
    * their median on seq-fingerprint and by 0.09, 0.13 and 0.11 on
    * seq-classifier; p99.9 by 0.37 and 0.20.
    */
  private val Ladder = Seq(50.0, 60.0, 75.0, 80.0, 90.0)

  /** The highest ladder percentile that leaves at least ten of `n` samples
    * beyond it.
    */
  def tailLevel(n: Int): Double =
    Ladder.filter(q => n * (100.0 - q) / 100.0 >= 10.0).lastOption.getOrElse(50.0)

  /** Nearest-rank percentile of an already sorted array. */
  def percentile(sorted: Array[Long], q: Double): Long = {
    require(sorted.nonEmpty, "percentile of no samples")
    val idx = math.ceil(q / 100.0 * sorted.length).toInt - 1
    sorted(math.min(math.max(idx, 0), sorted.length - 1))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}

/** Java-serialized size and timing, the form in which the streaming layer
  * stores each engine.
  */
object Ser {
  def bytes(o: AnyRef): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(o)
    oos.close()
    bos.toByteArray
  }

  def read(b: Array[Byte]): AnyRef = {
    val ois = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(b))
    try ois.readObject() finally ois.close()
  }
}

/** Maps `f` over `items` on a pool of `threads` threads, submitting in the
  * items' order.
  */
object Par {
  def map[A, B](items: IndexedSeq[A], threads: Int)(f: A => B): IndexedSeq[B] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(math.max(1, threads))
    try {
      val futures = items.map(a => pool.submit(new java.util.concurrent.Callable[B] { def call(): B = f(a) }))
      futures.map(_.get())
    } finally pool.shutdown()
  }
}

/** 64-bit FNV-1a over a sequence of ints: the behaviour digest of a cell. */
final class Fnv {
  private var h = 0xcbf29ce484222325L
  def add(v: Int): Unit = {
    var k = 0
    while (k < 4) {
      h ^= (v >>> (8 * k)) & 0xff
      h *= 0x100000001b3L
      k += 1
    }
  }
  def hex: String = f"$h%016x"
}

/** The host's share of this machine's CPU time it kept from it ("steal",
  * from /proc/stat), between two samples: a shared host that steals time
  * slows every measured figure. None where /proc/stat is unreadable.
  */
object Steal {
  def sample(): Option[(Long, Long)] = scala.util.Try {
    val src = scala.io.Source.fromFile("/proc/stat")
    val cpu = try src.getLines().next() finally src.close()
    val f = cpu.trim.split("\\s+").drop(1).take(8).map(_.toLong)
    (f(7), f.sum)
  }.toOption

  def pct(a: Option[(Long, Long)], b: Option[(Long, Long)]): Option[Double] = for {
    (s0, t0) <- a; (s1, t1) <- b if t1 > t0
  } yield 100.0 * (s1 - s0) / (t1 - t0)
}

/** Set-up time: each component is done once, repeated with its median
  * counted, or repeated with its total counted, so `setup_s` is steady
  * while still including every kind of work done before the timed region.
  * `repTimes` keeps every repetition's time.
  */
final class Setup(tracer: => Tracer) {
  val parts = mutable.LinkedHashMap.empty[String, Double]
  val repTimes = mutable.LinkedHashMap.empty[String, Seq[Double]]

  def once[T](name: String)(f: => T): T = {
    val t0 = System.nanoTime()
    val r = f
    parts(name) = (System.nanoTime() - t0) / 1e9
    r
  }

  def median[T](name: String, reps: Int, span: String = null)(f: => T): T =
    repeat(name, reps, span, Stats.median)(f)

  /** For a warm-up: each repetition runs warmer than the one before, so
    * their median follows how far the JIT compiler has got, while their
    * total is a fixed amount of work.
    */
  def total[T](name: String, reps: Int)(f: => T): T = repeat(name, reps, null, _.sum)(f)

  private def repeat[T](name: String, reps: Int, span: String, agg: Seq[Double] => Double)(f: => T): T = {
    var last: T = null.asInstanceOf[T]
    val times = (1 to reps).map { _ =>
      val t = tracer
      val id = if (t != null && span != null) t.begin(span, -1) else -1
      val t0 = System.nanoTime()
      last = f
      val dt = (System.nanoTime() - t0) / 1e9
      if (id >= 0) t.end(id)
      dt
    }
    parts(name) = agg(times)
    repTimes(name) = times
    last
  }

  def total: Double = parts.values.sum
}

/** Mutable result of one benchmark run, rendered as one JSON line. */
final class Report(val workload: String, val seed: Long) {
  val metrics  = mutable.LinkedHashMap.empty[String, (Double, String)]
  val info     = mutable.LinkedHashMap.empty[String, Any]
  val failures = mutable.ArrayBuffer.empty[String]
  var attempted = 0
  var failed    = 0

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** Count one operation; `problems` empty means it passed its checks. */
  def op(what: String, problems: Seq[String]): Unit = {
    attempted += 1
    if (problems.nonEmpty) {
      failed += 1
      failures += s"$what: ${problems.mkString("; ")}"
    }
  }

  def json: String = Json.render(mutable.LinkedHashMap[String, Any](
    "workload"  -> workload,
    "seed"      -> seed,
    "attempted" -> attempted,
    "failed"    -> failed,
    "failures"  -> failures.take(20),
    "metrics"   -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) },
    "info"      -> info,
  ))
}
