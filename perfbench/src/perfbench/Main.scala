package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** Command-line options, as passed by `perfbench/run.py`. `seconds` is
  * accepted but changes no work: each workload times a fixed set of cells
  * or micro-batches, so a seed always means the same work.
  */
final case class Opts(
    workload: String = "",
    seed: Long = 1L,
    seconds: Double = 10.0,
    trace: Boolean = false,
    work: String = ".bench_build/work",
    traceOut: String = "",
    smoke: Boolean = false,
    corrupt: Boolean = false,
) {
  /** Stream prefix used by smoke runs (0 = whole stream). */
  def smokeObs: Int = if (smoke) 600 else 0
}

object Opts {
  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil                              => o
    case "--workload" :: v :: rest        => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest            => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest         => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest           => parse(rest, o.copy(trace = v == "1"))
    case "--work" :: v :: rest            => parse(rest, o.copy(work = v))
    case "--trace-out" :: v :: rest       => parse(rest, o.copy(traceOut = v))
    case "--smoke" :: rest                => parse(rest, o.copy(smoke = true))
    case "--corrupt" :: rest              => parse(rest, o.copy(corrupt = true))
    case other :: _                       => throw new IllegalArgumentException(s"unknown option $other")
  }
}

/** Everything a workload needs from the run: options, report, set-up
  * timer, the tracer (null when untraced) and the Spark session factory.
  */
final class Ctx(val opts: Opts) {
  val report = new Report(opts.workload, opts.seed)
  val traced: Boolean = opts.trace
  val tracer: Tracer = if (traced) new Tracer else null
  val setup = new Setup(tracer)
  val reps: Int = if (opts.smoke) 1 else 3
  val warmObs: Int = if (opts.smoke) 300 else 1000
  /** Warm-up passes of the seq-* workloads, whose set-up is mostly JIT
    * compilation; on grid-table6 and stream-state the cold SparkSession and
    * query start dominate set-up and one warm-up pass is made.
    */
  val warmReps: Int = if (opts.smoke) 1 else 2
  val cores: Int = Runtime.getRuntime.availableProcessors

  /** Creates the session once, cold as every run meets it, and counts its
    * creation time into set-up.
    */
  def sparkSession(partitions: Int): SparkSession = {
    val s = setup.once("spark_session") {
      SparkSession.builder
        .master(s"local[$cores]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", partitions.toString)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", s"${opts.work}/spark-local")
        .config("spark.sql.warehouse.dir", s"${opts.work}/warehouse")
        .getOrCreate()
    }
    report.info("spark") = Map(
      "version" -> s.version,
      "master" -> s.sparkContext.master,
      "shuffle_partitions" -> partitions,
    )
    s
  }

  /** Runs `untraced`, `traced` and `untraced` again, each after a full GC
    * so that all three start from the same heap, and reports the traced
    * wall-clock against the mean of the untraced ones: a drift in speed
    * from one repetition to the next cancels out.
    */
  def bracket[T](untraced: => (T, Double), traced: => (T, Double)): (T, T, T) = {
    def settled[A](f: => A): A = { System.gc(); f }
    val (before, beforeWall) = settled(untraced)
    val (during, tracedWall) = settled(traced)
    val (after, afterWall) = settled(untraced)
    report.metric("trace.overhead_pct", (tracedWall / ((beforeWall + afterWall) / 2) - 1.0) * 100.0, "%")
    report.info("trace_walls_s") = Seq(beforeWall, tracedWall, afterWall)
    (before, during, after)
  }
}

object Main {
  val LayerNames: Seq[String] = Seq("stream", "meta", "core", "classifier", "detector", "baselines", "eval", "grid", "sstream")

  private val GridMetrics = Seq(
    "grid.tasks" -> "count", "grid.cell_s_sum" -> "s", "grid.cell_s_max" -> "s", "grid.parallel_eff" -> "1",
    "grid.task_wait_ms" -> "ms", "grid.task_deser_ms" -> "ms", "grid.result_kb" -> "KB")
  private val StreamMetrics = Seq(
    "sstream.add_batch_ms", "sstream.planning_ms", "sstream.wal_commit_ms", "sstream.commit_offsets_ms",
    "sstream.state_commit_ms", "sstream.state_update_ms").map(_ -> "ms") ++ Seq(
    "sstream.engine_kb_per_key" -> "KB", "sstream.engine_ser_ms" -> "ms", "sstream.engine_deser_ms" -> "ms",
    "sstream.engine_step_ms" -> "ms")

  def main(args: Array[String]): Unit = {
    val jvmStart = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val cpu0 = Steal.sample()
    val opts = Opts.parse(args.toList)
    val ctx = new Ctx(opts)
    ctx.setup.parts("jvm_start") = jvmStart
    val rep = ctx.report
    opts.workload match {
      case "seq-fingerprint" => SeqWorkload.run(ctx, Cells.fingerprint, seedsPerRun = 2)
      case "seq-classifier"  => SeqWorkload.run(ctx, Cells.classifier, seedsPerRun = 3)
      case "grid-table6"     => GridWorkload.run(ctx)
      case "stream-state"    => StreamWorkload.run(ctx)
      case other             => throw new IllegalArgumentException(s"unknown workload '$other'")
    }

    if (!ctx.traced) rep.metric("setup_s", ctx.setup.total, "s")
    else {
      // Layers a workload leaves idle did no work: their counters read 0.
      if (opts.workload != "grid-table6") GridMetrics.foreach { case (m, u) => rep.metric(m, 0.0, u) }
      if (opts.workload != "stream-state") StreamMetrics.foreach { case (m, u) => rep.metric(m, 0.0, u) }
      rep.metric("stream.build_ms", ctx.setup.parts("build_streams") * 1e3, "ms")
      val self = ctx.tracer.selfMsByLayer
      LayerNames.foreach(l => rep.metric(s"self_ms.$l", self.getOrElse(l, 0.0), "ms"))
      rep.info("spans") = ctx.tracer.size
      if (opts.traceOut.nonEmpty) ctx.tracer.write(opts.traceOut)
    }
    rep.info("setup_parts") = ctx.setup.parts
    rep.info("setup_reps") = ctx.setup.repTimes
    rep.info("env") = mutable.LinkedHashMap[String, Any](
      "java" -> System.getProperty("java.version"),
      "vm" -> System.getProperty("java.vm.name"),
      "cores" -> ctx.cores,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "spark_version" -> org.apache.spark.SPARK_VERSION,
      "steal_pct" -> Steal.pct(cpu0, Steal.sample()).orNull,
    )
    SparkSession.getActiveSession.orElse(SparkSession.getDefaultSession).foreach(_.stop())
    println("PERFBENCH_REPORT " + rep.json)
    System.out.flush()
  }
}
