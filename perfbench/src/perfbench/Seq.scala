package perfbench

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, SparkListenerTaskEnd}

import repro.baselines.{Dwm, Htcd, Rcd}
import repro.core.{FiCSUM, FingerprintSpec}
import repro.eval.{Cell, EvalGrid, Metrics, Runner, RunOutcome, Systems}
import repro.stream.{Datasets, GeneratedStream}

/** One (dataset, system, seed) cell of a workload; the seed makes both the
  * stream and the system, as in the Tables.
  */
final case class CellSpec(dataset: String, system: String, seed: Long) {
  override def toString: String = s"$dataset/$system/$seed"
}

/** A finished cell: the outcome `Runner.run` reported and the wrapper that
  * saw every step.
  */
final case class CellRun(spec: CellSpec, stream: GeneratedStream, outcome: RunOutcome, timed: Timed, runNs: Long)

object Cells {
  val Datasets5: Seq[String] = Seq("STAGGER", "RBF", "AQSex", "QG", "Arabic")
  val Baselines: Seq[String] = Seq("HTCD", "RCD", "DWM", "ARF", "ER")
  /** Table VI's frameworks in the order the Tables submit them. */
  val Table6: Seq[String] = Seq("HTCD", "RCD", "ER", "DWM", "ARF", "FiCSUM")

  val fingerprint: Seq[(String, String)] = Seq("QG", "AQSex").map((_, "FiCSUM"))
  val classifier: Seq[(String, String)] = for (d <- Datasets5; s <- Baselines) yield (d, s)

  /** The union of both sequential workloads, dataset-major with FiCSUM
    * last, as the Tables enumerate their grids.
    */
  val grid: Seq[(String, String)] =
    for (d <- Datasets5; s <- Table6 if classifier.contains((d, s)) || fingerprint.contains((d, s)))
      yield (d, s)

  /** The cells of one run: every spec on `perRun` streams, seeded
    * `runSeed * perRun + j`, so a run's figures average over several draws
    * of each dataset's concepts and no two runs share a stream.
    */
  def panel(specs: Seq[(String, String)], runSeed: Long, perRun: Int, smoke: Boolean): Seq[CellSpec] = {
    val seeds = if (smoke) Seq(runSeed) else (0 until perRun).map(j => runSeed * perRun + j)
    for ((d, s) <- specs; seed <- seeds) yield CellSpec(d, s, seed)
  }
}

/** Shared pieces of the workloads that drive `Runner.run`. */
object CellOps {

  def truncate(s: GeneratedStream, n: Int): GeneratedStream =
    if (n <= 0 || n >= s.length) s else s.copy(obs = s.obs.take(n), conceptIds = s.conceptIds.take(n))

  def runCell(spec: CellSpec, stream: GeneratedStream, tracer: Tracer, cellId: Int): CellRun = {
    val sys = Systems.create(spec.system, stream.numFeatures, stream.numClasses, spec.seed)
    val timed = Timed.wrap(sys, stream.length, tracer, cellId)
    val span = if (tracer != null) tracer.begin("eval.runner", cellId) else -1
    val t0 = System.nanoTime()
    val out = Runner.run(timed, stream, spec.seed)
    val dt = System.nanoTime() - t0
    if (span >= 0) tracer.end(span)
    CellRun(spec, stream, out, timed, dt)
  }

  /** Output checks of one cell against the sequence its wrapper recorded.
    * `corrupt` flips one recorded prediction first, to prove the checks bite.
    */
  def check(r: CellRun, corrupt: Boolean): Seq[String] = {
    val p = mutable.ArrayBuffer.empty[String]
    val n = r.stream.length
    val k = r.stream.numClasses
    val o = r.outcome
    if (r.timed.count != n) p += s"${r.timed.count} predictions for $n observations"
    if (!(o.kappa >= -1.0 && o.kappa <= 1.0)) p += s"kappa ${o.kappa} outside [-1,1]"
    if (!(o.cF1 >= 0.0 && o.cF1 <= 1.0)) p += s"C-F1 ${o.cF1} outside [0,1]"
    val preds = r.timed.preds.take(r.timed.count)
    if (corrupt && preds.nonEmpty) preds(preds.length / 2) = (preds(preds.length / 2) + 1) % k
    if (preds.exists(x => x < 0 || x >= k)) p += "prediction outside the label range"
    if (r.timed.count == n) {
      val models = r.timed.models.toIndexedSeq
      val kappa = Metrics.kappa(preds.toIndexedSeq, r.stream.obs.map(_.y), k)
      val cf1 = Metrics.cF1(models, r.stream.conceptIds)
      if (kappa != o.kappa) p += s"reported kappa ${o.kappa} != recomputed $kappa"
      if (cf1 != o.cF1) p += s"reported C-F1 ${o.cF1} != recomputed $cf1"
      if (models.distinct.length != o.numModels) p += s"reported ${o.numModels} models != ${models.distinct.length}"
    }
    p.toSeq
  }

  /** Behaviour digest: sequence hash, drift count, repository size, models. */
  def digest(r: CellRun): Map[String, Any] = {
    val (drifts, repo) = r.timed.inner match {
      case f: FiCSUM => (f.driftCount, f.repositorySize)
      case h: Htcd   => (h.driftCount, -1)
      case c: Rcd    => (c.driftCount, -1)
      case a: repro.baselines.Arf => (a.driftCount, -1)
      case d: Dwm    => (-1, d.numExperts)
      case _         => (-1, -1)
    }
    Map("hash" -> r.timed.digest, "drifts" -> drifts, "repo" -> repo, "models" -> r.outcome.numModels)
  }

  def stateKb(r: CellRun): Double = Ser.bytes(r.timed.inner).length / 1024.0

  /** Stream and system seed of every warm-up. It is the same in every run,
    * so the warm-up does the same work whatever `--seed` is, and negative,
    * so no measured cell (seeded from a run seed >= 0) shares it.
    */
  val WarmSeed: Long = -7777L

  /** Untimed warm-up: each (dataset, system) on a prefix of its
    * [[WarmSeed]] stream.
    */
  def warm(specs: Seq[(String, String)], n: Int, threads: Int = 1): Unit = {
    val streams = specs.map(_._1).distinct.map(d => d -> truncate(Datasets.byName(d).build(WarmSeed), n)).toMap
    Par.map(specs.toIndexedSeq, threads) { case (d, sys) => runCell(CellSpec(d, sys, WarmSeed), streams(d), null, -1) }
  }

  def buildStreams(ctx: Ctx, cells: Seq[CellSpec], prefix: Int): Map[(String, Long), GeneratedStream] =
    ctx.setup.median("build_streams", ctx.reps, "stream.build") {
      cells.map(c => (c.dataset, c.seed)).distinct
        .map(k => k -> truncate(Datasets.byName(k._1).build(k._2), prefix)).toMap
    }

  /** κ, C-F1 and end-of-stream state size: deterministic per seed, so they
    * belong to the behaviour record rather than to the bounded metrics.
    */
  def quality(rep: Report, kappas: Seq[Double], cf1s: Seq[Double], stateKbs: Seq[Double]): Unit = {
    rep.metric("eval.kappa", Stats.mean(kappas.filterNot(_.isNaN)), "1")
    rep.metric("eval.cf1", Stats.mean(cf1s.filterNot(_.isNaN)), "1")
    rep.metric("eval.state_kb", Stats.mean(stateKbs), "KB")
  }

  /** Latency metrics over step (task, batch) times in ns, in groups: one
    * per (dataset, system) on the seq-* workloads. Each group's median and
    * tail come from its own samples and the metric is their geometric mean,
    * so every pair counts once whatever its stream length. Pooled over all
    * cells, the median falls between two pairs' step costs and follows how
    * many plain steps each seed's streams happen to give. The details line
    * keeps each group's ladder up to p99.9.
    */
  def latency(rep: Report, groups: Seq[(String, Array[Long])]): Unit = {
    val per = groups.map { case (g, ns) =>
      java.util.Arrays.sort(ns)
      val q = Stats.tailLevel(ns.length)
      val ladder = Seq(50.0, 90.0, 99.0, 99.9).filter(l => ns.length * (100.0 - l) / 100.0 >= 10.0)
        .map(l => s"p$l" -> Stats.percentile(ns, l) / 1e3)
      (g, Stats.percentile(ns, 50) / 1e3, Stats.percentile(ns, q) / 1e3,
        (Seq("samples" -> ns.length, "tail_percentile" -> q) ++ ladder).toMap)
    }
    def geoMean(xs: Seq[Double]): Double = math.exp(xs.map(x => math.log(math.max(x, 1e-3))).sum / xs.length)
    rep.metric("op_us_p50", geoMean(per.map(_._2)), "us")
    rep.metric("op_us_tail", geoMean(per.map(_._3)), "us")
    rep.info("op_latency") = per.map(g => g._1 -> g._4).toMap
  }

  /** Per-layer numbers from traced runs of cells: step classes, engine
    * counters and baselines.
    */
  def stepLayers(rep: Report, runs: Seq[CellRun], tracer: Tracer): Unit = {
    for (c <- Seq("plain", "fingerprint", "detect", "fsc", "drift")) {
      val d = tracer.durations("core.step." + c)
      rep.metric(s"core.steps.$c", d.length, "count")
      rep.metric(s"core.step_ms.$c", d.sum / 1e6, "ms")
    }
    val engines = runs.map(_.timed.inner).collect { case f: FiCSUM => f }
    rep.metric("core.fingerprint_updates", engines.map(_.fingerprintUpdates).sum.toDouble, "count")
    rep.metric("core.detector_updates", engines.map(_.detectorUpdates).sum.toDouble, "count")
    rep.metric("core.drifts", engines.map(_.driftCount).sum.toDouble, "count")
    rep.metric("core.repo_size", engines.map(_.repositorySize).sum.toDouble, "count")
    for (s <- Seq("HTCD", "RCD", "DWM", "ARF")) {
      val d = tracer.durations(s"baselines.$s.step")
      rep.metric(s"baselines.${s.toLowerCase}.step_ms", d.sum / 1e6, "ms")
      rep.metric(s"baselines.${s.toLowerCase}.step_us_p50",
        if (d.isEmpty) 0.0 else { java.util.Arrays.sort(d); Stats.percentile(d, 50) / 1e3 }, "us")
    }
    val inners = runs.map(_.timed.inner)
    rep.metric("baselines.htcd.drifts", inners.collect { case h: Htcd => h.driftCount }.sum.toDouble, "count")
    rep.metric("baselines.rcd.drifts", inners.collect { case c: Rcd => c.driftCount }.sum.toDouble, "count")
    rep.metric("baselines.dwm.experts", inners.collect { case d: Dwm => d.numExperts }.sum.toDouble, "count")
  }

  /** Per-layer numbers of the evaluation loop around traced `Runner.run` calls. */
  def evalLayers(rep: Report, runs: Seq[CellRun]): Unit = {
    val probes = runs.map(_.timed).collect { case p: TimedProbe => p }
    val probeNs = probes.map(_.probeNs).sum
    val stepNs = runs.map(r => r.timed.stepNs.take(r.timed.count).sum).sum
    rep.metric("eval.probe_calls", probes.map(_.probeCalls).sum.toDouble, "count")
    rep.metric("eval.probe_ms", probeNs / 1e6, "ms")
    rep.metric("eval.runner_other_ms", (runs.map(_.runNs).sum - stepNs - probeNs) / 1e6, "ms")
  }

  /** FiCSUM-family layouts the cells use, with the repository sizes reached. */
  def fpTargets(runs: Seq[CellRun]): Seq[Layers.FpTarget] = runs.flatMap { r =>
    r.timed.inner match {
      case f: FiCSUM =>
        val d = r.stream.numFeatures
        val spec = if (f.name == "ER") FingerprintSpec.errorRate(d) else FingerprintSpec.full(d)
        Some(Layers.FpTarget(r.stream, spec, f.repositorySize))
      case _ => None
    }
  }
}

/** `seq-fingerprint` and `seq-classifier`: cells run one after another on
  * one thread through `Runner.run`.
  */
object SeqWorkload {
  import CellOps._

  def run(ctx: Ctx, specs: Seq[(String, String)], seedsPerRun: Int): Unit = {
    val rep = ctx.report
    val cells = Cells.panel(specs, ctx.opts.seed, seedsPerRun, ctx.opts.smoke)
    val streams = buildStreams(ctx, cells, ctx.opts.smokeObs)
    ctx.setup.total("warmup", ctx.warmReps)(warm(specs, ctx.warmObs))
    def stream(c: CellSpec) = streams((c.dataset, c.seed))
    def pass(idx: Seq[Int], tracer: Tracer): (Seq[Try[CellRun]], Double) = {
      val t0 = System.nanoTime()
      val runs = idx.map(i => Try(runCell(cells(i), stream(cells(i)), tracer, i)))
      (runs, (System.nanoTime() - t0) / 1e9)
    }

    // Timed region: one pass over the run's fixed cell set.
    val (runs, wall) = pass(cells.indices, null)
    for (((t, c), ci) <- runs.zip(cells).zipWithIndex) t match {
      case Failure(e) => rep.op(s"cell $c", Seq(s"threw $e"))
      case Success(r) => rep.op(s"cell $c", check(r, ctx.opts.corrupt && ci == 0))
    }
    val ok = runs.collect { case Success(r) => r }
    rep.info("digest") = ok.map(r => r.spec.toString -> digest(r)).toMap
    rep.info("runtime_ms") = ok.map(r => r.spec.toString -> r.runNs / 1e6).toMap
    quality(rep, ok.map(_.outcome.kappa), ok.map(_.outcome.cF1), ok.map(stateKb))

    rep.metric("obs_per_s", ok.map(_.timed.count.toLong).sum / wall, "obs/s")
    latency(rep, specs.map { case (d, sys) =>
      s"$d/$sys" -> Array.concat(ok.filter(r => r.spec.dataset == d && r.spec.system == sys)
        .map(r => r.timed.stepNs.take(r.timed.count)).toSeq: _*)
    })
    if (ctx.traced) {
      // The traced repetition covers the first stream seed's cells, between
      // two untraced repetitions of the same cells. All three must
      // reproduce the timed pass.
      val tracer = ctx.tracer
      val firstSeed = cells.head.seed
      val picked = cells.indices.filter(i => cells(i).seed == firstSeed)
      val (before, tracedRuns, after) = ctx.bracket(pass(picked, null), {
        val root = tracer.begin("eval.pass", -1)
        try pass(picked, tracer) finally tracer.end(root)
      })
      for ((rep0, what) <- Seq(before -> "untraced before", tracedRuns -> "traced", after -> "untraced after"))
        rep.op(s"$what repetition", picked.zip(rep0).flatMap { case (i, t) =>
          (runs(i), t) match {
            case (Success(a), Success(b)) if digest(a) == digest(b) => None
            case (_, Failure(e)) => Some(s"${cells(i)} threw $e")
            case _ => Some(s"${cells(i)} behaves unlike the timed pass")
          }
        })
      val traced = tracedRuns.collect { case Success(r) => r }
      stepLayers(rep, traced, tracer)
      evalLayers(rep, traced)
      Layers.replay(rep, tracer, traced.map(_.stream).distinct, fpTargets(traced), firstSeed)
    }
  }
}

/** `grid-table6`: the sequential workloads' cells as Spark tasks through `EvalGrid.run`. */
object GridWorkload {
  import CellOps._

  /** Task timings from Spark's listener bus. */
  final class TaskListener extends SparkListener {
    val tasks = mutable.ArrayBuffer.empty[SparkListenerTaskEnd]
    val stageSubmitted = mutable.HashMap.empty[Int, Long]
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      e.stageInfo.submissionTime.foreach(t => stageSubmitted(e.stageInfo.stageId) = t)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized { tasks += e }
    def reset(): Unit = synchronized { tasks.clear(); stageSubmitted.clear() }
  }

  def run(ctx: Ctx): Unit = {
    val rep = ctx.report
    val seed = ctx.opts.seed
    val specs = if (ctx.opts.smoke) Seq(("STAGGER", "HTCD"), ("STAGGER", "ER")) else Cells.grid
    // Submitted in the Tables' order (seed innermost), so the QG×FiCSUM
    // straggler starts near the end, as it does when the Tables run.
    val cells = Cells.panel(specs, seed, 2, ctx.opts.smoke)
    // Whole streams: the grid's tasks build their own, untruncated.
    val streams = buildStreams(ctx, cells, 0)
    val spark = ctx.sparkSession(ctx.cores)
    val listener = new TaskListener
    spark.sparkContext.addSparkListener(listener)
    def awaitTasks(n: Int): Unit = {
      val deadline = System.nanoTime() + 10e9.toLong
      while (listener.synchronized(listener.tasks.length) < n && System.nanoTime() < deadline) Thread.sleep(5)
    }
    ctx.setup.once("warmup") {
      listener.reset()
      warm(specs, ctx.warmObs, ctx.cores)
      val warmCells = specs.map(_._2).distinct.map(s => Cell("STAGGER", s, WarmSeed))
      EvalGrid.run(spark, warmCells)
      awaitTasks(warmCells.length)
    }
    val gridCells = cells.map(c => Cell(c.dataset, c.system, c.seed))

    /** Runs the grid; returns its outcomes, wall-clock and each cell's
      * result latency (submission to task end, ns).
      */
    def timedGrid(): (Try[Seq[RunOutcome]], Double, Array[Long]) = {
      listener.reset()
      val submitMs = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val out = Try(EvalGrid.run(spark, gridCells))
      val wall = (System.nanoTime() - t0) / 1e9
      awaitTasks(gridCells.length)
      val latNs = listener.synchronized(listener.tasks.map(t => (t.taskInfo.finishTime - submitMs) * 1000000L).toArray)
      (out, wall, latNs)
    }

    val (outcomes, wall, taskNs) = timedGrid()

    // Reference: the same cells through sequential Runner.run, outside the
    // timed region, on up to `cores` threads, FiCSUM cells first so the
    // reference ends sooner.
    val refTracers = cells.indices.map(_ => if (ctx.traced) new Tracer else null)
    val order = cells.indices.sortBy(i => if (cells(i).system == "FiCSUM") 0 else 1)
    val refByIdx = Par.map(order, ctx.cores) { i =>
      i -> Try(runCell(cells(i), streams((cells(i).dataset, cells(i).seed)), refTracers(i), i))
    }.toMap
    val refs = cells.indices.map(refByIdx)

    val byKey = outcomes.getOrElse(Seq.empty).map(o => (o.dataset, o.system, o.seed) -> o).toMap
    for (((c, ref), i) <- cells.zip(refs).zipWithIndex) {
      val problems = (byKey.get((c.dataset, c.system, c.seed)), ref) match {
        case (_, Failure(e)) => Seq(s"reference threw $e")
        case (None, _)       => Seq(outcomes.failed.toOption.fold("no grid outcome")(e => s"grid threw $e"))
        case (Some(g), Success(r)) =>
          val o = r.outcome
          check(r, ctx.opts.corrupt && i == 0) ++
            (if (g.kappa != o.kappa) Seq(s"grid kappa ${g.kappa} != sequential ${o.kappa}") else Nil) ++
            (if (g.cF1 != o.cF1) Seq(s"grid C-F1 ${g.cF1} != sequential ${o.cF1}") else Nil) ++
            (if (g.numModels != o.numModels) Seq(s"grid ${g.numModels} models != sequential ${o.numModels}") else Nil)
      }
      rep.op(s"cell $c", problems)
    }
    val ok = refs.collect { case Success(r) => r }
    rep.info("digest") = ok.map(r => r.spec.toString -> digest(r)).toMap
    rep.info("grid_runtime_ms") = outcomes.getOrElse(Seq.empty)
      .map(o => s"${o.dataset}/${o.system}/${o.seed}" -> o.runtimeMs).toMap
    val got = outcomes.getOrElse(Seq.empty)
    quality(rep, got.map(_.kappa), got.map(_.cF1), ok.map(stateKb))
    rep.metric("obs_per_s", got.map(o => streams((o.dataset, o.seed)).length.toLong).sum / wall, "obs/s")
    latency(rep, Seq("tasks" -> taskNs))

    if (ctx.traced) {
      // The traced grid runs between two untraced ones.
      val tracer = ctx.tracer
      var root = -1
      var tasks = List.empty[SparkListenerTaskEnd]
      var tracedWall = 0.0
      def grid(): (Try[Seq[RunOutcome]], Double) = { val (o, w, _) = timedGrid(); (o, w) }
      val (before, traced, after) = ctx.bracket(grid(), {
        root = tracer.begin("grid.run", -1)
        val r = try grid() finally tracer.end(root)
        tasks = listener.synchronized(listener.tasks.toList)
        tracedWall = r._2
        r
      })
      def behaviour(o: Try[Seq[RunOutcome]]) =
        o.map(_.map(x => (x.dataset, x.system, x.seed, x.kappa, x.cF1, x.numModels)).sortBy(_.toString))
      for ((o, what) <- Seq(before -> "untraced before", traced -> "traced", after -> "untraced after"))
        rep.op(s"$what repetition", o match {
          case Failure(e) => Seq(s"grid threw $e")
          case _ if behaviour(o) != behaviour(outcomes) => Seq("outcomes differ from the timed grid")
          case _ => Nil
        })
      val clockOffset = System.nanoTime() - System.currentTimeMillis() * 1000000L
      tasks.foreach { t =>
        tracer.record("grid.task", t.taskInfo.index, t.taskInfo.launchTime * 1000000L + clockOffset,
          t.taskInfo.finishTime * 1000000L + clockOffset, root)
      }
      val slots = ctx.cores
      val runS = tasks.map(_.taskMetrics.executorRunTime / 1e3)
      rep.metric("grid.tasks", tasks.length, "count")
      rep.metric("grid.cell_s_sum", runS.sum, "s")
      rep.metric("grid.cell_s_max", if (runS.isEmpty) 0.0 else runS.max, "s")
      rep.metric("grid.parallel_eff", runS.sum / (tracedWall * slots), "1")
      rep.metric("grid.task_wait_ms", tasks.map(t =>
        (t.taskInfo.launchTime - listener.stageSubmitted.getOrElse(t.stageId, t.taskInfo.launchTime)).toDouble).sum, "ms")
      rep.metric("grid.task_deser_ms", tasks.map(_.taskMetrics.executorDeserializeTime.toDouble).sum, "ms")
      rep.metric("grid.result_kb", tasks.map(_.taskMetrics.resultSize / 1024.0).sum, "KB")
      refTracers.foreach(t => tracer.merge(t, -1))
      stepLayers(rep, ok, tracer)
      evalLayers(rep, ok)
      val firstSeed = cells.head.seed
      Layers.replay(rep, tracer, ok.filter(_.spec.seed == firstSeed).map(_.stream).distinct,
        fpTargets(ok.filter(_.spec.seed == firstSeed)), firstSeed)
    }
  }
}
