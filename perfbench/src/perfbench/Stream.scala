package perfbench

import scala.collection.mutable
import scala.util.Try

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress
import org.apache.spark.sql.{SQLContext, SparkSession}

import repro.core.{FiCSUM, FiCSUMConfig, FingerprintSpec}
import repro.eval.Metrics
import repro.sparkstream.{DriftEvent, ObsRow, StreamingDrift, WindowFingerprints}
import repro.stream.{Datasets, GeneratedStream}

/** `stream-state`: `StreamingDrift.detect` over a `MemoryStream`, one
  * STAGGER stream per key, driven closed-loop: the next micro-batch is added
  * only after `processAllAvailable()` returns.
  */
object StreamWorkload {

  final case class Loop(events: Seq[DriftEvent], batchNs: Array[Long], wall: Double,
                        progress: Seq[StreamingQueryProgress], error: Option[Throwable])

  def run(ctx: Ctx): Unit = {
    val rep = ctx.report
    val seed = ctx.opts.seed
    val keys = ctx.cores
    val (rowsPerKey, batches) = if (ctx.opts.smoke) (20, 3) else (StreamSizing.RowsPerKey, StreamSizing.Batches)
    val streams: IndexedSeq[GeneratedStream] = ctx.setup.median("build_streams", ctx.reps, "stream.build") {
      (0 until keys).map(k => CellOps.truncate(Datasets.stagger.build(seed * 100 + k), rowsPerKey * batches))
    }
    val rows = streams.zipWithIndex.map { case (s, k) => WindowFingerprints.toRows(s, streamId = k) }
    def batch(b: Int): Seq[ObsRow] = rows.flatMap(_.slice(b * rowsPerKey, (b + 1) * rowsPerKey))
    val d = streams.head.numFeatures
    val k = streams.head.numClasses
    val cfg = FiCSUMConfig()

    val spark = ctx.sparkSession(keys)
    var queries = 0
    def loop(input: Int => Seq[ObsRow], n: Int, tracer: Tracer): Loop = {
      import spark.implicits._
      implicit val sqlCtx: SQLContext = spark.sqlContext
      queries += 1
      val name = s"drift_out_$queries"
      val mem = MemoryStream[ObsRow]
      val query = StreamingDrift.detect(spark, mem.toDS(), d, k, cfg, seed)
        .writeStream.format("memory").queryName(name).outputMode("append")
        .option("checkpointLocation", s"${ctx.opts.work}/checkpoints/$name")
        .start()
      val ns = new Array[Long](n)
      var error: Option[Throwable] = None
      val t0 = System.nanoTime()
      try {
        var b = 0
        while (b < n) {
          val span = if (tracer != null) tracer.begin("sstream.batch", b) else -1
          val tb = System.nanoTime()
          mem.addData(input(b))
          query.processAllAvailable()
          ns(b) = System.nanoTime() - tb
          if (span >= 0) tracer.end(span)
          b += 1
        }
      } catch { case e: Throwable => error = Some(e) }
      val wall = (System.nanoTime() - t0) / 1e9
      val progress = query.recentProgress.toSeq.filter(_.numInputRows > 0)
      query.stop()
      val events = Try(spark.sql(s"select * from $name").as[DriftEvent].collect().toSeq).getOrElse(Seq.empty)
      Loop(events, ns, wall, progress, error)
    }

    ctx.setup.once("warmup") {
      val warmBatches = if (ctx.opts.smoke) 2 else 5
      val warmRows = (0 until keys).map(key =>
        WindowFingerprints.toRows(CellOps.truncate(Datasets.stagger.build(CellOps.WarmSeed - key), warmBatches * rowsPerKey), key))
      loop(b => warmRows.flatMap(_.slice(b * rowsPerKey, (b + 1) * rowsPerKey)), warmBatches, null)
    }

    val main = loop(batch, batches, null)

    // Reference: one sequential engine per key fed the same rows batch by
    // batch, outside the timed region, one thread per key.
    val engines = (0 until keys).map(_ => new FiCSUM("FiCSUM", d, k, FingerprintSpec.full(d), cfg, seed))
    val refTracers = (0 until keys).map(_ => if (ctx.traced) new Tracer else null)
    val timedEngines = (0 until keys).map(key => Timed.wrap(engines(key), rowsPerKey * batches, refTracers(key), key))
    val refStepNs = new Array[Long](keys)
    val expected: Map[(Int, Long), DriftEvent] = Par.map(0 until keys, keys) { key =>
      val t = timedEngines(key)
      val e = engines(key)
      (0 until batches).flatMap { b =>
        val t0 = System.nanoTime()
        val evs = rows(key).slice(b * rowsPerKey, (b + 1) * rowsPerKey).map { r =>
          val before = e.driftCount
          val (p, m) = t.step(r.features.toArray, r.y)
          (key, r.ts) -> DriftEvent(key, r.ts, p, m, e.driftCount > before)
        }
        refStepNs(key) += System.nanoTime() - t0
        evs
      }
    }.flatten.toMap

    // Exactly one event per input row: a missing, repeated or extra event
    // fails the run.
    val inputRows = keys * rowsPerKey * batches
    val got = main.events.groupBy(ev => (ev.streamId, ev.ts))
    val corruptAt = if (ctx.opts.corrupt) main.events.headOption.map(ev => (ev.streamId, ev.ts)) else None
    for (b <- 0 until batches) {
      val problems = mutable.ArrayBuffer.empty[String]
      if (b == 0) main.error.foreach(e => problems += s"query threw $e")
      if (b == 0 && main.events.length != inputRows) problems += s"${main.events.length} events for $inputRows input rows"
      for (key <- 0 until keys; r <- rows(key).slice(b * rowsPerKey, (b + 1) * rowsPerKey)) {
        val exp = expected((key, r.ts))
        got.getOrElse((key, r.ts), Seq.empty)
          .map(g => if (corruptAt.contains((key, r.ts))) g.copy(prediction = 1 - g.prediction) else g) match {
          case Seq()              => problems += s"no event for key $key ts ${r.ts}"
          case Seq(g) if g != exp => problems += s"event $g != sequential $exp"
          case Seq(_)             => ()
          case gs                 => problems += s"${gs.length} events for key $key ts ${r.ts}"
        }
      }
      rep.op(s"batch $b", problems.take(3).toSeq)
    }

    // κ and C-F1 per key, where the key's events line up with its rows
    // (otherwise the checks above have failed the run).
    val perKey = (0 until keys).map { key =>
      val evs = main.events.filter(_.streamId == key).sortBy(_.ts)
      val s = streams(key)
      if (evs.map(_.ts) != rows(key).map(_.ts)) (Double.NaN, Double.NaN)
      else (Metrics.kappa(evs.map(_.prediction).toIndexedSeq, s.obs.map(_.y), k),
        Metrics.cF1(evs.map(_.modelId).toIndexedSeq, s.conceptIds))
    }
    val blobs = engines.map(e => Ser.bytes(e))
    rep.info("digest") = (0 until keys).map { key =>
      val h = new Fnv
      main.events.filter(_.streamId == key).sortBy(_.ts).foreach(ev => { h.add(ev.prediction); h.add(ev.modelId) })
      s"key$key" -> Map("hash" -> h.hex, "drifts" -> main.events.count(ev => ev.streamId == key && ev.drift),
        "repo" -> engines(key).repositorySize, "models" -> main.events.filter(_.streamId == key).map(_.modelId).distinct.length)
    }.toMap
    rep.info("keys") = keys
    rep.info("rows_per_key_per_batch") = rowsPerKey
    rep.info("batches") = batches

    CellOps.quality(rep, perKey.map(_._1), perKey.map(_._2), blobs.map(_.length / 1024.0))
    rep.metric("obs_per_s", inputRows / main.wall, "obs/s")
    CellOps.latency(rep, Seq("batches" -> main.batchNs.clone()))

    if (ctx.traced) {
      // The traced query runs between two untraced ones over the same rows.
      // All three must emit the timed query's events.
      val tracer = ctx.tracer
      def timed(l: => Loop): (Loop, Double) = { val r = l; (r, r.wall) }
      val (before, traced, after) = ctx.bracket(timed(loop(batch, batches, null)), {
        val root = tracer.begin("sstream.query", -1)
        try timed(loop(batch, batches, tracer)) finally tracer.end(root)
      })
      for ((l, what) <- Seq(before -> "untraced before", traced -> "traced", after -> "untraced after"))
        rep.op(s"$what repetition", (l.error.map(e => s"query threw $e") ++
          (if (l.events.sortBy(ev => (ev.streamId, ev.ts)) == main.events.sortBy(ev => (ev.streamId, ev.ts))) None
           else Some("events differ from the timed query"))).toSeq)
      def perBatch(f: StreamingQueryProgress => Double): Double = Stats.mean(traced.progress.map(f))
      def dur(p: StreamingQueryProgress, key: String): Double =
        Option(p.durationMs.get(key)).map(_.doubleValue).getOrElse(0.0)
      rep.metric("sstream.add_batch_ms", perBatch(dur(_, "addBatch")), "ms")
      rep.metric("sstream.planning_ms", perBatch(dur(_, "queryPlanning")), "ms")
      rep.metric("sstream.wal_commit_ms", perBatch(dur(_, "walCommit")), "ms")
      rep.metric("sstream.commit_offsets_ms", perBatch(dur(_, "commitOffsets")), "ms")
      rep.metric("sstream.state_commit_ms", perBatch(_.stateOperators.map(_.commitTimeMs.toDouble).sum), "ms")
      rep.metric("sstream.state_update_ms", perBatch(_.stateOperators.map(_.allUpdatesTimeMs.toDouble).sum), "ms")
      rep.metric("sstream.engine_kb_per_key", Stats.mean(blobs.map(_.length / 1024.0)), "KB")
      val serMs = Stats.median((1 to 5).map { _ =>
        val t0 = System.nanoTime(); engines.foreach(e => Ser.bytes(e)); (System.nanoTime() - t0) / 1e6 / keys
      })
      val deserMs = Stats.median((1 to 5).map { _ =>
        val t0 = System.nanoTime(); blobs.foreach(b => Ser.read(b)); (System.nanoTime() - t0) / 1e6 / keys
      })
      rep.metric("sstream.engine_ser_ms", serMs, "ms")
      rep.metric("sstream.engine_deser_ms", deserMs, "ms")
      rep.metric("sstream.engine_step_ms", refStepNs.sum / 1e6 / (batches * keys), "ms")
      refTracers.foreach(t => tracer.merge(t, -1))
      val refRuns = timedEngines.zip(streams).map { case (t, s) =>
        CellRun(CellSpec("STAGGER", "FiCSUM", seed), s, null, t, 0L)
      }
      CellOps.stepLayers(rep, refRuns, tracer)
      CellOps.evalLayers(rep, Seq.empty)
      Layers.replay(rep, tracer, streams, CellOps.fpTargets(refRuns), seed)
    }
  }
}

/** Micro-batch shape of `stream-state`. */
object StreamSizing {
  val RowsPerKey = 50
  val Batches = 40
}
