package perfbench

import repro.classifier.{HoeffdingTree, HoeffdingTreeConfig}
import repro.core.{ConceptState, DynamicWeights, Fingerprinter, FingerprintSpec, Labeled, Normalizer, Similarity}
import repro.detector.{Adwin, Eddm}
import repro.meta.MetaFunctions
import repro.stream.GeneratedStream

/** Per-call replays of single layers on the workload's own data, run in the
  * traced mode only. Each measurement is the median of a few repetitions,
  * and each repetition is one span.
  */
object Layers {

  /** One FiCSUM-family fingerprint layout as a workload uses it: the
    * stream it reads, its spec and the repository size it reached.
    */
  final case class FpTarget(stream: GeneratedStream, spec: FingerprintSpec, repoSize: Int)

  private val W = 50
  private val Reps = 5
  @volatile private var sink = 0.0

  private def offsets(n: Int, count: Int): Seq[Int] =
    if (n < W) Seq.empty else (0 until count).map(i => ((n - W).toLong * i / math.max(count - 1, 1)).toInt).distinct

  /** Median over repetitions of (elapsed ns / calls), in µs. */
  private def perCallUs(tracer: Tracer, span: String, calls: Int)(body: => Unit): Double =
    Stats.median((1 to Reps).map { _ =>
      val id = tracer.begin(span, -1)
      val t0 = System.nanoTime()
      body
      val dt = System.nanoTime() - t0
      tracer.end(id)
      dt / 1e3 / calls
    })

  def meta(rep: Report, tracer: Tracer, streams: Seq[GeneratedStream]): Unit = {
    val seqs: IndexedSeq[Array[Double]] = streams.toIndexedSeq.flatMap { s =>
      offsets(s.length, 30).flatMap { o =>
        val win = s.obs.slice(o, o + W)
        (0 until s.numFeatures).map(j => win.map(_.x(j)).toArray) :+ win.map(_.y.toDouble).toArray
      }
    }
    for (fn <- MetaFunctions.all) {
      val us = perCallUs(tracer, s"meta.${fn.name}", seqs.length) {
        var acc = 0.0; var k = 0
        while (k < seqs.length) { acc += fn(seqs(k)); k += 1 }
        sink = acc
      }
      rep.metric(s"meta.${fn.name}_us", us, "us")
    }
  }

  def core(rep: Report, tracer: Tracer, targets: Seq[FpTarget], seed: Long): Unit = {
    val per = targets.filter(_.stream.length >= 4 * W).map { t =>
      val s = t.stream
      val tree = new HoeffdingTree(s.numFeatures, s.numClasses, HoeffdingTreeConfig(gracePeriod = 100), seed)
      s.obs.take(s.length / 2).foreach(o => tree.train(o.x, o.y))
      val wins = offsets(s.length, 16).map(o => s.obs.slice(o, o + W).map(ob => Labeled(ob.x, ob.y, tree.predict(ob.x))))
      val fpUs = perCallUs(tracer, "core.fingerprint", wins.length) {
        wins.foreach(w => sink = Fingerprinter.make(t.spec, w, Some(tree))(0))
      }
      val fps = wins.map(w => Fingerprinter.make(t.spec, w, Some(tree)))
      val r = math.max(1, t.repoSize)
      val norm = new Normalizer(t.spec.dim)
      fps.foreach(norm.update)
      val repo = (0 until r).map { c =>
        val cs = new ConceptState(c, t.spec.dim, tree)
        fps.indices.filter(_ % r == c).foreach(i => cs.stats.add(fps(i)))
        if (cs.stats.totalCount < 2) { cs.stats.add(fps(c % fps.length)); cs.stats.add(fps((c + 1) % fps.length)) }
        fps.indices.filter(_ % r != c % r).take(3).foreach(i => cs.scStats.add(fps(i)))
        cs
      }
      val wUs = perCallUs(tracer, "core.weights", 20) {
        var k = 0
        while (k < 20) { sink = DynamicWeights.compute(repo(0), repo, norm)(0); k += 1 }
      }
      val weights = DynamicWeights.compute(repo(0), repo, norm)
      val a = norm.scale(repo(0).stats.meanVector)
      val bs = fps.map(norm.scale)
      val calls = 200 * bs.length
      val simUs = perCallUs(tracer, "core.sim", calls) {
        var acc = 0.0; var k = 0
        while (k < 200) { bs.foreach(b => acc += Similarity.sim(a, b, weights)); k += 1 }
        sink = acc
      }
      (fpUs, wUs, simUs)
    }
    rep.metric("core.fingerprint_us", Stats.mean(per.map(_._1)), "us")
    rep.metric("core.weights_us", Stats.mean(per.map(_._2)), "us")
    rep.metric("core.sim_us", Stats.mean(per.map(_._3)), "us")
  }

  def classifierAndDetector(rep: Report, tracer: Tracer, streams: Seq[GeneratedStream], seed: Long): Unit = {
    val halves = streams.map(s => (s, s.obs.take(s.length / 2), s.obs.drop(s.length / 2)))
    val nTrain = halves.map(_._2.length).sum
    val nTest = halves.map(_._3.length).sum
    var trees: Seq[HoeffdingTree] = Seq.empty
    val trainUs = perCallUs(tracer, "classifier.train", nTrain) {
      trees = halves.map { case (s, train, _) =>
        val t = new HoeffdingTree(s.numFeatures, s.numClasses, HoeffdingTreeConfig(), seed)
        train.foreach(o => t.train(o.x, o.y))
        t
      }
    }
    val errs = halves.zip(trees).map { case ((_, _, test), t) =>
      test.map(o => if (t.predict(o.x) != o.y) 1.0 else 0.0).toArray
    }
    val predictUs = perCallUs(tracer, "classifier.predict", nTest) {
      var acc = 0
      halves.zip(trees).foreach { case ((_, _, test), t) => test.foreach(o => acc += t.predict(o.x)) }
      sink = acc
    }
    val attribUs = perCallUs(tracer, "classifier.attrib", nTest) {
      var acc = 0.0
      halves.zip(trees).foreach { case ((_, _, test), t) => test.foreach(o => acc += t.featureContributions(o.x)(0)) }
      sink = acc
    }
    val nErr = errs.map(_.length).sum
    val adwinUs = perCallUs(tracer, "detector.adwin", nErr) {
      errs.foreach { e => val d = new Adwin(0.002); e.foreach(v => if (d.add(v)) sink += 1) }
    }
    val eddmUs = perCallUs(tracer, "detector.eddm", nErr) {
      errs.foreach { e => val d = new Eddm(); e.foreach(v => if (d.add(v)) sink += 1) }
    }
    rep.metric("classifier.train_us", trainUs, "us")
    rep.metric("classifier.predict_us", predictUs, "us")
    rep.metric("classifier.attrib_us", attribUs, "us")
    rep.metric("detector.adwin_add_us", adwinUs, "us")
    rep.metric("detector.eddm_add_us", eddmUs, "us")
  }

  /** All replays for one workload. */
  def replay(rep: Report, tracer: Tracer, streams: Seq[GeneratedStream], targets: Seq[FpTarget], seed: Long): Unit = {
    meta(rep, tracer, streams)
    core(rep, tracer, targets, seed)
    classifierAndDetector(rep, tracer, streams, seed)
  }
}
