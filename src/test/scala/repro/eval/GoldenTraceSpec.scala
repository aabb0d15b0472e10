package repro.eval

import scala.collection.mutable
import scala.io.Source
import scala.util.hashing.MurmurHash3
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{Arf, Htcd, Rcd}
import repro.core.FiCSUM
import repro.stream.Datasets

/** Pins the observable behaviour of every framework: for each (dataset,
  * system) cell at seed 1, a hash of the per-step (prediction, model id)
  * sequence, the final drift count and repository size where the system
  * has them, the model count, and κ / C-F1 / discrimination.
  *
  * The expected values live in `src/test/resources/golden-trace.tsv`. A
  * change that is meant to alter behaviour regenerates that file (the
  * failure message prints the actual rows) and says so in CHANGES.md.
  */
class GoldenTraceSpec extends AnyFunSuite {
  import GoldenTraceSpec._

  test("every framework reproduces the golden trace on STAGGER and RBF at seed 1") {
    val actual = for {
      ds <- Seq(Datasets.stagger, Datasets.rbf)
      sys <- SystemNames
    } yield traceRow(ds, sys)
    val expected = loadExpected()
    val report = (Header +: actual.map(_.render)).mkString("\n")
    assert(expected.nonEmpty, s"golden trace missing; actual rows:\n$report")
    assert(actual.map(_.key) == expected.map(_.key), s"cells differ; actual rows:\n$report")
    for ((a, e) <- actual.zip(expected)) {
      assert(a.hash == e.hash && a.drifts == e.drifts && a.repo == e.repo && a.models == e.models,
        s"${a.key}: $a != $e; actual rows:\n$report")
      for ((name, x, y) <- Seq(("kappa", a.kappa, e.kappa), ("cF1", a.cF1, e.cF1),
          ("discrimination", a.disc, e.disc)))
        assert(close(x, y), s"${a.key} $name: $x != $y; actual rows:\n$report")
    }
  }
}

object GoldenTraceSpec {

  val SystemNames: Seq[String] = Seq("HTCD", "RCD", "ER", "DWM", "ARF", "FiCSUM", "S-MI", "U-MI")
  val Header = "dataset\tsystem\thash\tdrifts\trepo\tmodels\tkappa\tcF1\tdiscrimination"

  final case class Row(dataset: String, system: String, hash: Int, drifts: Int, repo: Int,
                       models: Int, kappa: Double, cF1: Double, disc: Double) {
    def key: (String, String) = (dataset, system)
    def render: String =
      Seq(dataset, system, hash, drifts, repo, models, kappa, cF1, disc).mkString("\t")
  }

  /** Forwards `step` and `probe` to the wrapped system, recording each
    * step's (prediction, model id).
    */
  private final class Recording(val inner: StreamSystem) extends StreamSystem with Probeable {
    val name: String = inner.name
    val trace = mutable.ArrayBuffer.empty[Int]
    def step(x: Array[Double], y: Int): (Int, Int) = {
      val r = inner.step(x, y)
      trace += r._1
      trace += r._2
      r
    }
    def probe(): Option[ProbeResult] = inner match {
      case p: Probeable => p.probe()
      case _            => None
    }
  }

  /** -1 marks a counter the system does not have. */
  private def counters(s: StreamSystem): (Int, Int) = s match {
    case f: FiCSUM => (f.driftCount, f.repositorySize)
    case h: Htcd   => (h.driftCount, -1)
    case r: Rcd    => (r.driftCount, -1)
    case a: Arf    => (a.driftCount, -1)
    case _         => (-1, -1)
  }

  def traceRow(ds: Datasets.Spec, system: String): Row = {
    val stream = ds.build(1)
    val rec = new Recording(Systems.create(system, stream.numFeatures, stream.numClasses, 1))
    val out = Runner.run(rec, stream, 1)
    val (drifts, repo) = counters(rec.inner)
    Row(ds.name, system, MurmurHash3.orderedHash(rec.trace), drifts, repo, out.numModels,
      out.kappa, out.cF1, out.discrimination)
  }

  def loadExpected(): Seq[Row] = {
    val in = getClass.getResourceAsStream("/golden-trace.tsv")
    if (in == null) return Seq.empty
    val src = Source.fromInputStream(in, "UTF-8")
    try src.getLines().drop(1).filter(_.nonEmpty).map { line =>
      val f = line.split('\t')
      Row(f(0), f(1), f(2).toInt, f(3).toInt, f(4).toInt, f(5).toInt,
        f(6).toDouble, f(7).toDouble, f(8).toDouble)
    }.toSeq
    finally src.close()
  }

  def close(a: Double, b: Double): Boolean =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= 1e-12
}
