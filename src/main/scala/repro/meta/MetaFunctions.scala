package repro.meta

/** A named meta-information function: univariate sequence → single value
  * (paper Definition 1/2; Table I). The 13th Table I function, the Shapley
  * value, is not a sequence function — it is computed from the classifier
  * per input feature and appended to the fingerprint by
  * [[repro.core.Fingerprinter]].
  */
final case class MetaFunction(name: String, f: Array[Double] => Double) extends Serializable {
  def apply(xs: Array[Double]): Double = f(xs)
}

object MetaFunctions {

  val Mean: MetaFunction      = MetaFunction("mean", SeqStats.mean)
  val StdDev: MetaFunction    = MetaFunction("stdev", SeqStats.stdDev)
  val Skew: MetaFunction      = MetaFunction("skew", SeqStats.skewness)
  val Kurtosis: MetaFunction  = MetaFunction("kurtosis", SeqStats.kurtosis)
  val Acf1: MetaFunction      = MetaFunction("acf1", SeqStats.acf(_, 1))
  val Acf2: MetaFunction      = MetaFunction("acf2", SeqStats.acf(_, 2))
  val Pacf1: MetaFunction     = MetaFunction("pacf1", SeqStats.pacf(_, 1))
  val Pacf2: MetaFunction     = MetaFunction("pacf2", SeqStats.pacf(_, 2))
  val MutualInfo: MetaFunction = MetaFunction("mi", SeqStats.lagMutualInformation)
  val TurningPoint: MetaFunction = MetaFunction("turning", SeqStats.turningPointRate)
  val ImfEntropy1: MetaFunction = MetaFunction("imf1", Emd.imfEntropy(_, 1))
  val ImfEntropy2: MetaFunction = MetaFunction("imf2", Emd.imfEntropy(_, 2))

  /** The 12 sequence functions applied to every behaviour source. */
  val all: IndexedSeq[MetaFunction] = IndexedSeq(
    Mean, StdDev, Skew, Kurtosis, Acf1, Acf2, Pacf1, Pacf2,
    MutualInfo, TurningPoint, ImfEntropy1, ImfEntropy2)

  /** Table V row groups: the paired functions the paper reports together. */
  val tableVGroups: IndexedSeq[(String, IndexedSeq[MetaFunction])] = IndexedSeq(
    "Mean"                    -> IndexedSeq(Mean),
    "Standard Deviation"      -> IndexedSeq(StdDev),
    "Skew"                    -> IndexedSeq(Skew),
    "Kurtosis"                -> IndexedSeq(Kurtosis),
    "Autocorrelation"         -> IndexedSeq(Acf1, Acf2),
    "Partial Autocorrelation" -> IndexedSeq(Pacf1, Pacf2),
    "Mutual Information"      -> IndexedSeq(MutualInfo),
    "Turning point rate"      -> IndexedSeq(TurningPoint),
    "Entropy of IMFs"         -> IndexedSeq(ImfEntropy1, ImfEntropy2),
  )
}
