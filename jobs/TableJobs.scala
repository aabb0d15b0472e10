package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.tables.Tables

/** Shared SparkSession builder for spark-submit entrypoints. */
private object JobSession {
  def create(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.ui.enabled", "false")
    .getOrCreate()
}

/** Prints Table II (dataset characteristics). */
object TableIIJob {
  def main(args: Array[String]): Unit = println(Tables.tableII())
}

/** Reproduces Table III (discrimination ability). */
object TableIIIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table3")
    try println(Tables.tableIII(spark).text) finally spark.stop()
  }
}

/** Reproduces Table IV (kappa / C-F1 of meta-information variants). */
object TableIVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table4")
    try println(Tables.tableIV(spark).text) finally spark.stop()
  }
}

/** Reproduces Table V (single meta-information functions, induced drift). */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table5")
    try println(Tables.tableV(spark).text) finally spark.stop()
  }
}

/** Reproduces Table VI (framework comparison). */
object TableVIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table6")
    try println(Tables.tableVI(spark).text) finally spark.stop()
  }
}
