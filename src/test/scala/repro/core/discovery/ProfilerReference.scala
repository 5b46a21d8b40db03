package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType
import repro.core.PFDCheck

/** The profile's statistics as one Spark aggregate over all columns, the
  * formulation [[Profiler]] replaced with one pass over the collected
  * values: per column the non-null count, averages of `rlike` flags, the
  * distinct value lengths as a `bit_or` bitmask, and the mean `size` of a
  * `split`, which Spark 4's ANSI mode takes over the non-null values only.
  */
object ProfilerReference {

  def shapes(df: DataFrame): Seq[Profiler.Shape] = {
    val cols = df.columns.filterNot(_ == PFDCheck.TidCol).toSeq
    val aggs = cols.flatMap { c =>
      val s = col(c).cast(StringType)
      val lengthBit = call_function("shiftleft", lit(1L), least(length(s), lit(63)))
      Seq(
        count(s) as s"${c}__n",
        avg(when(s.rlike("^[0-9]+$"), 1.0).otherwise(0.0)) as s"${c}__digits",
        avg(when(s.rlike("^-?[0-9]*\\.[0-9]+$"), 1.0).otherwise(0.0)) as s"${c}__float",
        bit_or(when(s.isNotNull, lengthBit)) as s"${c}__lens",
        avg(when(s.rlike("[^A-Za-z0-9]"), 1.0).otherwise(0.0)) as s"${c}__sep",
        avg(size(split(s, "[^A-Za-z0-9]+"))) as s"${c}__toks",
      )
    }
    val row = df.agg(aggs.head, aggs.tail: _*).head()
    def d(name: String): Double = Option(row.getAs[Any](name)).map {
      case x: java.lang.Number => x.doubleValue
    }.getOrElse(0.0)
    cols.map { c =>
      // a Long, not through `d`: a double keeps only 53 of the mask's 64 bits
      val lengths = Option(row.getAs[java.lang.Long](s"${c}__lens")).fold(0L)(_.longValue)
      Profiler.Shape(c, d(s"${c}__n").toLong, d(s"${c}__digits"), d(s"${c}__float"), lengths,
                     d(s"${c}__sep"), d(s"${c}__toks"))
    }
  }
}
