package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType

/** Per-column profile driving discovery (§4.3 lines 1–3).
  *
  * @param isQualitative  false ⇒ the column is quantitative (a measurement /
  *                       count) and is dropped from discovery: PFDs are
  *                       defined on qualitative values only (§2.1 remark).
  *                       All-digit *code* columns (zip, phone — few distinct
  *                       value lengths) are kept per the §5.4 heuristic.
  * @param useTokenize    true ⇒ extract patterns with `Tokenizer.tokens`
  *                       (values carry separator signals, restriction (i));
  *                       false ⇒ `Tokenizer.prefixes`.
  */
final case class ColumnProfile(
    name: String,
    isQualitative: Boolean,
    useTokenize: Boolean,
    nonNull: Long)

object Profiler {

  /** The profiles of `df`'s columns, by [[profileWithCount]]. */
  def profile(df: DataFrame): Seq[ColumnProfile] = profileWithCount(df)._2

  /** The row count of `df` and the profiles of its columns: per column the
    * fraction of non-null values matching `rx` plus shape stats, computed
    * in one aggregate per table with no sketches. The distinct value
    * lengths of a column are counted exactly, as a bitmask with bit
    * `min(length, 63)` set per non-null value, so lengths of 63 or more
    * share one bit; the quantitative rule only asks whether more than 4
    * lengths occur.
    */
  def profileWithCount(df: DataFrame): (Long, Seq[ColumnProfile]) = {
    val cols = df.columns.filterNot(_ == repro.core.PFDCheck.TidCol).toSeq
    val aggs = (count(lit(1)) as "__rows") +: cols.flatMap { c =>
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

    row.getAs[Long]("__rows") -> cols.map { c =>
      val n = d(s"${c}__n").toLong
      val digits = d(s"${c}__digits")
      val isFloat = d(s"${c}__float")
      // a Long, not through `d`: a double keeps only 53 of the mask's 64 bits
      val nLens = Option(row.getAs[java.lang.Long](s"${c}__lens"))
        .fold(0)(m => java.lang.Long.bitCount(m))
      // Quantitative: decimal-valued, or all-digit with many distinct value
      // lengths (a count/measure). All-digit with few lengths is a code
      // (zip = 5 or 9 digits, phone = 10) and stays qualitative (§5.4).
      val quantitative = isFloat > 0.5 || (digits > 0.9 && nLens > 4)
      // Tokenize when separators are pervasive and values are multi-token.
      val tokenize = d(s"${c}__sep") > 0.5 && d(s"${c}__toks") >= 1.8
      ColumnProfile(c, isQualitative = !quantitative, useTokenize = tokenize, nonNull = n)
    }
  }
}
