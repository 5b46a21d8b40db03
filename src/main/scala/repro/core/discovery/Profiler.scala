package repro.core.discovery

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StringType
import repro.core.{CodePoints, PFDCheck}

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

  /** What the profile rules read of one column: its non-null count; the
    * shares of all rows (a null counting as 0) whose value is all-digit
    * (`^[0-9]+$`), decimal (`^-?[0-9]*\.[0-9]+$`) or holds a separator
    * (`[^A-Za-z0-9]`), as Java's `find` reads these regexes, so `$` also
    * matches before a final line terminator; the distinct value lengths
    * in code points as a bitmask with bit `min(length, 63)` set per
    * non-null value, so lengths of 63 or more share one bit; and the mean
    * count of the pieces of `split(value, "[^A-Za-z0-9]+")` over the
    * non-null values. A share or a mean over no value is 0.
    */
  private[discovery] final case class Shape(name: String, nonNull: Long, digits: Double,
                                            decimal: Double, lengths: Long, sep: Double,
                                            pieces: Double) {
    def profile: ColumnProfile = {
      // Quantitative: decimal-valued, or all-digit with many distinct value
      // lengths (a count/measure). All-digit with few lengths is a code
      // (zip = 5 or 9 digits, phone = 10) and stays qualitative (§5.4).
      val quantitative = decimal > 0.5 || (digits > 0.9 && java.lang.Long.bitCount(lengths) > 4)
      // Tokenize when separators are pervasive and values are multi-token.
      val tokenize = sep > 0.5 && pieces >= 1.8
      ColumnProfile(name, isQualitative = !quantitative, useTokenize = tokenize, nonNull = nonNull)
    }
  }

  /** The profiles of `df`'s columns, from one collect of [[asStrings]]. */
  def profile(df: DataFrame): Seq[ColumnProfile] = {
    val strings = asStrings(df)
    val names = strings.columns.toSeq
    profile(names, columns(strings.collect(), names.size))
  }

  /** The profiles of the columns `names`, whose values are `columns`. */
  def profile(names: Seq[String], columns: Seq[Array[String]]): Seq[ColumnProfile] =
    names.lazyZip(columns).map(shape(_, _).profile)

  /** `df`'s columns but `__tid`, each cast to string: what discovery collects. */
  private[discovery] def asStrings(df: DataFrame): DataFrame =
    df.select(df.columns.filterNot(_ == PFDCheck.TidCol).toSeq.map(c => col(c).cast(StringType) as c): _*)

  /** Collected rows of [[asStrings]] as one array per column: row t's value
    * of column j is `columns(rows, width)(j)(t)`.
    */
  private[discovery] def columns(rows: Array[Row], width: Int): IndexedSeq[Array[String]] =
    (0 until width).map(j => rows.map(_.getString(j)))

  private def isDigit(c: Char): Boolean = c >= '0' && c <= '9'
  private def isAsciiAlnum(c: Char): Boolean =
    isDigit(c) || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')

  /** Length of the line terminator that ends `s`, before which Java's `$`
    * matches too: `\r\n`, or one of `\n`, `\r`, U+0085, U+2028, U+2029.
    */
  private def terminator(s: String): Int =
    if (s.endsWith("\r\n")) 2
    else if (s.nonEmpty && "\n\r\u0085\u2028\u2029".indexOf(s.last) >= 0) 1
    else 0

  /** The [[Shape]] of the column `name` whose values are `values`, in one
    * pass over each value.
    */
  private[discovery] def shape(name: String, values: Array[String]): Shape = {
    var nonNull, digits, decimal, sep, pieces, lengths = 0L
    for (s <- values if s != null) {
      nonNull += 1
      val body = s.length - terminator(s)
      var i = 0
      while (i < body && isDigit(s.charAt(i))) i += 1
      if (body > 0 && i == body) digits += 1
      i = if (body > 0 && s.charAt(0) == '-') 1 else 0
      while (i < body && isDigit(s.charAt(i))) i += 1
      if (i < body - 1 && s.charAt(i) == '.') {
        i += 1
        while (i < body && isDigit(s.charAt(i))) i += 1
        if (i == body) decimal += 1
      }
      lengths |= 1L << math.min(CodePoints.length(s), 63)
      var runs = 0
      var inRun = false
      i = 0
      while (i < s.length) {
        val isSep = !isAsciiAlnum(s.charAt(i))
        if (isSep && !inRun) runs += 1
        inRun = isSep
        i += 1
      }
      if (runs > 0) sep += 1
      pieces += runs + 1
    }
    def share(k: Long, of: Long): Double = if (of == 0) 0.0 else k.toDouble / of
    val n = values.length.toLong
    Shape(name, nonNull, share(digits, n), share(decimal, n), lengths, share(sep, n),
          share(pieces, nonNull))
  }
}
