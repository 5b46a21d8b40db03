package repro.core.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType
import repro.core.PFDCheck

/** The hash-based inverted list of §4.3 (lines 5–12), as a DataFrame:
  * one row per (tid, attr, token, pos) with `pos` a token index (tokenized
  * columns, full value added as pos = -1) or a character offset (n-gram
  * columns). `prunedStats` applies the substring-pruning optimization of
  * §4.4: among patterns of one attribute appearing in exactly the same set
  * of tuples, only the most specific (longest) survives — 'Egypt' is kept
  * over 'Egy' in Example 8.
  */
object PatternIndex {

  /** Full-value sentinel position for tokenized columns. */
  val FullValuePos: Int = -1

  /** Build the inverted index for the qualitative columns of `profiles`. */
  def build(df0: DataFrame, profiles: Seq[ColumnProfile]): DataFrame = {
    val spark: SparkSession = df0.sparkSession
    import spark.implicits._
    val df = PFDCheck.withTid(df0)
    val useful = profiles.filter(_.isQualitative)
    require(useful.nonEmpty, "no qualitative columns to index")

    // Pure-symbol substrings (a lone space or dash) carry no semantics —
    // tokenization already discards them as separators, and keeping them as
    // n-grams lets junk like "city has a space at offset 3" pass f.
    def informative(t: String): Boolean = t.exists(_.isLetterOrDigit)

    val parts = useful.map { p =>
      val extractor =
        if (p.useTokenize)
          udf { (s: String) =>
            if (s == null) Seq.empty[(String, Int, Boolean)]
            else Tokenizer.tokens(s).filter(t => informative(t.token))
              .map(t => (t.token, t.pos, t.pos == 0 && t.atEnd)) :+ ((s, FullValuePos, true))
          }
        else
          // Prefix n-grams only: every pattern the paper mines or lists
          // (Table 3) anchors at offset 0 — `850\D{7}`, `6060\D` — while
          // mid-string offsets mostly surface positional coincidences
          // ("an" at offset 3 of both Atlanta and Savannah). Prefix-only
          // also bounds C2 linearly instead of quadratically.
          udf { (s: String) =>
            if (s == null) Seq.empty[(String, Int, Boolean)]
            else Tokenizer.prefixes(s).filter(t => informative(t.token))
              .map(t => (t.token, t.pos, t.atEnd))
          }
      df.select(
          col(PFDCheck.TidCol) as "tid",
          lit(p.name) as "attr",
          explode(extractor(col(p.name).cast(StringType))) as "tp")
        .select($"tid", $"attr", $"tp._1" as "token", $"tp._2" as "pos", $"tp._3" as "full")
    }
    parts.reduce(_ unionByName _)
  }

  /** Per-pattern statistics after substring pruning and the pattern cap.
    *
    * Output columns: attr, token, pos, cnt, isFull. When `index` carries a
    * `slice` column (level-2 conditioning slices), statistics, pruning and
    * the cap of `maxPatternsPerAttr` are per (slice, attr) and `slice` leads
    * the output, so each slice reads as if indexed alone. The tid-set
    * signature used for pruning is (count, sum(tid), sum(hash(tid))) —
    * identical signatures are taken as identical tid sets (a 32-bit murmur
    * collision on top of equal counts and tid sums is negligible and at
    * worst drops one pattern).
    */
  def prunedStats(index: DataFrame, maxPatternsPerAttr: Int = 5000): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val keys = index.columns.filter(_ == "slice").toSeq :+ "attr"
    val stats = index
      .groupBy((keys ++ Seq("token", "pos")).map(col): _*)
      .agg(
        count(lit(1)) as "cnt",
        sum("tid") as "sigSum",
        sum(hash(col("tid")).cast("long")) as "sigHash",
        // a pattern "is the full value" only if it is on every occurrence
        (min(when(col("full"), 1).otherwise(0)) === 1) as "isFull")
    val bySig = Window.partitionBy((keys ++ Seq("cnt", "sigSum", "sigHash")).map(col): _*)
      .orderBy(length(col("token")).desc, col("pos").asc, col("token").asc)
    val byCnt = Window.partitionBy(keys.map(col): _*)
      .orderBy(col("cnt").desc, length(col("token")).desc, col("token").asc, col("pos").asc)
    stats
      .withColumn("__r", row_number().over(bySig))
      .filter(col("__r") === 1)
      .withColumn("__r2", row_number().over(byCnt))
      .filter(col("__r2") <= maxPatternsPerAttr)
      .select((keys ++ Seq("token", "pos", "cnt", "isFull")).map(col): _*)
  }
}
