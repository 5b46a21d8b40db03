package repro.core.discovery

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** The inverted pattern index of §4.3 + the substring pruning of §4.4,
  * checked on Example 8's Table 6 (and a DuckDB cross-check of the
  * aggregation).
  */
class PatternIndexSpec extends SparkSpec {

  // Table 6 of the paper, verbatim.
  private lazy val table6 = {
    import spark.implicits._
    Seq(
      ("Tayseer Fahmi", "Egypt", "F"), ("Tayseer Qasem", "Yemen", "M"),
      ("Tayseer Salem", "Egypt", "F"), ("Tayseer Saeed", "Yemen", "M"),
      ("Noor Wagdi", "Egypt", "M"), ("Noor Shadi", "Yemen", "F"),
      ("Noor Hisham", "Egypt", "M"), ("Noor Hashim", "Yemen", "F"),
      ("Esmat Qadhi", "Yemen", "M"), ("Esmat Farahat", "Egypt", "F"))
      .toDF("name", "country", "gender")
  }

  private lazy val profiles = Profiler.profile(repro.core.PFDCheck.withTid(table6))
  private lazy val index = PatternIndex.build(table6, profiles).cache()
  private lazy val stats = PatternIndex.prunedStats(index, Params().maxPatternsPerAttr).cache()

  override def afterAll(): Unit = {
    index.unpersist(); stats.unpersist()
    super.afterAll()
  }

  test("name is tokenized; country and gender use n-grams (Example 8)") {
    val m = profiles.map(p => p.name -> p.useTokenize).toMap
    assert(m("name"))
    assert(!m("country") && !m("gender"))
  }
  test("('Tayseer', 0) indexes tuples r1–r4") {
    val tids = index.filter(col("attr") === "name" && col("token") === "Tayseer" && col("pos") === 0)
      .select("tid").collect().map(_.getLong(0)).toSet
    assert(tids == Set(0L, 1L, 2L, 3L))
  }
  test("('Fahmi', 1) indexes only r1") {
    val tids = index.filter(col("attr") === "name" && col("token") === "Fahmi")
      .select("tid", "pos").collect()
    assert(tids.map(_.getLong(0)).toSet == Set(0L))
    assert(tids.head.getInt(1) == 1)
  }
  test("substring pruning keeps 'Egypt' over 'Egy' (same tuple set)") {
    val countryTokens = stats.filter(col("attr") === "country")
      .select("token").collect().map(_.getString(0)).toSet
    assert(countryTokens.contains("Egypt"))
    assert(!countryTokens.contains("Egy"))
    assert(!countryTokens.contains("gyp"))
  }
  test("H[country] reduces to exactly the two full values (Example 8)") {
    val rows = stats.filter(col("attr") === "country").collect()
    assert(rows.map(_.getString(1)).toSet == Set("Egypt", "Yemen"))
    assert(rows.forall(_.getLong(3) == 5L))
  }
  test("H[gender] has the entries M and F with counts 5/5") {
    val rows = stats.filter(col("attr") === "gender")
      .select("token", "cnt").collect().map(r => (r.getString(0), r.getLong(1))).toMap
    assert(rows == Map("M" -> 5L, "F" -> 5L))
  }
  test("tokenized columns index the full value at the sentinel position") {
    val full = index.filter(col("attr") === "name" && col("pos") === PatternIndex.FullValuePos)
    assert(full.count() == 10)
  }
  test("every row at the full-value position is flagged full") {
    import spark.implicits._
    // a single-token value, whose token at pos 0 is the whole value too,
    // and a pure-symbol value, which has no token but a full-value row
    val names = Seq("John Smith", "Madonna", "--", "Ann Lee").toDF("name")
    val rows = PatternIndex.build(names, Seq(ColumnProfile("name", isQualitative = true,
                                                           useTokenize = true, nonNull = 4)))
      .filter(col("pos") === PatternIndex.FullValuePos).collect()
    assert(rows.map(_.getString(2)).toSet == Set("John Smith", "Madonna", "--", "Ann Lee"))
    assert(rows.forall(_.getBoolean(4)))
  }
  test("Oracle cross-check: token counts agree with SQL over an exploded view") {
    // Materialize the index and let DuckDB recount it — catches a broken
    // explode/groupBy pipeline rather than re-deriving tokenization.
    val tokCounts = index.filter(col("attr") === "name" && col("pos") >= 0)
      .groupBy(col("token")).agg(count(lit(1)).cast("long") as "cnt")
    repro.Oracle.assertEquivalent(
      tokCounts,
      "SELECT token, count(*)::VARCHAR AS cnt FROM idx WHERE attr = 'name' AND pos >= '0' GROUP BY token",
      "idx" -> index.withColumn("pos", col("pos").cast("string")).drop("full"))
  }
  test("prunedStats respects the per-attribute pattern cap") {
    val capped = PatternIndex.prunedStats(index, maxPatternsPerAttr = 2)
    val perAttr = capped.groupBy("attr").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(perAttr.values.forall(_ <= 2))
    // the patterns the cap dropped are counted, per attribute
    val dropped = PatternIndex.prune(PatternIndex.intern(index.collect()), 2)
      .capDropped.values.sum
    assert(dropped > 0)
    assert(dropped == PatternIndex.prunedStats(index, Int.MaxValue).count() - capped.count())
  }
  test("n-gram prefixes end on code points: x𝐀y yields x, x𝐀 and x𝐀y") {
    import spark.implicits._
    // U+1D400 is two UTF-16 chars; a prefix must never end between them
    val code = ColumnProfile("code", isQualitative = true, useTokenize = false, nonNull = 1)
    val tokens = PatternIndex.build(Seq("x𝐀y").toDF("code"), Seq(code)).collect().map(_.getString(2))
    assert(tokens.toSeq == Seq("x", "x𝐀", "x𝐀y"))
  }
  test("a value of letters outside the BMP is informative: 𝐀𝐁 yields its prefixes") {
    import spark.implicits._
    val code = ColumnProfile("code", isQualitative = true, useTokenize = false, nonNull = 1)
    val rows = PatternIndex.build(Seq("𝐀𝐁").toDF("code"), Seq(code)).collect()
    assert(rows.map(r => (r.getString(2), r.getInt(3))).toSeq == Seq(("𝐀", 0), ("𝐀𝐁", 0)))
  }

  private lazy val wholeValueTable = tableOf(wholeValueRows)

  private def tableOf(rows: Seq[(Option[String], Option[String], Option[Int])]) = {
    import spark.implicits._
    repro.core.PFDCheck.withTid(rows.toDF("tok", "ngram", "num"))
  }

  /** Whole values of every kind: tokenized ones with leading separators,
    * pure symbols and empty strings; n-gram ones longer than
    * `MaxPrefixLen`, outside the BMP and without a letter or digit; an
    * integer column; nulls, and a row of nulls only.
    */
  private lazy val wholeValueRows = {
    val long = "abcdefghijklmnopq" // 17 code points, more than MaxPrefixLen
    val supplementary = "𝐀𝐁𝐂𝐃𝐄𝐅𝐆𝐇𝐈𝐉𝐊𝐋𝐌x" // 14 code points in 27 chars
    assert(long.length > Tokenizer.MaxPrefixLen && supplementary.length > 2 * Tokenizer.MaxPrefixLen)
    Seq[(Option[String], Option[String], Option[Int])](
      (Some(" abc"), Some("%"), Some(1)),
      (Some("abc"), Some("--"), Some(22)),
      (Some("a-b c"), Some(""), Some(333)),
      (None, Some(long), Some(4444)),
      (Some(""), Some(supplementary), None),
      (Some("x𝐀y z"), None, Some(6)),
      (Some("--"), Some("x𝐀"), Some(-7)),
      (Some(" abc"), Some("abc"), Some(1)),
      (None, None, None))
  }

  test("each tuple's whole values read from the interned index equal its string casts") {
    val df = wholeValueTable
    val attrs = Seq("tok", "ngram", "num")
    val tokenized = Map("tok" -> true, "ngram" -> false, "num" -> false)
    val ix = Discovery.mineEntries(df).index
    val casts = df.select(attrs.map(col(_).cast("string")): _*).collect()
      .map(r => attrs.indices.map(j => Option(r.getString(j))))
    // one whole-value row per non-null value, so no tuple has two
    for ((a, j) <- attrs.zipWithIndex) {
      val tuples = for {
        i <- 0 until ix.size if ix.attrName(i) == a
        k <- ix.wholeRows(i, tokenized(a))
      } yield ix.tid(k)
      assert(tuples.size == tuples.distinct.size && tuples.size == casts.count(_(j).isDefined), a)
    }
    // the index holds the tuples with a non-null value, and theirs exactly
    val values = ix.wholeValues(attrs, tokenized)
    val fromIndex = (0 until ix.nTuples)
      .map(t => attrs.map(a => Some(values.ids(a)(t)).filter(_ >= 0).map(values.strings)))
    def counted(vs: Seq[Seq[Option[String]]]) = vs.groupMapReduce(identity)(_ => 1)(_ + _)
    assert(counted(fromIndex) == counted(casts.toSeq.filter(_.exists(_.isDefined))))
  }

  /** Each pattern of `ix` in id order: (attr, token, pos) with its rows'
    * (tuple number, `full`) in tuple order.
    */
  private def patterns(ix: PatternIndex.Interned) = (0 until ix.size).map { i =>
    (ix.attrName(i), ix.token(i), ix.pos(i)) ->
      (ix.start(i) until ix.start(i + 1)).map(k => (ix.tid(k), ix.full(k))).sortBy(_._1)
  }

  test("the index discovery builds on the driver equals the interned rows of build") {
    val tables = Seq("Table 6" -> table6, "T7" -> repro.data.DirtyData.table(spark, 7).df,
                     "whole values" -> wholeValueTable,
                     "whole values, a row of nulls first" -> tableOf(wholeValueRows.reverse))
    for ((name, df) <- tables) {
      val indexed = Discovery.mineEntries(df)
      val own = PatternIndex.intern(PatternIndex.build(df, indexed.profiles).collect())
      assert(indexed.index.size > 0 && patterns(indexed.index) == patterns(own), name)
      assert(indexed.index.nTuples == own.nTuples && indexed.rows == df.count(), name)
    }
    // the whole-value fixture's columns are profiled as its test reads them
    assert(Discovery.mineEntries(wholeValueTable).profiles.map(p => p.name -> p.useTokenize) ==
           Seq("tok" -> true, "ngram" -> false, "num" -> false))
  }
}
