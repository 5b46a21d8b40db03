package repro.core.discovery

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.PFDCheck
import repro.data.DirtyData

/** Level 2's conditioning values come from the interned index's whole-value
  * rows ([[Discovery.topValues]]); they are checked against the query over
  * the table that supplied them before, and the n-gram columns' values with
  * no letter or digit, indexed at `SymbolValuePos`, are checked never to be
  * mined.
  */
class TopValuesSpec extends SparkSpec {

  import spark.implicits._
  import TopValuesSpec._

  private def profile(name: String, tokenize: Boolean) =
    ColumnProfile(name, isQualitative = true, useTokenize = tokenize, nonNull = 0)

  /** The index-derived top values of `df`'s columns `profiles`, each value
    * with the raw `__tid`s of its tuples, and the reference query's.
    */
  private def bothTopValues(df0: DataFrame, profiles: Seq[ColumnProfile], params: Params)
      : (Map[String, Seq[(String, Set[Long])]], Map[String, Seq[(String, Set[Long])]]) = {
    val df = PFDCheck.withTid(df0)
    val rows = PatternIndex.build(df, profiles).collect()
    val rawTid = tupleTids(rows)
    val ix = PatternIndex.intern(rows)
    val fromIndex = Discovery.topValues(ix, profiles.map(p => p.name -> p.useTokenize).toMap, params)
      .map { case (a, vs) => a -> vs.map { case (v, ts) => v -> ts.map(rawTid).toSet } }
    val reference = referenceTopValues(df, profiles.map(_.name), params)
      .map { case (a, vs) => a -> vs.map { case (v, ts) => v -> ts.toSet } }
    (fromIndex, reference)
  }

  test("top values from the interned index equal the query over the table") {
    // each column's values, shuffled apart so that no two columns share
    // tuple sets; K = 3 and 6 values per attribute
    def column[T](counts: (T, Int)*): Seq[T] =
      new scala.util.Random(counts.size).shuffle(counts.flatMap { case (v, c) => Seq.fill(c)(v) })
    val fullwidthA = "Ａx" // U+FF21: after U+1D400's high surrogate in UTF-16, before it by code point
    val mathA = "𝐀x" // U+1D400
    val long = Seq("ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOQ") // the same 12-character prefix
    val code = column[String]("%" -> 6, "--" -> 5, "" -> 5, long(0) -> 4, long(1) -> 3,
                              fullwidthA -> 3, mathA -> 3, "zz" -> 2, (null: String) -> 9)
    val name = column[String]("Madonna" -> 5, "" -> 4, "John Smith" -> 4, "--" -> 3,
                              "Zoë" -> 3, "Éva" -> 3, "Ann Lee" -> 2, (null: String) -> 16)
    val country = column[Int](967 -> 20, 20 -> 15, 44 -> 3, 1 -> 2)
    val df = code.indices.map(i => (code(i), name(i), country(i), 1000L * i + 7))
      .toDF("code", "name", "country", PFDCheck.TidCol)
    val params = Params(minSupport = 3, maxConditionValues = 6)
    val profiles = Seq(profile("code", tokenize = false), profile("name", tokenize = true),
                       profile("country", tokenize = false))
    val (fromIndex, reference) = bothTopValues(df, profiles, params)

    // the fixture exercises what it is meant to: symbol and empty values in
    // both kinds of column, the cap cutting an equal-count tie at the
    // supplementary code point, values at K but not at K − 1
    assert(reference("code").map(_._1) == Seq("%", "", "--", long(0), long(1), fullwidthA))
    assert(reference("name").map(_._1) == Seq("Madonna", "", "John Smith", "--", "Zoë", "Éva"))
    assert(reference("country").map(_._1) == Seq("967", "20", "44"))
    assert(fromIndex == reference)
  }

  test("values with no letter or digit are indexed whole at SymbolValuePos and never mined") {
    // unit → kind holds for every unit; '%' and '' would be mined into
    // entries ('%' → ratio) if their sentinel patterns took part
    val units = Seq(("%", "ratio"), ("", "none"), ("mg", "mass"), ("mg.kg-1", "dose"),
                    ("nM", "conc"), ("uM", "conc"), ("hr", "time"))
    val df = (0 until 70).map { i =>
      val (u, k) = units(i % units.size)
      (u, k, s"site ${i % 4}")
    }.toDF("unit", "kind", "site")
    val profiles = Seq(profile("unit", tokenize = false), profile("kind", tokenize = false),
                       profile("site", tokenize = true))
    val rows = PatternIndex.build(df, profiles).collect()
    val ix = PatternIndex.intern(rows)
    val plain = PatternIndex.intern(rows.filter(_.getInt(3) != PatternIndex.SymbolValuePos))
    val symbols = (0 until ix.size).filter(ix.pos(_) == PatternIndex.SymbolValuePos)
    assert(symbols.map(i => (ix.attrName(i), ix.token(i))).toSet == Set(("unit", "%"), ("unit", "")))
    assert(symbols.forall(i => (ix.start(i) until ix.start(i + 1)).forall(ix.full)))

    // unit has 5 patterns besides '%' and '', site 5 and kind 6: the cap
    // binds on kind only
    val cap = 5
    val pruned = PatternIndex.prune(ix, cap)
    assert(pruned.kept.forall(ix.pos(_) != PatternIndex.SymbolValuePos))
    assert(pruned.capDropped == Map("kind" -> 1))
    assert(pruned.capDropped == PatternIndex.prune(plain, cap).capDropped)

    val params = Params(maxPatternsPerAttr = cap)
    def mined(ix: PatternIndex.Interned) =
      Discovery.mine(ix, params, Discovery.trivialPatterns(ix, params, df.count()))._1.toSet
    assert(mined(ix).exists(e => e.attrA == "unit" && e.tokA == "nM" && e.tokB == "conc"))
    assert(mined(ix) == mined(plain))
  }

  // Opt-in (PAPER_SIZE_CHECKS=1): T1–T15 at paper size, about a minute.
  if (sys.env.get("PAPER_SIZE_CHECKS").contains("1"))
    test("paper size: top values from the interned index equal the query on T1–T15") {
      val params = Params()
      for (id <- 1 to 15) {
        val df = PFDCheck.withTid(DirtyData.table(spark, id).df).cache()
        try {
          val (fromIndex, reference) =
            bothTopValues(df, Profiler.profile(df).filter(_.isQualitative), params)
          assert(fromIndex == reference, s"T$id")
          if (id == 8) assert(reference("standard_units").exists(_._1 == "%"))
        } finally df.unpersist()
      }
    }
}

object TopValuesSpec {

  /** Raw `__tid` of each tuple number of `intern(rows)`: dense, in the order
    * in which the rows first name each `__tid`.
    */
  def tupleTids(rows: Array[Row]): Array[Long] = rows.map(_.getLong(0)).distinct

  /** The query that supplied level 2's conditioning values before they came
    * from the interned index: the `maxConditionValues` most frequent values
    * (count ≥ K) of each of `attrs`, by count desc, then value, each with
    * the raw `__tid`s of its rows.
    */
  def referenceTopValues(df: DataFrame, attrs: Seq[String],
                         params: Params): Map[String, Seq[(String, Seq[Long])]] = {
    val byCount = Window.partitionBy("attr").orderBy(col("count").desc, col("v").asc)
    df.select(explode(array(attrs.map(a =>
        struct(lit(a) as "attr", col(a).cast("string") as "v",
               col(PFDCheck.TidCol).cast("long") as "tid")): _*)) as "av")
      .select("av.attr", "av.v", "av.tid")
      .filter(col("v").isNotNull)
      .groupBy("attr", "v").agg(collect_list("tid") as "tids")
      .withColumn("count", size(col("tids")))
      .filter(col("count") >= params.minSupport)
      .withColumn("__r", row_number().over(byCount))
      .filter(col("__r") <= params.maxConditionValues)
      .collect()
      .map(r => (r.getString(0), r.getInt(4), (r.getString(1), r.getSeq[Long](2))))
      .groupBy(_._1)
      .map { case (a, vs) => a -> vs.sortBy(_._2).map(_._3).toSeq }
  }
}
