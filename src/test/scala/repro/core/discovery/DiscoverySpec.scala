package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.core.detect.ErrorDetector
import repro.data.DirtyData

/** The discovery algorithm of Fig. 4 end-to-end, on the paper's Example 8
  * (Table 6) and on constructed zip/phone/date tables.
  */
class DiscoverySpec extends SparkSpec {

  import spark.implicits._

  // ------------------------------------------------------------------
  // Example 8: Table 6, K = 2, δ = 5%.
  // ------------------------------------------------------------------

  private lazy val table6 = Seq(
    ("Tayseer Fahmi", "Egypt", "F"), ("Tayseer Qasem", "Yemen", "M"),
    ("Tayseer Salem", "Egypt", "F"), ("Tayseer Saeed", "Yemen", "M"),
    ("Noor Wagdi", "Egypt", "M"), ("Noor Shadi", "Yemen", "F"),
    ("Noor Hisham", "Egypt", "M"), ("Noor Hashim", "Yemen", "F"),
    ("Esmat Qadhi", "Yemen", "M"), ("Esmat Farahat", "Egypt", "F"))
    .toDF("name", "country", "gender")

  private lazy val ex8params = Params(minSupport = 2, noise = 0.05,
    minCoverage = 0.10, maxLhs = 2, maxRhsCover = 1.01)

  private lazy val ex8 = Discovery.discover(table6, ex8params)

  test("Example 8: no single-LHS dependency is found") {
    assert(!ex8.deps.exists(_.lhs.size == 1))
  }
  test("Example 8: the multi-LHS dependency {name, country} → gender is found") {
    val multi = ex8.deps.filter(_.lhs.size == 2)
    assert(multi.exists(d => d.lhs.toSet == Set("name", "country") && d.rhs == "gender"))
  }
  test("Example 8: the dependency generalizes to the variable PFD λ") {
    val d = ex8.deps.find(d => d.lhs.toSet == Set("name", "country") && d.rhs == "gender").get
    assert(d.isVariable)
    val tp = d.pfd.tableau.head
    // λ: ([name = \LU\LL*\ \A*, country] → [gender]) — country is ⊥
    assert(tp.lhsCells("country") == Wildcard)
    assert(tp.rhsCells("gender") == Wildcard)
    val nameCell = tp.lhsCells("name").asInstanceOf[Pats]
    assert(nameCell.alts.exists(cp =>
      Pattern.equivalent(cp.constrained, Pattern.parse("\\LU\\LL+")) ||
      Pattern.equivalent(cp.constrained, Pattern.parse("\\LU\\LL*"))))
  }
  test("Example 8 without generalization: the four constant PFDs λ1–λ4") {
    val res = Discovery.discover(table6, ex8params.copy(generalize = false))
    val d = res.deps.find(d => d.lhs.toSet == Set("name", "country") && d.rhs == "gender")
    assert(d.isDefined && !d.get.isVariable)
    val rows = d.get.pfd.tableau
    assert(rows.size == 4)
    def constantOf(c: Cell): String = c.asInstanceOf[Pats].alts.head.constrained.literalValue.get
    val asTriples = rows.map { tp =>
      (constantOf(tp.lhsCells("name")), constantOf(tp.lhsCells("country")),
       constantOf(tp.rhsCells("gender")))
    }.toSet
    assert(asTriples == Set(
      ("Tayseer", "Egypt", "F"), ("Noor", "Egypt", "M"),
      ("Tayseer", "Yemen", "M"), ("Noor", "Yemen", "F")))
  }

  // ------------------------------------------------------------------
  // Single-LHS: zip → city (λ3 / Table 2 shape, at support).
  // ------------------------------------------------------------------

  private lazy val zipDf = {
    // two prefixes per city with different first digits, so that the city
    // determines no common zip pattern (the reverse direction must fail)
    val rows =
      (0 until 20).map(i => (f"900$i%02d", "Los Angeles")) ++
      (0 until 20).map(i => (f"213$i%02d", "Los Angeles")) ++
      (0 until 20).map(i => (f"606$i%02d", "Chicago")) ++
      (0 until 20).map(i => (f"312$i%02d", "Chicago")) ++
      (0 until 20).map(i => (f"100$i%02d", "New York")) ++
      (0 until 20).map(i => (f"711$i%02d", "New York")) ++
      Seq(("90099", "New York")) // one error
    rows.toDF("zip", "city")
  }

  private lazy val zipRes = Discovery.discover(zipDf,
    Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))

  test("zip → city is discovered") {
    assert(zipRes.deps.exists(d => d.lhs == Seq("zip") && d.rhs == "city"))
  }
  test("zip → city generalizes to the variable \\D{3} PFD (λ5 shape)") {
    val d = zipRes.deps.find(d => d.lhs == Seq("zip") && d.rhs == "city").get
    assert(d.isVariable)
    val cp = d.pfd.tableau.head.lhsCells("zip").asInstanceOf[Pats].alts.head
    assert(Pattern.equivalent(cp.constrained, Pattern.parse("\\D{3}")))
    assert(d.pfd.tableau.head.rhsCells("city") == Wildcard)
  }
  test("city → zip is NOT discovered (no common prefix per city)") {
    assert(!zipRes.deps.exists(d => d.lhs == Seq("city") && d.rhs == "zip"))
  }
  test("coverage accounts the tableau's records") {
    val d = zipRes.deps.find(d => d.lhs == Seq("zip") && d.rhs == "city").get
    assert(d.coverage > 0.9)
  }

  // ------------------------------------------------------------------
  // Decision function f: support K and noise δ (restriction (iii)).
  // ------------------------------------------------------------------

  test("patterns below the minimum support are not reported") {
    val small = (0 until 4).map(i => (s"90${i}0$i", "LA")).toDF("zip", "city")
    val res = Discovery.discover(small, Params(minSupport = 5, minCoverage = 0.01,
                                               maxRhsCover = 1.01))
    assert(res.deps.isEmpty)
  }
  test("noise beyond δ kills the dependency") {
    // 10 of 40 Johns are F: 75% < 1 − δ
    val rows = (0 until 30).map(i => (s"John A$i", "M")) ++
               (0 until 10).map(i => (s"John B$i", "F"))
    val res = Discovery.discover(rows.toDF("name", "gender"),
      Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))
    assert(!res.deps.exists(d => d.lhs == Seq("name") && d.rhs == "gender"))
  }
  test("noise within δ is tolerated (dirty discovery)") {
    // keep gender balanced so neither value is trivially covering
    val rows = (0 until 39).map(i => (s"John A$i", "M")) ++
               (0 until 40).map(i => (s"Susan B$i", "F")) :+ (("John Bad", "F"))
    val res = Discovery.discover(rows.toDF("name", "gender"),
      Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))
    assert(res.deps.exists(d => d.lhs == Seq("name") && d.rhs == "gender"))
  }
  test("trivially-covering RHS patterns are rejected (constant id prefix)") {
    val rows = (0 until 60).map(i => (if (i % 2 == 0) "M" else "F", f"LIC-$i%04d"))
    val res = Discovery.discover(rows.toDF("gender", "license"),
      Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))
    assert(!res.deps.exists(d => d.rhs == "license"))
  }
  test("quantitative columns never participate") {
    val rows = (0 until 60).map(i => (s"900${i % 10}$i".take(5), f"${i * 1.37}%.2f"))
    val res = Discovery.discover(rows.toDF("zip", "amount"), Params(minSupport = 5))
    assert(!res.deps.exists(d => d.rhs == "amount" || d.lhs.contains("amount")))
  }

  // ------------------------------------------------------------------
  // Date ↔ year: partial RHS patterns (Year → Date, §5.1).
  // ------------------------------------------------------------------

  private lazy val dateDf = {
    val rows = (0 until 120).map { i =>
      val y = 2010 + (i % 4)
      (f"$y-${1 + i % 12}%02d-${1 + i % 28}%02d", y.toString)
    }
    rows.toDF("date", "year")
  }

  test("date → year is discovered from the date's leading token") {
    val res = Discovery.discover(dateDf, Params(minSupport = 5, minCoverage = 0.10))
    assert(res.deps.exists(d => d.lhs == Seq("date") && d.rhs == "year"))
  }
  test("year → date holds on the date's *prefix* (partial RHS pattern)") {
    val res = Discovery.discover(dateDf, Params(minSupport = 5, minCoverage = 0.10))
    val d = res.deps.find(d => d.lhs == Seq("year") && d.rhs == "date")
    assert(d.isDefined)
  }

  test("variable validation: multi-attribute LHS keys do not collide: (a␁b, c) and (a, b␁c)") {
    val df = PFDCheck.withTid(
      collidingKeys.toDF("first", "second", "rhs"))
    val pfd = PFD(Seq("first", "second"), Seq("rhs"), Seq(
      PTuple(Map("first" -> Wildcard, "second" -> Wildcard), Map("rhs" -> Wildcard))))
    val Seq((matched, violations)) = PFDCheck.validation(PFDCheck.values(df), Seq(pfd))
    assert(matched == 3 && violations == 0)
  }

  // ------------------------------------------------------------------
  // One index collect per discovery; level 2 mines slices of it.
  // ------------------------------------------------------------------

  test("mining 12 slices of T7's interned index equals each slice alone") {
    // T7 plus a conditioner whose most frequent value, "--", has no letter
    // or digit, so that the index has it only at SymbolValuePos
    val t7 = DirtyData.table(spark, 7).df.withColumn("flag",
      element_at(array(lit("--"), lit("x9"), lit("--"), lit("y8")),
                 (pmod(col(PFDCheck.TidCol), lit(4)) + 1).cast("int")))
    // the cap binds for some (slice, attr) pairs and not for others
    val params = Params(maxPatternsPerAttr = 5, maxConditionValues = 3)
    val quals = Profiler.profile(t7).filter(_.isQualitative)
    val n = t7.count()
    val ix = Discovery.mineEntries(t7).index
    val trivial = Discovery.trivialPatterns(ix, params, n)
    assert(trivial.nonEmpty) // the constant "A-" id prefix
    val dashes = (0 until ix.size).filter(i => ix.attrName(i) == "flag" && ix.token(i) == "--")
    assert(dashes.map(ix.pos) == Seq(PatternIndex.SymbolValuePos))
    assert(!PatternIndex.prune(ix, Int.MaxValue).kept.exists(dashes.contains))
    // 4 conditioners × 3 values, each slice mined on the other attributes
    val conds = Seq("assay_type", "organism", "year", "flag")
    val top = Discovery.topValues(ix, quals.map(p => p.name -> p.useTokenize).toMap, params)
    val slices = for (cond <- conds; (v, tuples) <- top(cond))
      yield (cond, v, ix.restrict(tuples, quals.map(_.name).filter(_ != cond).toSet))
    assert(slices.size == 12 && slices.exists(s => s._1 == "flag" && s._2 == "--"))
    val patterns = slices.flatMap { case (_, _, s) =>
      PatternIndex.prune(s, Int.MaxValue).kept.groupBy(s.attr(_)).values.map(_.length)
    }
    assert(patterns.exists(_ > params.maxPatternsPerAttr) &&
           patterns.exists(_ <= params.maxPatternsPerAttr))

    // single-slice indexes are independent: build and mine them concurrently
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val alone = Await.result(Future.traverse(slices) { case (cond, v, _) =>
      Future {
        val rows = t7.filter(col(cond).cast("string") === v)
        val index = PatternIndex.build(rows, quals.filter(_.name != cond))
        PatternIndex.intern(index.collect())
      }
    }, 10.minutes)
    def counts(ix: PatternIndex.Interned) =
      (0 until ix.size).map(i => (ix.attrName(i), ix.token(i), ix.pos(i)) -> ix.cnt(i)).toMap
    slices.zip(alone).foreach { case ((cond, v, slice), own) =>
      assert(counts(slice) == counts(own), s"slice $cond=$v")
      val es = Discovery.mine(own, params, trivial)._1
      assert(es.nonEmpty, s"slice $cond=$v")
      assert(Discovery.mine(slice, params, trivial)._1.toSet == es.toSet, s"slice $cond=$v")
    }
  }

  test("Oracle cross-check: level-1 mining on T7 equals the mining pipeline in SQL") {
    val t7 = DirtyData.table(spark, 7).df
    val index = PatternIndex.build(t7, Profiler.profile(t7).filter(_.isQualitative)).cache()
    try {
      val n = t7.count()
      val ix = Discovery.mineEntries(t7).index
      // the defaults; a cap that binds on some attributes; a noise at which
      // some pair's cj equals floor(cntA·(1−δ)) < ceil(cntA·(1−δ))
      for (params <- Seq(Params(), Params(maxPatternsPerAttr = 5),
                         Params(noise = 0.15, maxPatternsPerAttr = 12))) {
        val entries = Discovery.mine(ix, params, Discovery.trivialPatterns(ix, params, n))._1
        assert(entries.nonEmpty)
        val minRhsCnt = math.max(1L, math.floor((1 - params.noise) * params.minSupport).toLong)
        // stats with exact tid-set signatures; substring pruning and the cap
        // as row_number filters; the trivial-RHS guard; the self-join on tid
        // with f; the best RHS pattern per (LHS pattern, RHS attribute)
        repro.Oracle.assertEquivalent(
          entries.toDF(),
          s"""WITH ix AS (
             |  SELECT CAST(tid AS BIGINT) AS tid, attr, token, CAST(pos AS INTEGER) AS pos,
             |         CAST(whole AS BOOLEAN) AS whole FROM idx),
             |stats AS (
             |  SELECT attr, token, pos, count(*) AS cnt, bool_and(whole) AS isFull,
             |         string_agg(CAST(tid AS VARCHAR), ',' ORDER BY tid) AS sig
             |  FROM ix GROUP BY attr, token, pos),
             |pruned AS (
             |  SELECT * FROM stats QUALIFY row_number() OVER (
             |    PARTITION BY attr, sig ORDER BY length(token) DESC, pos, token) = 1),
             |capped AS (
             |  SELECT * FROM pruned QUALIFY row_number() OVER (
             |    PARTITION BY attr ORDER BY cnt DESC, length(token) DESC, token, pos)
             |    <= ${params.maxPatternsPerAttr}),
             |frequent AS (
             |  SELECT ix.tid, ix.attr, ix.token, ix.pos, ix.whole, c.cnt, c.isFull
             |  FROM ix JOIN capped c ON ix.attr = c.attr AND ix.token = c.token AND ix.pos = c.pos
             |  WHERE c.cnt >= $minRhsCnt
             |    AND CAST(c.cnt AS DOUBLE) < CAST(${params.maxRhsCover * n} AS DOUBLE)),
             |joint AS (
             |  SELECT a.attr AS attrA, a.token AS tokA, a.pos AS posA, a.cnt AS cntA,
             |         a.isFull AS fullA, b.attr AS attrB, b.token AS tokB, b.pos AS posB,
             |         count(*) AS cj, bool_and(b.whole) AS fullB
             |  FROM frequent a JOIN frequent b ON a.tid = b.tid AND a.attr <> b.attr
             |  WHERE a.cnt >= ${params.minSupport}
             |  GROUP BY a.attr, a.token, a.pos, a.cnt, a.isFull, b.attr, b.token, b.pos
             |  HAVING count(*) >= ceil(a.cnt * CAST(${1 - params.noise} AS DOUBLE)))
             |SELECT attrA, tokA, posA, cntA, attrB, tokB, posB, cj, fullA, fullB FROM joint
             |QUALIFY row_number() OVER (
             |  PARTITION BY attrA, tokA, posA, attrB
             |  ORDER BY length(tokB) DESC, cj DESC, tokB, posB) = 1""".stripMargin,
          "idx" -> index.select(col("tid"), col("attr"), col("token"), col("pos"),
                                col("full") as "whole"))
      }
    } finally index.unpersist()
  }

  test("discovery runs as many Spark jobs as with two more qualitative columns") {
    // city makes level 1 find country → city; both tables mine level 2
    val base = table6.withColumn("city",
      when(col("country") === "Egypt", "Cairo").otherwise("Sanaa"))
    val wider = base
      .withColumn("initial", substring(col("name"), 1, 1))
      .withColumn("region", concat(col("city"), lit(" region")))
    val params = ex8params.copy(generalize = false)
    val jobs = countJobs(Discovery.discover(base, params))
    assert(countJobs(Discovery.discover(wider, params)) == jobs)
  }

  test("a discovery is one Spark job, the collect of its table") {
    val t7 = DirtyData.table(spark, 7).df
    assert(countJobs(Discovery.discover(t7, Params(maxLhs = 2))) == 1)
    // a local table may be collected with no job at all
    assert(countJobs(Discovery.discover(table6, ex8params)) <= 1)
  }

  test("a cached input that carries __tid stays cached after discovery") {
    val df = table6.withColumn(PFDCheck.TidCol, monotonically_increasing_id()).cache()
    try {
      df.count()
      Discovery.discover(df, ex8params.copy(generalize = false))
      assert(df.storageLevel != org.apache.spark.storage.StorageLevel.NONE)
    } finally df.unpersist()
  }

  // ------------------------------------------------------------------
  // Degenerate inputs: discovery with maxLhs = 2, then detection.
  // ------------------------------------------------------------------

  private def discoverAndDetect(df: DataFrame): (Seq[DiscoveredDep], Long) = {
    val deps = Discovery.discover(df, Params(maxLhs = 2)).deps
    (deps, ErrorDetector.detect(df, deps).count())
  }

  test("degenerate input: an empty table yields no deps and no flags") {
    val empty = Seq.empty[(String, String, String)].toDF("name", "country", "gender")
    assert(discoverAndDetect(empty) == ((Seq.empty, 0L)))
  }
  test("degenerate input: all-null column and empty slice change no dep") {
    // zip → city, plus a city whose rows carry no zip: with the null column
    // that city's level-2 slice has no pattern on the attributes it is mined on
    val base = zipDf.union(Seq.fill(10)((null: String, "Springfield")).toDF("zip", "city"))
    val withNull = base.withColumn("note", lit(null).cast("string"))
    val (deps, flags) = discoverAndDetect(withNull)
    assert(deps.exists(d => d.lhs == Seq("zip") && d.rhs == "city"))
    assert((deps, flags) == discoverAndDetect(base))
  }
  test("degenerate input: one qualitative column yields no deps") {
    val df = (0 until 60).map(i => (s"John $i", i * 1.37)).toDF("name", "amount")
    assert(discoverAndDetect(df) == ((Seq.empty, 0L)))
  }
  test("degenerate input: an integer conditioner with sparse __tids") {
    // Table 6 three times over, so that the default K = 5 holds, with
    // country as an integer code and __tid far from 0 until n
    val rows = Seq.fill(3)(table6.as[(String, String, String)].collect().toSeq).flatten
    val coded = rows.zipWithIndex.map { case ((name, country, gender), i) =>
      (name, if (country == "Egypt") 20 else 967, gender, 1000L * i + 7)
    }.toDF("name", "country", "gender", PFDCheck.TidCol)
    val (deps, flags) = discoverAndDetect(coded)
    assert(deps.exists(d => d.lhs.toSet == Set("name", "country") && d.rhs == "gender"))
    def shape(ds: Seq[DiscoveredDep]) = ds.map(d => (d.lhs, d.rhs, d.isVariable, d.coverage, d.tableauSize))
    val (named, namedFlags) = discoverAndDetect(rows.toDF("name", "country", "gender"))
    assert(shape(deps) == shape(named) && flags == namedFlags)
  }

  test("a token after a leading separator is not the whole value: no ⟨abc⟩ cell for \" abc\"") {
    val rows = Seq.fill(6)((" abc", "F")) ++ Seq.fill(4)(("abc", "F")) ++ Seq.fill(10)(("p q r", "M"))
    val df = rows.toDF("name", "gender")
    val deps = Discovery.discover(df).deps
    assert(!deps.exists(d => d.lhs == Seq("gender") && d.rhs == "name" &&
      d.pfd.tableau.exists(_.rhsCells("name").render == "⟨abc⟩")))
    assert(ErrorDetector.detect(df, deps).filter(col("value") === " abc").count() == 0)
  }

  // ------------------------------------------------------------------
  // Tableau selection internals.
  // ------------------------------------------------------------------

  test("greedy selection drops extensions of an already-selected n-gram") {
    val es = Seq(
      Discovery.Entry("zip", "900", 0, 40, "city", "LA", -1, 40, fullA = false, fullB = true),
      Discovery.Entry("zip", "9001", 0, 10, "city", "LA", -1, 10, fullA = false, fullB = true),
      Discovery.Entry("zip", "606", 0, 35, "city", "CHI", -1, 35, fullA = false, fullB = true))
    val kept = Discovery.selectTableau(es, isTokenized = false)
    assert(kept.map(_.tokA).toSet == Set("900", "606"))
  }
  test("single semantics keeps the dominant position group") {
    val es = Seq(
      Discovery.Entry("name", "John", 0, 30, "g", "M", -1, 30, fullA = false, fullB = true),
      Discovery.Entry("name", "Susan", 0, 28, "g", "F", -1, 28, fullA = false, fullB = true),
      Discovery.Entry("name", "Smith", 1, 6, "g", "M", -1, 6, fullA = false, fullB = true))
    val kept = Discovery.selectTableau(es, isTokenized = true)
    assert(kept.forall(_.posA == 0))
  }

  // ------------------------------------------------------------------
  // Cells of mined constants: Table 3's shapes.
  // ------------------------------------------------------------------

  test("each mined constant gives its Table 3 cell shape") {
    def cell(isTokenized: Boolean, token: String, pos: Int, isFull: Boolean = false): Cell =
      Discovery.cellFor(isTokenized, Pattern.lit(token), pos, isFull)
    val prefix = cell(isTokenized = false, "900", 0)
    assert(prefix.render == "⟨900⟩\\A*")
    assert(prefix.matches("90012") && !prefix.matches("19001"))
    assert(cell(isTokenized = false, "CA", 0, isFull = true).render == "⟨CA⟩")
    val first = cell(isTokenized = true, "John", 0)
    assert(first.render == "⟨John⟩ ∪ ⟨John⟩\\S\\A*")
    assert(first.matches("John Smith") && !first.matches("Johnson"))
    assert(cell(isTokenized = true, "John", 2).render ==
      "\\A*\\S⟨John⟩ ∪ \\A*\\S⟨John⟩\\S\\A*")
    assert(cell(isTokenized = true, "John Smith", PatternIndex.FullValuePos, isFull = true).render ==
      "⟨John\\ Smith⟩")
  }
}
