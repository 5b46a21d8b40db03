package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{PFD, PFDCheck, PFDCheckReference}
import repro.data.DirtyData

class CFDFinderSpec extends SparkSpec {

  import spark.implicits._

  /** 3 frequent zips determining a city, plus one typo in the biggest group. */
  private lazy val zips = (
    (0 until 50).map(_ => ("90001", "Los Angeles")) ++
    (0 until 50).map(_ => ("60601", "Chicago")) ++
    (0 until 50).map(_ => ("10001", "New York")) :+ (("90001", "Los Angelos")))
    .toDF("zip", "city")

  /** One LHS value with 3 rows (below K = 5), and 60 singletons. */
  private lazy val infrequent =
    ((0 until 3).map(_ => ("A", "x")) ++ (0 until 60).map(i => (s"B$i", "y"))).toDF("k", "v")

  /** a → b holds but for one extra row. */
  private lazy val approxFd =
    ((0 until 100).map(i => (s"k$i", s"v$i")) :+ (("k0", "OTHER"))).toDF("a", "b")

  /** One conforming value covering 8% of rows; the remaining LHS values are
    * genuinely inconsistent, so no variable CFD either.
    */
  private lazy val lowCoverage =
    ((0 until 8).map(_ => ("A", "x")) ++
     (0 until 46).flatMap(i => Seq((s"u$i", "w1"), (s"u$i", "w2"))))
      .toDF("k", "v")

  /** Zip *prefixes* determine the city, full zips do not (see its test). */
  private lazy val prefixZips = (0 until 150).map { i =>
    val city = if (i % 50 == 0) "Los Angelos" else if (i < 75) "Los Angeles" else "Chicago"
    (f"${if (i < 75) 900 else 606}${(i / 3) % 25}%02d", city)
  }.toDF("zip", "city")

  /** w = u XOR v, each combination repeated. */
  private lazy val xor = Seq(
    ("a", "x", "1"), ("a", "y", "2"), ("b", "x", "2"), ("b", "y", "1"),
    ("a", "x", "1"), ("a", "x", "1"), ("a", "x", "1"), ("a", "x", "1"),
    ("b", "y", "1"), ("b", "y", "1"), ("b", "y", "1"), ("b", "y", "1"))
    .toDF("u", "v", "w")

  test("constant CFDs survive one dirty cell at confidence 0.995 … not") {
    // 50/51 = 0.980 < 0.995: the dirty group yields no rule — exactly the
    // sensitivity the paper works around by setting confidence below 1
    val r = CFDFinder.discover(zips, confidence = 0.98, minSupport = 5)
    assert(r.embedded.contains((Seq("zip"), "city")))
    val strict = CFDFinder.discover(zips, confidence = 0.995, minSupport = 5)
    // the two clean groups still cover 100/151 = 66% ≥ minCoverage
    assert(strict.embedded.contains((Seq("zip"), "city")))
    val dep = strict.deps.find(_.rhs == "city").get
    assert(!dep.rules.exists(_.lhsVals == Seq("90001")))
  }
  test("rules record support and confidence") {
    val r = CFDFinder.discover(zips, confidence = 0.98, minSupport = 5)
    val dep = r.deps.find(d => d.lhs == Seq("zip") && d.rhs == "city").get
    val rule = dep.rules.find(_.lhsVals == Seq("60601")).get
    assert(rule.support == 50 && rule.conf == 1.0)
  }
  test("infrequent LHS values yield no rules") {
    val r = CFDFinder.discover(infrequent, confidence = 0.99, minSupport = 5, minCoverage = 0.01)
    assert(!r.deps.filter(_.rhs == "v").exists(_.rules.exists(_.lhsVals == Seq("A"))))
  }
  test("a variable CFD is reported when the whole FD holds approximately") {
    val r = CFDFinder.discover(approxFd, confidence = 0.99, minSupport = 5)
    val dep = r.deps.find(d => d.lhs == Seq("a") && d.rhs == "b")
    assert(dep.exists(_.variable))
  }
  test("coverage below the threshold suppresses the dependency") {
    val r = CFDFinder.discover(lowCoverage, confidence = 0.995, minSupport = 5, minCoverage = 0.10)
    assert(!r.embedded.contains((Seq("k"), "v")))
  }
  test("CFDFinder never sees sub-value patterns (the contrast with PFDs)") {
    // zip *prefixes* determine the city; full zips repeat only 3 times each
    // (below minSupport) and 2% of cities are typos (above 1 − confidence):
    // CFDFinder finds neither constant rules nor a variable CFD, while PFD
    // discovery tolerates the same noise at the prefix level (DiscoverySpec)
    val r = CFDFinder.discover(prefixZips, confidence = 0.995, minSupport = 5)
    assert(!r.embedded.contains((Seq("zip"), "city")))
  }
  test("level 2 mines pairs only where level 1 failed") {
    val r = CFDFinder.discover(xor, confidence = 0.995, minSupport = 2,
                               minCoverage = 0.10, maxLhs = 2)
    assert(r.embedded.contains((Seq("u", "v"), "w")))
  }
  test("runtime is measured") {
    assert(CFDFinder.discover(zips).millis >= 0)
  }
  test("a failed discovery leaves no cached table behind") {
    val boom = udf((s: String) => if (s == "60601") throw new IllegalStateException("boom") else s)
    // repartitioned, so that the UDF runs in the cached table's first job
    // rather than when the optimizer folds a projection of local rows
    val persisted = spark.sparkContext.getPersistentRDDs.keySet
    intercept[Exception](
      CFDFinder.discover(zips.repartition(2).withColumn("zip", boom(col("zip")))))
    assert(spark.sparkContext.getPersistentRDDs.keySet == persisted)
  }
  test("null rule: a null LHS is in no group, and null is never the majority value") {
    val df = (Seq.fill(6)(("a", null: String)) ++ Seq.fill(6)((null: String, "y")) ++
              Seq.fill(6)(("b", "z"))).toDF("k", "v")
    val dep = CFDFinder.discover(df).deps.find(d => d.lhs == Seq("k") && d.rhs == "v").get
    // only b → z is a rule: group a's values are all null, and the six
    // null-k tuples form no group
    assert(dep.rules.map(r => (r.lhsVals, r.rhsVal)) == Seq((Seq("b"), "z")))
    assert(dep.coverage == 6.0 / 18 && !dep.variable)
    // SQL's rule, which the reference keeps, makes a rule of both and holds
    // the FD on all 18 rows
    val reference = BaselineReference.cfdFinder(df).find(d => d.lhs == Seq("k") && d.rhs == "v").get
    assert(reference.rules.size == 3 && reference.coverage == 1.0 && reference.variable)
  }
  test("one query per lattice level: 3 and 6 columns start the same number of jobs") {
    val jobs = Seq(3, 6).map(k =>
      countJobs(CFDFinder.discover(BaselineReference.independentColumns(spark, k), maxLhs = 2)))
    assert(jobs.head == jobs.last, s"jobs on 3 and 6 columns: $jobs")
  }
  test("one Spark job on an RDD-backed table: the collect of its values") {
    assert(countJobs(CFDFinder.discover(DirtyData.table(spark, 7).df, maxLhs = 2)) == 1)
  }
  /** CFDFinder's lattice over the group rows of the Spark window
    * formulation of the kernel ([[PFDCheckReference.groupRows]]), which
    * keeps CFDFinder's null rule and casts values as Spark does.
    */
  private def kernelReference(df: DataFrame, conf: Double, support: Int, cover: Double,
                              maxLhs: Int): Seq[CFDFinder.Dep] = {
    import CFDFinder.{Dep, Rule}
    val cols = df.columns.toSeq.filterNot(_ == PFDCheck.TidCol)
    val n = df.count()
    def mine(cands: Seq[(Seq[String], String)]): Seq[Dep] = {
      val groups = PFDCheckReference.groupRows(df, cands.map { case (x, b) => PFD.fd(x, b) })
        .collect().groupBy(_.getInt(0))
      for {
        ((lhs, b), i) <- cands.zipWithIndex
        gs = groups.getOrElse(i, Array.empty[org.apache.spark.sql.Row]).toSeq
        rules = gs.filter(g => !g.isNullAt(5) && g.getLong(4) >= support &&
                               g.getLong(6).toDouble / g.getLong(4) >= conf)
          .map(g => Rule(g.getSeq[String](3), g.getString(5), g.getLong(4),
                         g.getLong(6).toDouble / g.getLong(4)))
        covered = rules.map(_.support).sum.toDouble / n
        variable = gs.map(_.getLong(6)).sum.toDouble / n >= conf
        if variable || (rules.nonEmpty && covered >= cover)
      } yield Dep(lhs, b, rules, variable, covered)
    }
    val level1 = mine(for (a <- cols; b <- cols if a != b) yield (Seq(a), b))
    level1 ++ (if (maxLhs < 2) Seq.empty
               else mine(FDep.minimalPairs(cols, level1.map(d => (d.lhs, d.rhs)))))
  }
  test("non-string columns, nulls, an all-null column and an empty table: deps equal the kernel's Spark reference") {
    val allNull = typedTable.withColumn("n", lit(null).cast("string"))
    for ((name, df, found) <- Seq(("typed", typedTable, true), ("all-null column", allNull, true),
                                  ("empty", allNull.where(lit(false)), false))) {
      val deps = CFDFinder.discover(df, 0.6, 2, 0.1, maxLhs = 2).deps
      assert(deps.nonEmpty == found, name)
      assert(BaselineReference.comparable(deps) ==
        BaselineReference.comparable(kernelReference(df, 0.6, 2, 0.1, maxLhs = 2)), name)
    }
  }
  test("deps, rules and coverage equal the reference formulation's on T7 and this suite's tables") {
    def same(name: String, df: DataFrame, conf: Double, support: Int, cover: Double,
             maxLhs: Int): Unit = {
      assert(!BaselineReference.hasNull(df), name)
      val ours = CFDFinder.discover(df, conf, support, cover, maxLhs).deps
      assert(ours.nonEmpty, name)
      assert(BaselineReference.comparable(ours) ==
        BaselineReference.comparable(BaselineReference.cfdFinder(df, conf, support, cover, maxLhs)),
        name)
    }
    // Table 7's setting on T7; a looser one on the small tables, so that they yield rules
    same("T7", DirtyData.table(spark, 7).df, 0.995, 5, 0.10, maxLhs = 1)
    for ((name, df) <- Seq("zips" -> zips, "infrequent" -> infrequent, "approxFd" -> approxFd,
                           "lowCoverage" -> lowCoverage, "prefixZips" -> prefixZips, "xor" -> xor))
      same(name, df, 0.98, 2, 0.01, maxLhs = 2)
  }

  // Opt-in (PAPER_SIZE_CHECKS=1): T1–T15 at paper size, Table 7's setting.
  if (sys.env.get("PAPER_SIZE_CHECKS").contains("1"))
    test("paper size: deps, rules and coverage equal the reference formulation's on T1–T15") {
      for (id <- 1 to 15) {
        val df = DirtyData.table(spark, id).df.cache()
        try {
          assert(!BaselineReference.hasNull(df), s"T$id")
          assert(BaselineReference.comparable(CFDFinder.discover(df).deps) ==
            BaselineReference.comparable(BaselineReference.cfdFinder(df)), s"T$id")
        } finally df.unpersist()
      }
    }
}
