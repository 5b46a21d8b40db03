package repro.baselines

import org.apache.spark.sql.functions._
import repro.SparkSpec

class CFDFinderSpec extends SparkSpec {

  import spark.implicits._

  /** 3 frequent zips determining a city, plus one typo in the biggest group. */
  private lazy val zips = (
    (0 until 50).map(_ => ("90001", "Los Angeles")) ++
    (0 until 50).map(_ => ("60601", "Chicago")) ++
    (0 until 50).map(_ => ("10001", "New York")) :+ (("90001", "Los Angelos")))
    .toDF("zip", "city")

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
    val df = ((0 until 3).map(_ => ("A", "x")) ++ (0 until 60).map(i => (s"B$i", "y")))
      .toDF("k", "v")
    val r = CFDFinder.discover(df, confidence = 0.99, minSupport = 5, minCoverage = 0.01)
    assert(!r.deps.filter(_.rhs == "v").exists(_.rules.exists(_.lhsVals == Seq("A"))))
  }
  test("a variable CFD is reported when the whole FD holds approximately") {
    val df = ((0 until 100).map(i => (s"k$i", s"v$i")) :+ (("k0", "OTHER"))).toDF("a", "b")
    val r = CFDFinder.discover(df, confidence = 0.99, minSupport = 5)
    val dep = r.deps.find(d => d.lhs == Seq("a") && d.rhs == "b")
    assert(dep.exists(_.variable))
  }
  test("coverage below the threshold suppresses the dependency") {
    // one conforming value covering 8% of rows; the remaining LHS values are
    // genuinely inconsistent, so no variable CFD either
    val df = ((0 until 8).map(_ => ("A", "x")) ++
              (0 until 46).flatMap(i => Seq((s"u$i", "w1"), (s"u$i", "w2"))))
      .toDF("k", "v")
    val r = CFDFinder.discover(df, confidence = 0.995, minSupport = 5, minCoverage = 0.10)
    assert(!r.embedded.contains((Seq("k"), "v")))
  }
  test("CFDFinder never sees sub-value patterns (the contrast with PFDs)") {
    // zip *prefixes* determine the city; full zips repeat only 3 times each
    // (below minSupport) and 2% of cities are typos (above 1 − confidence):
    // CFDFinder finds neither constant rules nor a variable CFD, while PFD
    // discovery tolerates the same noise at the prefix level (DiscoverySpec)
    val rows = (0 until 150).map { i =>
      val city = if (i % 50 == 0) "Los Angelos" else if (i < 75) "Los Angeles" else "Chicago"
      (f"${if (i < 75) 900 else 606}${(i / 3) % 25}%02d", city)
    }
    val r = CFDFinder.discover(rows.toDF("zip", "city"), confidence = 0.995, minSupport = 5)
    assert(!r.embedded.contains((Seq("zip"), "city")))
  }
  test("level 2 mines pairs only where level 1 failed") {
    val df = Seq(
      ("a", "x", "1"), ("a", "y", "2"), ("b", "x", "2"), ("b", "y", "1"),
      ("a", "x", "1"), ("a", "x", "1"), ("a", "x", "1"), ("a", "x", "1"),
      ("b", "y", "1"), ("b", "y", "1"), ("b", "y", "1"), ("b", "y", "1"))
      .toDF("u", "v", "w")
    val r = CFDFinder.discover(df, confidence = 0.995, minSupport = 2,
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
}
