package repro.baselines

import org.apache.spark.sql.functions._
import repro.SparkSpec

class FDepSpec extends SparkSpec {

  import spark.implicits._

  private lazy val clean = Seq(
    ("CS", "Computer Science", "A", 1), ("CS", "Computer Science", "B", 2),
    ("EE", "Electrical Eng", "A", 3), ("EE", "Electrical Eng", "C", 4),
    ("MA", "Mathematics", "B", 5), ("MA", "Mathematics", "C", 6))
    .toDF("code", "name", "grade", "id")

  test("exact FDs are found on clean data (code → name)") {
    val r = FDep.discover(clean, maxLhs = 1)
    assert(r.deps.contains((Seq("code"), "name")))
    assert(r.deps.contains((Seq("name"), "code")))
  }
  test("non-dependencies are not reported") {
    val r = FDep.discover(clean, maxLhs = 1)
    assert(!r.deps.contains((Seq("grade"), "code")))
    assert(!r.deps.contains((Seq("code"), "grade")))
  }
  test("keys determine everything (the paper's near-key hazard)") {
    val r = FDep.discover(clean, maxLhs = 1)
    assert(r.deps.count(_._1 == Seq("id")) == 3)
  }
  test("a single dirty cell kills the exact FD (why PFDs exist, §1.1)") {
    val dirty = clean.withColumn("name",
      when(col("id") === 2, lit("Computer Scienc")).otherwise(col("name")))
    val r = FDep.discover(dirty, maxLhs = 1)
    assert(!r.deps.contains((Seq("code"), "name")))
  }
  test("level-2 FDs are minimal (no superset of a level-1 LHS)") {
    val r = FDep.discover(clean, maxLhs = 2)
    assert(!r.deps.exists(d => d._1.contains("code") && d._1.size == 2 && d._2 == "name"))
  }
  test("a genuine two-attribute FD is found at level 2") {
    val df = Seq(
      ("a", "x", "1"), ("a", "y", "2"), ("b", "x", "2"), ("b", "y", "1"),
      ("a", "x", "1"), ("b", "y", "1"))
      .toDF("u", "v", "w")
    val r = FDep.discover(df, maxLhs = 2)
    assert(!r.deps.contains((Seq("u"), "w")) && !r.deps.contains((Seq("v"), "w")))
    assert(r.deps.contains((Seq("u", "v"), "w")))
  }
  test("runtime is measured") {
    assert(FDep.discover(clean).millis >= 0)
  }
  test("a failed discovery leaves no cached table behind") {
    val boom = udf((s: String) => if (s == "EE") throw new IllegalStateException("boom") else s)
    // repartitioned, so that the UDF runs in the cached table's first job
    // rather than when the optimizer folds a projection of local rows
    val persisted = spark.sparkContext.getPersistentRDDs.keySet
    intercept[Exception](
      FDep.discover(clean.repartition(2).withColumn("code", boom(col("code"))), maxLhs = 1))
    assert(spark.sparkContext.getPersistentRDDs.keySet == persisted)
  }
  test("Oracle cross-check: the FD-holds predicate matches SQL") {
    val maxDistinct = clean.groupBy("code")
      .agg(countDistinct(col("name")) as "d")
      .agg(max(col("d")).cast("long") as "m")
    repro.Oracle.assertEquivalent(
      maxDistinct,
      "SELECT max(d)::VARCHAR AS m FROM (SELECT count(DISTINCT name) AS d FROM t GROUP BY code)",
      "t" -> clean.select($"code".cast("string") as "code", $"name"))
  }
}
