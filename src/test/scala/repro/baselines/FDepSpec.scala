package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.DirtyData

class FDepSpec extends SparkSpec {

  import spark.implicits._

  private lazy val clean = Seq(
    ("CS", "Computer Science", "A", 1), ("CS", "Computer Science", "B", 2),
    ("EE", "Electrical Eng", "A", 3), ("EE", "Electrical Eng", "C", 4),
    ("MA", "Mathematics", "B", 5), ("MA", "Mathematics", "C", 6))
    .toDF("code", "name", "grade", "id")

  private lazy val dirty = clean.withColumn("name",
    when(col("id") === 2, lit("Computer Scienc")).otherwise(col("name")))

  /** w = u XOR v: only the pair determines w. */
  private lazy val xor = Seq(
    ("a", "x", "1"), ("a", "y", "2"), ("b", "x", "2"), ("b", "y", "1"),
    ("a", "x", "1"), ("b", "y", "1"))
    .toDF("u", "v", "w")

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
    val r = FDep.discover(dirty, maxLhs = 1)
    assert(!r.deps.contains((Seq("code"), "name")))
  }
  test("level-2 FDs are minimal (no superset of a level-1 LHS)") {
    val r = FDep.discover(clean, maxLhs = 2)
    assert(!r.deps.exists(d => d._1.contains("code") && d._1.size == 2 && d._2 == "name"))
  }
  test("a genuine two-attribute FD is found at level 2") {
    val r = FDep.discover(xor, maxLhs = 2)
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
    // X → B holds iff no non-null X group of two or more tuples has a null B
    // or two distinct B values: the kernel's null rule, spelt in SQL
    val cols = clean.columns.toSeq
    val sql = (for (a <- cols; b <- cols if a != b) yield
      s"""SELECT '$a' AS lhs, '$b' AS rhs WHERE NOT EXISTS (
         |  SELECT 1 FROM t WHERE "$a" IS NOT NULL GROUP BY "$a"
         |  HAVING count(*) > 1 AND (count(DISTINCT "$b") > 1 OR count("$b") < count(*)))"""
        .stripMargin).mkString("\nUNION ALL\n")
    val deps = FDep.discover(clean, maxLhs = 1).deps.map { case (x, b) => (x.head, b) }
    repro.Oracle.assertEquivalent(deps.toDF("lhs", "rhs"), sql, "t" -> clean)
  }
  test("null rule: a null LHS is in no group, and a null RHS in a group of two breaks the FD") {
    val df = Seq(("a", "1", "x"), ("a", "1", "x"), (null, "2", "y"), (null, "3", "y"),
                 ("b", "4", null), ("b", "4", "z")).toDF("k", "v", "w")
    val deps = FDep.discover(df, maxLhs = 1).deps
    // the two null-k tuples disagree on v, but form no group
    assert(deps.contains((Seq("k"), "v")))
    // the null w of group b disagrees with its z
    assert(!deps.contains((Seq("k"), "w")))
    // SQL's rule, which the reference keeps, decides both the other way
    val reference = BaselineReference.fdep(df, maxLhs = 1)
    assert(!reference.contains((Seq("k"), "v")) && reference.contains((Seq("k"), "w")))
  }
  test("one query per lattice level: 3 and 6 columns start the same number of jobs") {
    val jobs = Seq(3, 6).map(k =>
      countJobs(FDep.discover(BaselineReference.independentColumns(spark, k), maxLhs = 2)))
    assert(jobs.head == jobs.last, s"jobs on 3 and 6 columns: $jobs")
  }
  /** FDep's deps on `df` are the reference's, in any order: the reference
    * lists level 1 in the order of a hash map keyed by the LHS column.
    */
  private def assertSameDeps(df: DataFrame, clue: String): Unit = {
    def sorted(deps: Seq[(Seq[String], String)]) = deps.sortBy(_.toString)
    assert(sorted(FDep.discover(df, maxLhs = 2).deps) ==
      sorted(BaselineReference.fdep(df, maxLhs = 2)), clue)
  }

  test("deps equal the reference formulation's on T7 and this suite's tables, which hold no null") {
    val t7 = DirtyData.table(spark, 7).df
    for ((name, df) <- Seq("T7" -> t7, "clean" -> clean, "dirty" -> dirty, "xor" -> xor)) {
      assert(!BaselineReference.hasNull(df), name)
      assertSameDeps(df, name)
    }
  }

  // Opt-in (PAPER_SIZE_CHECKS=1): T1–T15 at paper size, Table 7's setting.
  if (sys.env.get("PAPER_SIZE_CHECKS").contains("1"))
    test("paper size: deps equal the reference formulation's on T1–T15") {
      for (id <- 1 to 15) {
        val df = DirtyData.table(spark, id).df.cache()
        try {
          assert(!BaselineReference.hasNull(df), s"T$id")
          assertSameDeps(df, s"T$id")
        } finally df.unpersist()
      }
    }
}
