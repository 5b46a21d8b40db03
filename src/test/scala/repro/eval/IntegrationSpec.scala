package repro.eval

import repro.SparkSpec
import repro.baselines.{CFDFinder, FDep}
import repro.core.detect.ErrorDetector
import repro.core.discovery.{Discovery, Params}
import repro.data.{Dep, DirtyData}

/** End-to-end: the Table-7 pipeline on scaled-down tables. These are the
  * same code paths the bench drives at full scale — here we assert the
  * *shape* the paper reports (PFD recall beats the baselines, error
  * detection finds injected errors) on small data.
  */
class IntegrationSpec extends SparkSpec {

  private val Scale = 0.08

  private lazy val t1 = DirtyData.table(spark, 1, Scale, seed = 3)
  private lazy val t1df = t1.df.cache()
  private lazy val pfdRes = Discovery.discover(t1df,
    Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))
  private lazy val pfdPr = Metrics.score(pfdRes.deps.map(d => (d.lhs, d.rhs)), t1.groundTruth)

  override def afterAll(): Unit = {
    t1df.unpersist()
    super.afterAll()
  }

  test("T1: PFD discovery recalls most ground-truth dependencies") {
    assert(pfdPr.recall >= 0.7, s"recall ${pfdPr.rStr}; found ${pfdRes.deps.map(_.render)}")
  }
  test("T1: PFD discovery keeps precision high") {
    assert(pfdPr.precision >= 0.6,
      s"precision ${pfdPr.pStr}; found ${pfdRes.deps.map(_.render)}")
  }
  test("T1: the name → gender dependency is found and generalizes") {
    val d = pfdRes.deps.find(d => d.lhs == Seq("full_name") && d.rhs == "gender")
    assert(d.isDefined)
  }
  test("T1: some dependencies generalize to variable PFDs") {
    assert(pfdRes.deps.exists(_.isVariable))
  }
  test("T1: FDep finds fewer genuine dependencies than PFD (dirty data)") {
    val f = FDep.discover(t1df, maxLhs = 1)
    val fPr = Metrics.score(f.deps, t1.groundTruth)
    assert(fPr.correct < pfdPr.correct,
      s"FDep ${f.deps}, correct=${fPr.correct} vs PFD ${pfdPr.correct}")
  }
  test("T1: CFDFinder finds fewer genuine dependencies than PFD") {
    val c = CFDFinder.discover(t1df, confidence = 0.995, minSupport = 5)
    val cPr = Metrics.score(c.embedded, t1.groundTruth)
    assert(cPr.correct < pfdPr.correct,
      s"CFD correct=${cPr.correct} (${c.embedded}) vs PFD ${pfdPr.correct}")
  }
  test("T1: validated PFDs detect injected errors with decent precision") {
    val validated = pfdRes.deps.filter(d => t1.groundTruth.contains(Dep(d.lhs.toSet, d.rhs)))
    val flagged = ErrorDetector.detect(t1df, validated)
      .select(repro.core.PFDCheck.TidCol, "attr").distinct()
      .collect().map(r => (r.getLong(0), r.getString(1))).toSet
    val pr = Metrics.scoreErrors(flagged, t1.errorCellSet)
    assert(pr.flagged > 0, "no errors flagged at all")
    assert(pr.precision >= 0.4, s"error precision ${pr.pStr} on ${pr.flagged} flags")
    // and it actually catches a nontrivial share of what was injected
    assert(pr.hits >= t1.errors.size / 4,
      s"hits ${pr.hits} of ${t1.errors.size} injected")
  }
  test("Table7.runOne produces a complete row") {
    val row = Table7.runOne(DirtyData.table(spark, 7, 0.3, seed = 5), 7, runMulti = false)
    assert(row.nRows > 0 && row.pfd.millis > 0)
    assert(row.pfd.nDeps >= 0 && row.multiMillis == -1L)
    assert(Table7.render(Seq(row)).contains("T7"))
  }
  test("Table7.runOne leaves its caller's cached table cached") {
    val t = DirtyData.table(spark, 7, 0.0, seed = 5) // the 60-row minimum
    t.df.cache()
    try {
      t.df.count()
      Table7.runOne(t, 7, runMulti = false)
      assert(t.df.storageLevel != org.apache.spark.storage.StorageLevel.NONE)
    } finally t.df.unpersist()
  }
  test("Table8 harness reproduces high precision on all three dependencies") {
    val rows = Table8.run(spark, n = 4000, seed = 11)
    assert(rows.size == 3)
    rows.foreach { r =>
      assert(r.nPfds > 0, s"${r.dependency}: no PFDs")
      assert(r.precision >= 0.9, s"${r.dependency}: precision ${r.precision}")
      assert(r.coverage >= 0.3, s"${r.dependency}: coverage ${r.coverage}")
    }
    assert(Table8.render(rows).nonEmpty)
  }
  test("Table8.measure reports discovery's coverage: the token Ann does not cover DeAnna") {
    val rows = (0 until 20).map(i => (s"Ann X$i", "F")) ++
      (0 until 10).map(i => (s"DeAnna Y$i", if (i % 2 == 0) "F" else "M"))
    // the suites share one session, and this one keeps its own T1 cached
    val persisted = spark.sparkContext.getPersistentRDDs.keySet
    val r = Table8.measure(spark, "Full Name → Gender", "full_name", "gender", rows,
      (tok, g) => tok == "Ann" && g == "F")
    assert(r.nPfds == 1 && r.precision == 1.0)
    assert(r.coverage == 20.0 / 30)
    assert(spark.sparkContext.getPersistentRDDs.keySet == persisted)
  }
  test("T8 (single genuine dep): PFD finds standard_type → standard_units") {
    val t = DirtyData.table(spark, 8, 0.05, seed = 4)
    val res = Discovery.discover(t.df, Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))
    assert(res.deps.exists(d => d.lhs == Seq("standard_type") && d.rhs == "standard_units"),
      res.deps.map(_.render).mkString("; "))
  }
  test("T13 (course codes): dept mesh discovered at small scale") {
    val t = DirtyData.table(spark, 13, 0.01, seed = 4)
    val res = Discovery.discover(t.df, Params(minSupport = 5, noise = 0.05, minCoverage = 0.10))
    val found = res.deps.map(d => (d.lhs, d.rhs)).toSet
    assert(found.contains((Seq("course_code"), "dept_code")), res.deps.map(_.render))
    assert(found.contains((Seq("term"), "year")))
  }
}
