package repro.core.detect

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.IntegerType
import repro.SparkSpec
import repro.core._
import repro.core.discovery.{DiscoveredDep, Discovery}
import repro.data.DirtyData

class ErrorDetectorSpec extends SparkSpec {

  private def p(src: String): Pattern = Pattern.parse(src)

  private def constDep(tableau: Seq[(String, String)]): DiscoveredDep = {
    val rows = tableau.map { case (first, g) =>
      PTuple(
        Map("name" -> Cell(ConstrainedPattern.constant(Pattern.Empty, first, p("\\ \\A*")))),
        Map("gender" -> Cell(ConstrainedPattern.wholeLiteral(g))))
    }
    DiscoveredDep(Seq("name"), "gender", PFD(Seq("name"), Seq("gender"), rows),
      isVariable = false, coverage = 1.0, tableauSize = rows.size)
  }

  private val varDep: DiscoveredDep = DiscoveredDep(
    Seq("name"), "gender",
    PFD(Seq("name"), Seq("gender"), Seq(PTuple(
      Map("name" -> Cell(ConstrainedPattern(Pattern.Empty, p("\\LU\\LL*"), p("\\ \\A*")))),
      Map("gender" -> Wildcard)))),
    isVariable = true, coverage = 1.0, tableauSize = 1)

  /** A variable PFD with wildcard cells: LHS-equal tuples agree on `rhs`. */
  private def wildcardDep(lhs: Seq[String], rhs: String): DiscoveredDep = DiscoveredDep(lhs, rhs,
    PFD(lhs, Seq(rhs), Seq(PTuple(lhs.map(_ -> (Wildcard: Cell)).toMap, Map(rhs -> Wildcard)))),
    isVariable = true, coverage = 1.0, tableauSize = 1)

  test("constant PFDs flag single-tuple violations with the tid and attr") {
    import spark.implicits._
    val df = Seq(("John Charles", "M"), ("Susan Boyle", "M"), ("Susan Orlean", "F"))
      .toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M", "Susan" -> "F"))))
      .collect()
    assert(v.length == 1)
    assert(v.head.getAs[Long](PFDCheck.TidCol) == 1L)
    assert(v.head.getAs[String]("attr") == "gender")
    assert(v.head.getAs[String]("value") == "M")
  }
  test("constant detection scans the whole tableau in one pass") {
    import spark.implicits._
    val df = Seq(("John X", "F"), ("Susan Y", "M"), ("Mary Z", "F")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M", "Susan" -> "F"))))
      .select(PFDCheck.TidCol).collect().map(_.getLong(0)).toSet
    assert(v == Set(0L, 1L)) // Mary matches no tableau row
  }
  test("variable PFDs flag the strict minority of a disagreeing group") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M"),
                 ("John D", "M")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(varDep)).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(2L))
  }
  test("variable PFDs flag nothing on a tie (no safe repair)") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan C", "M")).toDF("name", "gender")
    assert(ErrorDetector.detect(df, Seq(varDep)).isEmpty)
  }
  test("variable PFDs ignore singleton groups") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("John D", "M")).toDF("name", "gender")
    assert(ErrorDetector.detect(df, Seq(varDep)).isEmpty)
  }
  test("multiple dependencies union their violations distinctly") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(varDep, constDep(Seq("Susan" -> "F"))))
      .select(PFDCheck.TidCol, "attr").distinct().collect()
    assert(v.map(_.getLong(0)).toSet == Set(2L))
  }
  test("multi-attribute LHS keys do not collide: (a␁b, c) and (a, b␁c) are two groups") {
    import spark.implicits._
    val df = collidingKeys.toDF("first", "second", "rhs")
    assert(ErrorDetector.detect(df, Seq(wildcardDep(Seq("first", "second"), "rhs"))).isEmpty)
  }
  test("detection runs as many Spark jobs for three variable PFDs as for one") {
    import spark.implicits._
    val df = Seq(("Susan A", "Egypt", "F"), ("Susan B", "Egypt", "F"), ("Susan C", "Egypt", "M"),
                 ("John D", "Yemen", "M"), ("John E", "Yemen", "M"), ("John F", "Yemen", "F"))
      .toDF("name", "country", "gender")
    val three = Seq(varDep, wildcardDep(Seq("country"), "gender"),
                    wildcardDep(Seq("country", "gender"), "name"))
    val one = countJobs(ErrorDetector.detect(df, Seq(varDep)).collect())
    assert(countJobs(ErrorDetector.detect(df, three).collect()) == one)
  }
  test("detection on an RDD-backed table is one Spark job, the collect of its values") {
    val t7 = DirtyData.table(spark, 7).df
    val deps = Discovery.discover(t7).deps
    assert(deps.nonEmpty)
    assert(countJobs(ErrorDetector.detect(t7, deps).collect()) == 1)
  }
  test("non-string columns with nulls flag the cells the Spark reference flags, as it casts them") {
    def constant(a: String, value: String, b: String, rhs: String) =
      DiscoveredDep(Seq(a), b, PFD(Seq(a), Seq(b), Seq(PTuple(
        Map(a -> Cell(ConstrainedPattern.wholeLiteral(value))),
        Map(b -> Cell(ConstrainedPattern.wholeLiteral(rhs)))))),
        isVariable = false, coverage = 1.0, tableauSize = 1)
    val deps = Seq(constant("d", "1.0E7", "i", "1"), constant("ts", "2020-01-31 10:00:00", "l", "10"),
                   wildcardDep(Seq("i"), "b"), wildcardDep(Seq("b", "dt"), "l"),
                   wildcardDep(Seq("d"), "dt"), wildcardDep(Seq("d"), "i"))
    val ours = ErrorDetector.detect(typedTable, deps)
    assert(ours.schema(PFDCheck.TidCol).dataType == IntegerType)
    val reference = PFDCheckReference.flagged(typedTable, deps.map(_.pfd))
      .select(col(PFDCheck.TidCol), col("attr"), col("value"),
              element_at(typedLit(deps.map(_.render)), col("pfd") + 1) as "dep")
      .distinct()
    assert(ours.collect().toSet == reference.collect().toSet)
    assert(ours.select(PFDCheck.TidCol, "attr").collect().map(r => (r.getInt(0), r.getString(1))).toSet ==
      Set((8, "i"), (3, "b"), (6, "l"), (8, "l"), (6, "i")))
  }
  test("discovery then detection on an uncached input leave nothing cached") {
    import spark.implicits._
    spark.catalog.clearCache()
    val df = ((0 until 30).map(i => (s"John A$i", "M")) ++ (0 until 30).map(i => (s"Susan B$i", "F")))
      .toDF("name", "gender")
    val deps = Discovery.discover(df).deps
    assert(deps.nonEmpty)
    ErrorDetector.detect(df, deps).collect()
    assert(spark.sharedState.cacheManager.isEmpty)
  }
  test("empty dependency list flags nothing") {
    import spark.implicits._
    val df = Seq(("a", "b")).toDF("name", "gender")
    assert(ErrorDetector.detect(df, Seq.empty).isEmpty)
  }
  test("null cells never match and are flagged when the LHS fires") {
    import spark.implicits._
    val df = Seq(("John X", null), ("John Y", "M")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M")))).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(0L))
  }
  test("Oracle cross-check: constant-PFD violations equal a SQL predicate") {
    import spark.implicits._
    val df = Seq(("John Charles", "M"), ("John Boyle", "F"), ("Susan Orlean", "F"),
                 ("Susan Kim", "M"), ("Mary Poppins", "F")).toDF("name", "gender")
    val flagged = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M", "Susan" -> "F"))))
      .groupBy().agg(count(lit(1)).cast("long") as "violations")
    repro.Oracle.assertEquivalent(
      flagged,
      """SELECT count(*)::VARCHAR AS violations FROM t
        |WHERE (regexp_full_match(name, 'John .*') AND gender <> 'M')
        |   OR (regexp_full_match(name, 'Susan .*') AND gender <> 'F')""".stripMargin,
      "t" -> df)
  }
  test("Oracle cross-check: variable-PFD majority flags equal a SQL window query") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M"),
                 ("John D", "M"), ("John E", "M"), ("John F", "F"),
                 ("Kim G", "M"), ("Kim H", "F")).toDF("name", "gender")
    val flagged = ErrorDetector.detect(df, Seq(varDep))
      .groupBy().agg(count(lit(1)).cast("long") as "violations")
    repro.Oracle.assertEquivalent(
      flagged,
      """WITH keyed AS (
        |  SELECT split_part(name, ' ', 1) AS k, gender FROM t
        |), counted AS (
        |  SELECT k, gender, count(*) AS c FROM keyed GROUP BY k, gender
        |), tot AS (
        |  SELECT k, sum(c) AS n, max(c) AS best FROM counted GROUP BY k
        |)
        |SELECT coalesce(sum(n - best), 0)::VARCHAR AS violations
        |FROM tot WHERE best * 2 > n AND n > 1""".stripMargin,
      "t" -> df)
  }
}
