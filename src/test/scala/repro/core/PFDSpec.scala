package repro.core

import repro.SparkSpec

/** Satisfaction semantics of §2.2, on the paper's running examples:
  * Table 1 (D1: Name) and Table 2 (D2: Zip) with the Fig. 2 PFDs ψ1–ψ4.
  */
class PFDSpec extends SparkSpec {

  private def p(src: String): Pattern = Pattern.parse(src)

  private lazy val d1 = {
    import spark.implicits._
    Seq(("John Charles", "M"), ("John Bosco", "M"),
        ("Susan Orlean", "F"), ("Susan Boyle", "M")) // r4[gender] is the error
      .toDF("name", "gender")
  }
  private lazy val d1clean = {
    import spark.implicits._
    Seq(("John Charles", "M"), ("John Bosco", "M"),
        ("Susan Orlean", "F"), ("Susan Boyle", "F"))
      .toDF("name", "gender")
  }
  private lazy val d2 = {
    import spark.implicits._
    Seq(("90001", "Los Angeles"), ("90002", "Los Angeles"),
        ("90003", "Los Angeles"), ("90004", "New York")) // s4[city] is the error
      .toDF("zip", "city")
  }

  /** ψ1 — Fig. 2(a): constant rows John→M, Susan→F. */
  private val psi1 = PFD(Seq("name"), Seq("gender"), Seq(
    PTuple(Map("name" -> Cell(ConstrainedPattern.constant(Pattern.Empty, "John", p("\\ \\A*")))),
           Map("gender" -> Cell(ConstrainedPattern.wholeLiteral("M")))),
    PTuple(Map("name" -> Cell(ConstrainedPattern.constant(Pattern.Empty, "Susan", p("\\ \\A*")))),
           Map("gender" -> Cell(ConstrainedPattern.wholeLiteral("F"))))))

  /** ψ2 — Fig. 2(b): variable first-name PFD (λ4), RHS ⊥. */
  private val psi2 = PFD(Seq("name"), Seq("gender"), Seq(
    PTuple(Map("name" -> Cell(ConstrainedPattern(Pattern.Empty, p("\\LU\\LL*"), p("\\ \\A*")))),
           Map("gender" -> Wildcard))))

  /** ψ3 — Fig. 2(c): constant zip prefix (λ3). */
  private val psi3 = PFD(Seq("zip"), Seq("city"), Seq(
    PTuple(Map("zip" -> Cell(ConstrainedPattern.constant(Pattern.Empty, "900", p("\\D{2}")))),
           Map("city" -> Cell(ConstrainedPattern.wholeLiteral("Los Angeles"))))))

  /** ψ4 — Fig. 2(d): variable zip prefix (λ5), RHS ⊥. */
  private val psi4 = PFD(Seq("zip"), Seq("city"), Seq(
    PTuple(Map("zip" -> Cell(ConstrainedPattern(Pattern.Empty, p("\\D{3}"), p("\\D{2}")))),
           Map("city" -> Wildcard))))

  test("Example 6: r4 violates ψ1 (single-tuple semantics)") {
    assert(!PFDCheck.satisfies(d1, psi1))
  }
  test("ψ1 flags exactly r4[gender], with the repair suggestion F") {
    val v = PFDCheck.violations(d1, psi1).collect()
    assert(v.length == 1)
    assert(v.head.getAs[Long](PFDCheck.TidCol) == 3L) // r4 is the 4th row
    assert(v.head.getAs[String]("attr") == "gender")
    assert(v.head.getAs[String]("suggestion") == "F")
  }
  test("the corrected D1 satisfies ψ1") {
    assert(PFDCheck.satisfies(d1clean, psi1))
  }
  test("Example 6: (r3, r4) violate ψ2 (pair semantics)") {
    assert(!PFDCheck.satisfies(d1, psi2))
  }
  test("the corrected D1 satisfies ψ2") {
    assert(PFDCheck.satisfies(d1clean, psi2))
  }
  test("ψ2 violation repair flags the minority tuple only on a 2-1 split") {
    // add a second Susan-F so the group is {F, F, M}: r4 is the strict minority
    import spark.implicits._
    val d = Seq(("Susan Orlean", "F"), ("Susan Sarandon", "F"), ("Susan Boyle", "M"))
      .toDF("name", "gender")
    val v = PFDCheck.violations(d, psi2).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(2L))
  }
  test("a 1-1 split violates satisfaction but flags no repair candidate") {
    assert(!PFDCheck.satisfies(d1, psi2))
    val v = PFDCheck.violations(d1, psi2).collect()
    // Susan group is 1-1 — no strict majority, nothing safely repairable
    assert(v.isEmpty)
  }
  test("Example 6: s4 violates ψ3 (single tuple)") {
    assert(!PFDCheck.satisfies(d2, psi3))
    val v = PFDCheck.violations(d2, psi3).collect()
    assert(v.length == 1 && v.head.getAs[Long](PFDCheck.TidCol) == 3L)
    assert(v.head.getAs[String]("suggestion") == "Los Angeles")
  }
  test("Example 6: (s1,s4) violate ψ4; s4 is the strict minority") {
    assert(!PFDCheck.satisfies(d2, psi4))
    val v = PFDCheck.violations(d2, psi4).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(3L))
    assert(v.head.getAs[String]("attr") == "city")
  }
  test("ψ2 is satisfied when only one tuple matches a group (no redundancy)") {
    import spark.implicits._
    // §2.2's remark: without r3, ψ2 cannot detect r4 — but ψ1 still can
    val d = Seq(("John Charles", "M"), ("John Bosco", "M"), ("Susan Boyle", "M"))
      .toDF("name", "gender")
    assert(PFDCheck.satisfies(d, psi2))
    assert(!PFDCheck.satisfies(d, psi1))
  }
  test("tuples not matching the LHS pattern are ignored") {
    import spark.implicits._
    val d = Seq(("lowercase name", "M"), ("ALLCAPS X", "F")).toDF("name", "gender")
    assert(PFDCheck.satisfies(d, psi1))
    assert(PFDCheck.satisfies(d, psi2))
  }
  test("violations across multiple tableau rows union distinctly") {
    import spark.implicits._
    val d = Seq(("John Charles", "F"), ("Susan Boyle", "M")).toDF("name", "gender")
    val v = PFDCheck.violations(d, psi1).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(0L, 1L))
  }
  test("multi-attribute LHS keys do not collide: (a␁b, c) and (a, b␁c) are two groups") {
    import spark.implicits._
    val d = collidingKeys.toDF("first", "second", "rhs")
    val pfd = PFD(Seq("first", "second"), Seq("rhs"), Seq(
      PTuple(Map("first" -> Wildcard, "second" -> Wildcard), Map("rhs" -> Wildcard))))
    assert(PFDCheck.satisfies(d, pfd))
    assert(PFDCheck.violations(d, pfd).isEmpty)
  }
  test("rows failing the RHS cell never form a group's majority") {
    import spark.implicits._
    // the two null genders fail ψ2's RHS; F is the only key, but 1 of 3 is
    // no strict majority, so nothing is safely repairable
    val d = Seq(("Susan A", null), ("Susan B", null), ("Susan C", "F")).toDF("name", "gender")
    assert(PFDCheck.violations(d, psi2).isEmpty)
  }
  test("a group whose every tuple fails the RHS cell has no majority and flags nothing") {
    import spark.implicits._
    val d = Seq(("Susan A", null: String), ("Susan B", null: String)).toDF("name", "gender")
    assert(!PFDCheck.satisfies(d, psi2))
    assert(PFDCheck.violations(d, psi2).isEmpty)
    assert(PFDCheck.validation(PFDCheckReference.values(d), Seq(psi2)) == Seq((2L, 2L)))
  }
  test("violations and satisfies on an uncached input leave nothing cached") {
    spark.catalog.clearCache()
    PFDCheck.violations(d1, psi1).collect()
    PFDCheck.violations(d1, psi2).collect()
    PFDCheck.satisfies(d1clean, psi1)
    PFDCheck.satisfies(d1clean, psi2)
    assert(spark.sharedState.cacheManager.isEmpty)
  }
  test("withTid is idempotent") {
    val once = PFDCheck.withTid(d1)
    assert(PFDCheck.withTid(once).columns.count(_ == PFDCheck.TidCol) == 1)
  }
  test("Oracle cross-check: ψ3 single-tuple violation count via SQL") {
    import org.apache.spark.sql.functions._
    val flagged = PFDCheck.violations(d2, psi3)
      .groupBy().agg(count(lit(1)).cast("long") as "violations")
    repro.Oracle.assertEquivalent(
      flagged,
      """SELECT count(*)::VARCHAR AS violations
        |FROM zip WHERE regexp_full_match(zip, '900[0-9]{2}')
        |  AND city <> 'Los Angeles'""".stripMargin,
      "zip" -> d2)
  }
}
