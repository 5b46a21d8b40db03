package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.data.DirtyData

class GeneralizerSpec extends SparkSpec {
  import Generalizer._

  // ---------------- generalizeStrings ----------------

  test("first names generalize to \\LU\\LL+ (Example 8's λ)") {
    val g = generalizeStrings(Seq("Tayseer", "Noor", "Esmat")).get
    assert(Pattern.equivalent(g, Pattern.parse("\\LU\\LL+")))
  }
  test("equal-length digit strings generalize to \\D{3}") {
    val g = generalizeStrings(Seq("900", "606", "100")).get
    assert(g == Pattern(Vector(Cls(CharClass.Digit, Rep.Exactly(3)))))
  }
  test("mixed-length digit strings generalize to \\D+") {
    val g = generalizeStrings(Seq("900", "6061")).get
    assert(g == Pattern(Vector(Cls(CharClass.Digit, Rep.Plus))))
  }
  test("generalization preserves membership") {
    val ss = Seq("Tayseer", "Noor", "Esmat", "John", "Xu")
    val g = generalizeStrings(ss).get
    ss.foreach(s => assert(g.matches(s)))
  }
  test("mixed class shapes do not generalize") {
    assert(generalizeStrings(Seq("900", "John")).isEmpty)
    assert(generalizeStrings(Seq("A-1", "John")).isEmpty)
  }
  test("multi-run shapes unify run by run") {
    val g = generalizeStrings(Seq("A-1", "B-2", "C-9")).get
    assert(g.matches("Z-5")); assert(!g.matches("ZZ-5"))
  }
  test("empty and null-ish inputs do not generalize") {
    assert(generalizeStrings(Seq.empty).isEmpty)
    assert(generalizeStrings(Seq("a", "")).isEmpty)
  }
  test("single-char classes render without a qualifier") {
    val g = generalizeStrings(Seq("M", "F")).get
    assert(g == Pattern(Vector(Cls(CharClass.Upper, Rep.One))))
  }

  // ---------------- generalCellFor ----------------

  test("fixed-length n-gram shapes lift to offset-anchored cells") {
    val g = Pattern.parse("\\D{3}")
    val cell = generalCellFor(isTokenized = false, g, pos = 0).get.asInstanceOf[Pats]
    assert(cell.alts.head.extract("90001").contains("900"))
  }
  test("variable-length n-gram shapes are rejected (greedy would overrun)") {
    assert(generalCellFor(isTokenized = false, Pattern.parse("\\D+"), 0).isEmpty)
  }
  test("token shapes must not cross separators") {
    assert(generalCellFor(isTokenized = true, Pattern.parse("\\LU\\A*"), 0).isEmpty)
    assert(generalCellFor(isTokenized = true, Pattern.parse("\\LU\\LL+"), 0).isDefined)
  }
  test("token cells extract the first token only") {
    val cell = generalCellFor(isTokenized = true, Pattern.parse("\\LU\\LL+"), 0).get
    assert(cell.key("John Smith").contains("John"))
    assert(cell.key("John").contains("John"))
    assert(cell.key("JOHN Smith").isEmpty)
  }
  test("position-1 token cells skip the leading token") {
    val cell = generalCellFor(isTokenized = true, Pattern.parse("\\LU\\LL+"), 1).get
    assert(cell.key("Holloway, Donald E.").contains("Donald"))
  }

  // ---------------- end-to-end validation ----------------

  /** One dependency's candidate, validated on its own. */
  private def generalizeAlone(df: DataFrame, a: String, b: String, entries: Seq[Discovery.Entry],
                              tokenized: Map[String, Boolean], params: Params): Option[PFD] =
    candidate(Seq(a), b, entries, tokenized).filter(c => accepts(validate(df, Seq(c)).head, params))

  test("a variable PFD is rejected when group disagreement exceeds δ") {
    import spark.implicits._
    // unisex world: every first name appears with both genders 50/50
    val rows = (0 until 30).map(i => (s"Kim A$i", if (i % 2 == 0) "M" else "F")) ++
               (0 until 30).map(i => (s"Alex B$i", if (i % 2 == 0) "M" else "F"))
    val df = repro.core.PFDCheck.withTid(rows.toDF("name", "gender"))
    val entries = Seq(
      Discovery.Entry("name", "Kim", 0, 30, "gender", "M", 0, 15, fullA = false, fullB = true),
      Discovery.Entry("name", "Alex", 0, 30, "gender", "M", 0, 15, fullA = false, fullB = true))
    val g = generalizeAlone(df, "name", "gender", entries,
      Map("name" -> true, "gender" -> false), Params(noise = 0.05))
    assert(g.isEmpty)
  }
  test("a variable PFD validates on agreeing groups (ψ2 shape)") {
    import spark.implicits._
    val rows = (0 until 30).map(i => (s"John A$i", "M")) ++
               (0 until 30).map(i => (s"Susan B$i", "F"))
    val df = repro.core.PFDCheck.withTid(rows.toDF("name", "gender"))
    val entries = Seq(
      Discovery.Entry("name", "John", 0, 30, "gender", "M", 0, 30, fullA = false, fullB = true),
      Discovery.Entry("name", "Susan", 0, 30, "gender", "F", 0, 30, fullA = false, fullB = true))
    val g = generalizeAlone(df, "name", "gender", entries,
      Map("name" -> true, "gender" -> false), Params(noise = 0.05))
    assert(g.isDefined)
    assert(g.get.tableau.head.rhsCells("gender") == Wildcard)
  }
  test("generalize refuses a single constant (no shape from one witness)") {
    import spark.implicits._
    val df = repro.core.PFDCheck.withTid(
      (0 until 10).map(i => (s"John A$i", "M")).toDF("name", "gender"))
    val entries = Seq(Discovery.Entry("name", "John", 0, 10, "gender", "M", 0, 10,
                                      fullA = false, fullB = false))
    assert(generalizeAlone(df, "name", "gender", entries,
      Map("name" -> true, "gender" -> false), Params()).isEmpty)
  }

  // ---------------- one validation query per discovery ----------------

  test("batched validation on T13 equals each candidate validated alone") {
    val t13 = DirtyData.table(spark, 13, scale = 0.01).df
    val candidates = Discovery.dependencies(t13, Params(maxLhs = 2)).flatMap(_._2)
    val batched = validate(t13, candidates)
    assert(batched == candidates.map(c => validate(t13, Seq(c)).head))
    val decisions = batched.map(accepts(_, Params()))
    assert(decisions.contains(true) && decisions.contains(false))
  }

  test("a candidate that matches no row is rejected; later ones keep their results") {
    import spark.implicits._
    val rows = (0 until 30).map(i => (s"John A$i", "M")) ++
               (0 until 30).map(i => (s"Susan B$i", "F"))
    val df = PFDCheck.withTid(rows.toDF("name", "gender"))
    val byFirstName = generalCellFor(isTokenized = true, Pattern.parse("\\LU\\LL+"), 0).get
    def pfd(a: String, ca: Cell, b: String) = PFD(Seq(a), Seq(b), Seq(PTuple(Map(a -> ca), Map(b -> Wildcard))))
    val candidates = Seq(
      pfd("gender", Wildcard, "name"),                                        // fails
      pfd("name", Cell(ConstrainedPattern.wholeLiteral("Nobody")), "gender"), // matches no row
      pfd("name", byFirstName, "gender"),                                     // holds
      pfd("name", Discovery.cellFor(isTokenized = true, Pattern.lit("Susan"), 0), "gender"), // holds, fewer rows
      pfd("gender", Cell(ConstrainedPattern.wholeLiteral("F")), "name"))      // fails, fewer rows
    val batched = validate(df, candidates)
    assert(batched == candidates.map(c => validate(df, Seq(c)).head))
    assert(batched(1) == ((0L, 0L)) && batched(2) == ((60L, 0L)) && batched(3) == ((30L, 0L)))
    assert(batched(0)._1 == 60 && batched(4)._1 == 30)
    val found = candidates.map(c => (DiscoveredDep(c.lhs, c.rhs.head, c, isVariable = false, 1.0, 1), Some(c)))
    assert(Generalizer.generalize(df, found, Params()).map(_.isVariable) ==
           Seq(false, false, true, true, false))
  }

  test("generalization adds as many Spark jobs for 2 candidates as for 12") {
    import spark.implicits._
    val base = PFDCheck.withTid(((0 until 30).map(i => (s"John A$i", "M")) ++
      (0 until 30).map(i => (s"Susan B$i", "F"))).toDF("name", "gender"))
    // the first name's initial and a title by gender: more dependencies, each with a candidate
    val wider = base
      .withColumn("initial", substring(col("name"), 1, 1))
      .withColumn("title", when(col("gender") === "M", "Mr").otherwise("Ms"))
    def candidates(df: DataFrame) = Discovery.dependencies(df, Params()).count(_._2.isDefined)
    assert(candidates(base) == 2 && candidates(wider) == 12)
    def added(df: DataFrame) = countJobs(Discovery.discover(df, Params())) -
      countJobs(Discovery.discover(df, Params(generalize = false)))
    assert(added(base) > 0 && added(wider) == added(base))
  }
}
