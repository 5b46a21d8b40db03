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
  test("a character outside the BMP is one symbol, so the shape matches its input") {
    // U+1D400 is the surrogate pair D835 DC00: one code point, two chars
    val mathBoldA = "𝐀"
    assert(generalizeStrings(Seq(s"${mathBoldA}b")).get.render == "\\S\\LL")
    assert(generalizeStrings(Seq(s"b$mathBoldA")).get.render == "\\LL\\S")
    val ss = Seq(s"${mathBoldA}b", s"$mathBoldA${mathBoldA}cd", "-xy")
    val g = generalizeStrings(ss).get
    assert(g.render == "\\S+\\LL+")
    ss.foreach(s => assert(g.matches(s), s))
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

  /** Each tuple's whole values of `df`'s qualitative columns, read from
    * its interned index as discovery reads them.
    */
  private def indexed(df: DataFrame): PFDCheck.Values = {
    val indexed = Discovery.mineEntries(df)
    val quals = indexed.profiles.filter(_.isQualitative)
    indexed.index.wholeValues(quals.map(_.name), quals.map(p => p.name -> p.useTokenize).toMap)
  }

  /** One dependency's candidate, validated on its own. */
  private def generalizeAlone(df: DataFrame, a: String, b: String, entries: Seq[Discovery.Entry],
                              tokenized: Map[String, Boolean], params: Params): Option[PFD] =
    candidate(Seq(a), b, entries, tokenized)
      .filter(c => accepts(PFDCheck.validation(indexed(df), Seq(c)).head, params))

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

  // ---------------- one validation per discovery, on the driver ----------------

  /** The driver validation of `candidates` over `values`, against the window
    * formulation's query over `df` ((0, 0) where it has no row).
    */
  private def assertReferenceValidation(df: DataFrame, values: PFDCheck.Values,
                                        candidates: Seq[PFD], clue: String): Unit = {
    val reference = PFDCheckReference.validation(df, candidates).collect()
      .map(r => r.getInt(0) -> ((r.getLong(1), r.getLong(2)))).toMap
    assert(PFDCheck.validation(values, candidates) ==
           candidates.indices.map(reference.getOrElse(_, (0L, 0L))), clue)
  }

  test("batched validation on T13 equals each candidate validated alone") {
    val t13 = PFDCheck.withTid(DirtyData.table(spark, 13, scale = 0.01).df)
    val (found, values) = Discovery.dependencies(t13, Params(maxLhs = 2))
    val candidates = found.flatMap(_._2)
    val batched = PFDCheck.validation(values, candidates)
    assert(batched == candidates.map(c => PFDCheck.validation(values, Seq(c)).head))
    assertReferenceValidation(t13, values, candidates, "T13")
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
    val values = indexed(df)
    val batched = PFDCheck.validation(values, candidates)
    assert(batched == candidates.map(c => PFDCheck.validation(values, Seq(c)).head))
    assert(batched(1) == ((0L, 0L)) && batched(2) == ((60L, 0L)) && batched(3) == ((30L, 0L)))
    assert(batched(0)._1 == 60 && batched(4)._1 == 30)
    val found = candidates.map(c => (DiscoveredDep(c.lhs, c.rhs.head, c, isVariable = false, 1.0, 1), Some(c)))
    val deps = Generalizer.generalize(values, found, Params())
    assert(deps.map(_.isVariable) == Seq(false, false, true, true, false))
    assert(deps.map(_.generalization) == batched.map(Some(_)))
    assert(deps.slice(1, 4).map(_.generalization) ==
           Seq(Some((0L, 0L)), Some((60L, 0L)), Some((30L, 0L))))
  }

  test("generalization adds as many Spark jobs for 2 candidates as for 12") {
    import spark.implicits._
    val base = PFDCheck.withTid(((0 until 30).map(i => (s"John A$i", "M")) ++
      (0 until 30).map(i => (s"Susan B$i", "F"))).toDF("name", "gender"))
    // the first name's initial and a title by gender: more dependencies, each with a candidate
    val wider = base
      .withColumn("initial", substring(col("name"), 1, 1))
      .withColumn("title", when(col("gender") === "M", "Mr").otherwise("Ms"))
    def candidates(df: DataFrame) = Discovery.dependencies(df, Params())._1.count(_._2.isDefined)
    assert(candidates(base) == 2 && candidates(wider) == 12)
    def added(df: DataFrame) = countJobs(Discovery.discover(df, Params())) -
      countJobs(Discovery.discover(df, Params(generalize = false)))
    assert(added(base) == 0 && added(wider) == added(base))
  }

  // Opt-in (PAPER_SIZE_CHECKS=1): T1–T15 at paper size, single-LHS and level 2.
  if (sys.env.get("PAPER_SIZE_CHECKS").contains("1"))
    test("paper size: the driver validation of every candidate equals the window query") {
      for (id <- 1 to 15; maxLhs <- Seq(1, 2)) {
        val t = DirtyData.table(spark, id)
        Discovery.cached(PFDCheck.withTid(t.df)) { df =>
          val (found, values) = Discovery.dependencies(df, Params(maxLhs = maxLhs))
          val candidates = found.flatMap(_._2)
          assert(candidates.nonEmpty, s"T$id maxLhs $maxLhs")
          assertReferenceValidation(df, values, candidates, s"T$id maxLhs $maxLhs")
        }
      }
    }
}
