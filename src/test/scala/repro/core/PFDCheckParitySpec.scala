package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, struct, to_json}
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.{PropHelper, SparkSpec}
import repro.core.discovery.{Discovery, Params}
import repro.data.{Dep, DirtyData}

/** [[PFDCheck.groups]] and its selections against the window formulation
  * they replaced ([[PFDCheckReference]]): flagged cells, the unsatisfied set
  * and the group rows CFDFinder reads; and the driver's validation counts
  * over the table's collected values against the reference's query.
  */
class PFDCheckParitySpec extends SparkSpec with PropHelper {

  import spark.implicits._

  /** Every selection of the kernel and of the reference on `df`, labelled.
    * Each formulation's four selections run as one query, with their rows
    * as JSON, and are compared as multisets of rows. The kernel's
    * validation runs on the driver; its counts join the query as a local
    * table, with no row for a PFD that no tuple matches.
    */
  private def same(df: DataFrame, pfds: Seq[PFD]): Prop = {
    def rows(selections: (String, DataFrame)*): Map[(String, String), Int] =
      selections.map { case (label, d) => d.select(lit(label), to_json(struct(col("*")))) }
        .reduce(_ union _).as[(String, String)].collect().toSeq
        .groupMapReduce(identity)(_ => 1)(_ + _)
    val ours = rows(
      "flagged" -> PFDCheck.flagged(df, pfds),
      "validation" -> PFDCheck.validation(PFDCheckReference.values(df), pfds).zipWithIndex
        .collect { case ((m, v), i) if m > 0 => (i, m, v) }.toDF("pfd", "matched", "violations"),
      "unsatisfied" -> PFDCheck.unsatisfied(df, pfds),
      "groups" -> PFDCheck.groups(df, pfds, _ => true)
        .select("pfd", "row", "attr", "lkey", "tot", "majk", "majc"))
    val reference = rows(
      "flagged" -> PFDCheckReference.flagged(df, pfds),
      "validation" -> PFDCheckReference.validation(df, pfds),
      "unsatisfied" -> PFDCheckReference.unsatisfied(df, pfds),
      "groups" -> PFDCheckReference.groupRows(df, pfds))
    Seq("flagged", "validation", "unsatisfied", "groups").map { sel =>
      val (o, r) = (ours.filter(_._1._1 == sel), reference.filter(_._1._1 == sel))
      (o == r) :| s"$sel: kernel $o, reference $r"
    }.reduce(_ && _)
  }

  private def p(src: String): Pattern = Pattern.parse(src)
  private val (fullwidthA, mathBoldA) = ("Ａ", "𝐀")

  /** Tiny alphabets, so that ties, nulls, singleton groups and both
    * orders of U+FF21 and U+1D400 are common; one row in seven comes from
    * `collidingKeys`.
    */
  private val value: Gen[String] = Gen.frequency(
    2 -> Gen.const(null), 5 -> Gen.oneOf("x", "y", "xy"), 2 -> Gen.oneOf(fullwidthA, mathBoldA))
  private val tuple: Gen[List[String]] = Gen.frequency(
    1 -> Gen.oneOf(collidingKeys).map { case (a, b, c) => List(a, b, c) },
    6 -> Gen.listOfN(3, value))
  private val table: Gen[List[List[String]]] = Gen.choose(0, 14).flatMap(Gen.listOfN(_, tuple))

  private val firstChar = Cell(ConstrainedPattern(Pattern.Empty, p("\\A"), p("\\A*")))
  private val lhsCell: Gen[Cell] =
    Gen.oneOf(Wildcard, firstChar, Cell(ConstrainedPattern.constant(Pattern.Empty, "x", p("\\A*"))))
  /** Fails on every value but x, y and xy, so that whole groups fail. */
  private val lowerFirst = Cell(ConstrainedPattern(Pattern.Empty, p("\\LL"), p("\\LL*")))
  private val rhsCell: Gen[Cell] =
    Gen.oneOf(Wildcard, firstChar, lowerFirst, Cell(ConstrainedPattern.wholeLiteral("x")))

  /** One- and two-attribute LHSs over a, b, c, with one or two tableau
    * rows of wildcard, variable and constant cells.
    */
  private val pfd: Gen[PFD] = for {
    k <- Gen.choose(1, 2)
    lhs <- Gen.pick(k, Seq("a", "b", "c")).map(_.toList.sorted)
    rhs <- Gen.oneOf(Seq("a", "b", "c").filterNot(lhs.contains))
    n <- Gen.choose(1, 2)
    tableau <- Gen.listOfN(n, for {
      ls <- Gen.listOfN(lhs.size, lhsCell)
      r <- rhsCell
    } yield PTuple(lhs.zip(ls).toMap, Map(rhs -> r)))
  } yield PFD(lhs, Seq(rhs), tableau)

  private def frame(rows: Seq[List[String]]): DataFrame =
    rows.zipWithIndex.map { case (r, i) => (i.toLong, r(0), r(1), r(2)) }
      .toDF(PFDCheck.TidCol, "a", "b", "c")

  /** Cases (table, PFDs) as one table and one PFD list, so that one query
    * checks them all: case i's tuples carry `part` = i, and each of its PFDs
    * reaches only them through a constant `part` cell added to its LHS.
    */
  private def batch(cases: Seq[(List[List[String]], List[PFD])]): (DataFrame, Seq[PFD]) = {
    val tuples = for ((c, i) <- cases.zipWithIndex; r <- c._1) yield (i.toString, r(0), r(1), r(2))
    val df = tuples.zipWithIndex.map { case ((part, a, b, c), t) => (t.toLong, part, a, b, c) }
      .toDF(PFDCheck.TidCol, "part", "a", "b", "c")
    val pfds = for ((c, i) <- cases.zipWithIndex; p <- c._2) yield {
      val part = "part" -> Cell(ConstrainedPattern.wholeLiteral(i.toString))
      PFD("part" +: p.lhs, p.rhs, p.tableau.map(tp => tp.copy(lhsCells = tp.lhsCells + part)))
    }
    (df, pfds)
  }

  test("a tie between U+FF21 and U+1D400 goes to U+FF21 in both formulations") {
    val df = frame(Seq(List("k", mathBoldA, "x"), List("k", fullwidthA, "x"),
                       List("k", mathBoldA, "x"), List("k", fullwidthA, "x")))
    val fd = PFD.fd(Seq("a"), "b")
    assert(PFDCheck.groups(df, Seq(fd), _ => true).select("majk", "majc").as[(String, Long)]
      .collect().toSeq == Seq((fullwidthA, 2L)))
    checkProp(same(df, Seq(fd)), 1)
  }

  test("on small random tables the kernel equals the window formulation") {
    val aCase = Gen.zip(table, Gen.choose(1, 4).flatMap(Gen.listOfN(_, pfd)))
    checkProp(Prop.forAllNoShrink(Gen.listOfN(20, aCase)) { cases =>
      val (df, pfds) = batch(cases)
      same(df, pfds)
    }, 3)
  }

  // Opt-in (PAPER_SIZE_CHECKS=1): T1–T15 at paper size, Table 7's validated deps.
  if (sys.env.get("PAPER_SIZE_CHECKS").contains("1"))
    test("paper size: the Table 7 validated deps' selections equal the window formulation's") {
      val params = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10, maxLhs = 1)
      for (id <- 1 to 15) {
        val t = DirtyData.table(spark, id)
        Discovery.cached(t.df) { df =>
          val validated = Discovery.discover(df, params).deps
            .filter(d => t.groundTruth.contains(Dep(d.lhs.toSet, d.rhs))).map(_.pfd)
          assert(validated.nonEmpty, s"T$id")
          checkProp(same(df, validated) :| s"T$id", 1)
          // no group of two or more fails the RHS cell throughout, so the
          // reference's one departure leaves these flags as they were
          assert(PFDCheck.groups(df, validated, !_.isConstantRow)
            .where($"tot" > 1 && $"majk".isNull).isEmpty, s"T$id")
        }
      }
    }
}
