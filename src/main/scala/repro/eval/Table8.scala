package repro.eval

import org.apache.spark.sql.{DataFrame, Row => SRow, SparkSession}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import scala.util.Random
import repro.core.{Cell, PFDCheck, Pats}
import repro.core.discovery.{Discovery, Params}
import repro.data.Domains

/** Reproduction harness for paper Table 8: precision and coverage of the
  * discovered *constant* PFDs for three dependencies — Full Name → Gender,
  * Fax → State, Zip → City — validated against the web-service oracles
  * (gender-api / area-code registry / uszipcode), which here are the
  * generating maps in [[Domains]] (DESIGN.md §3).
  */
object Table8 {

  final case class Row(dependency: String, nPfds: Int, precision: Double, coverage: Double)

  /** Paper's Table 8 numbers. */
  val paper: Seq[(String, Int, String, String)] = Seq(
    ("Full Name → Gender", 401, "97.1%", "54.9%"),
    ("Fax → State",        176, "98.3%", "46%"),
    ("Zip → City",          26, "100%",  "78.3%"))

  def run(spark: SparkSession, n: Int = 20000, seed: Long = 7): Seq[Row] = Seq(
    nameGender(spark, n, seed),
    faxState(spark, n, seed + 1),
    zipCity(spark, n, seed + 2))

  // --------------------------------------------------------------
  // The three dedicated two-column tables + oracle validation.
  // --------------------------------------------------------------

  private def twoColDf(spark: SparkSession, a: String, b: String,
                       rows: IndexedSeq[(String, String)]): DataFrame = {
    val schema = StructType(Seq(
      StructField(PFDCheck.TidCol, LongType, nullable = false),
      StructField(a, StringType), StructField(b, StringType)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        rows.zipWithIndex.map { case ((x, y), i) => SRow(i.toLong, x, y) }.toSeq, 8),
      schema)
  }

  /** Discover a → b on `rows` as constant PFDs only (the paper's §5.2
    * restriction) and score it: # PFDs is the tableau size, precision the
    * share of tableau rows whose (LHS constant, RHS constant) the `oracle`
    * accepts, and coverage the dependency's `DiscoveredDep.coverage` — the
    * share of rows its tableau's LHS patterns match, which discovery checks
    * against γ. No dependency: no PFDs and coverage 0.
    */
  private[eval] def measure(spark: SparkSession, dep: String, a: String, b: String,
                            rows: IndexedSeq[(String, String)],
                            oracle: (String, String) => Boolean): Row = {
    val params = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10, generalize = false)
    Discovery.cached(twoColDf(spark, a, b, rows)) { df =>
      val found = Discovery.discover(df, params).deps.find(d => d.lhs == Seq(a) && d.rhs == b)
      val rules = found.toSeq.flatMap(_.pfd.tableau).flatMap { tp =>
        for (l <- cellToken(tp.lhsCells(a)); r <- cellToken(tp.rhsCells(b))) yield (l, r)
      }
      Row(dep, rules.size,
          if (rules.isEmpty) Double.NaN else rules.count(oracle.tupled).toDouble / rules.size,
          found.fold(0.0)(_.coverage))
    }
  }

  private def cellToken(cell: Cell): Option[String] = cell match {
    case Pats(alts) => alts.headOption.flatMap(_.constrained.literalValue)
    case _          => None
  }

  private def nameGender(spark: SparkSession, n: Int, seed: Long): Row = {
    val rnd = new Random(seed)
    val rows = IndexedSeq.tabulate(n) { _ =>
      val unisex = rnd.nextDouble() < 0.06
      val (first, g) =
        if (unisex) (Domains.unisexFirst(rnd.nextInt(Domains.unisexFirst.size)),
                     if (rnd.nextBoolean()) "M" else "F")
        else if (rnd.nextBoolean()) (Domains.maleFirst(rnd.nextInt(Domains.maleFirst.size)), "M")
        else (Domains.femaleFirst(rnd.nextInt(Domains.femaleFirst.size)), "F")
      val gender = if (rnd.nextDouble() < 0.01) (if (g == "M") "F" else "M") else g
      (s"$first ${Domains.lastNames(rnd.nextInt(Domains.lastNames.size))}", gender)
    }
    // oracle: gender-api stand-in; unisex names count as errors, as in §5.2
    measure(spark, "Full Name → Gender", "full_name", "gender", rows,
      (tok, g) => Domains.genderOf(tok).contains(g))
  }

  private def faxState(spark: SparkSession, n: Int, seed: Long): Row = {
    val rnd = new Random(seed)
    val rows = IndexedSeq.tabulate(n) { _ =>
      val (area, st) = Domains.areaCodes(rnd.nextInt(Domains.areaCodes.size))
      // branch-fax noise (§5.2): 2% of faxes belong to another state
      val state = if (rnd.nextDouble() < 0.02)
        Domains.states(rnd.nextInt(Domains.states.size)) else st
      (area + Seq.fill(7)(rnd.nextInt(10)).mkString, state)
    }
    measure(spark, "Fax → State", "fax", "state", rows,
      (tok, st) => Domains.areaToState.get(tok.take(3)).contains(st) &&
        Domains.areaToState.contains(tok.take(3)))
  }

  private def zipCity(spark: SparkSession, n: Int, seed: Long): Row = {
    val rnd = new Random(seed)
    val rows = IndexedSeq.tabulate(n) { _ =>
      val (zp, city, _) = Domains.zipPrefixes(rnd.nextInt(Domains.zipPrefixes.size))
      val c = if (rnd.nextDouble() < 0.01)
        Domains.zipPrefixes(rnd.nextInt(Domains.zipPrefixes.size))._2 else city
      (zp + Seq.fill(2)(rnd.nextInt(10)).mkString, c)
    }
    measure(spark, "Zip → City", "zip", "city", rows,
      (tok, city) => Domains.zipToCity.get(tok.take(3)).contains(city))
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 8 reproduction — measured (paper in parentheses)\n"
    sb ++= ("=" * 80) + "\n"
    rows.zip(paper).foreach { case (r, (dep, pn, pp, pc)) =>
      sb ++= f"${dep}%-22s #PFDs=${r.nPfds}%4d ($pn%4d)  " +
        f"P=${r.precision * 100}%6.1f%% ($pp%s)  coverage=${r.coverage * 100}%6.1f%% ($pc%s)\n"
    }
    sb.result()
  }
}
