package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.util.Random
import repro.core.PFDCheck

/** A ground-truth embedded dependency lhs → rhs. */
final case class Dep(lhs: Set[String], rhs: String) {
  def render: String = s"${lhs.toSeq.sorted.mkString(",")} → $rhs"
}

/** One injected error: the cell (tid, attr), the dirty value written and the
  * clean value it replaced.
  */
final case class ErrorCell(tid: Long, attr: String, dirty: String, clean: String)

/** A generated dirty table plus everything the evaluation needs: the exact
  * set of genuine embedded dependencies (replacing the paper's manual
  * annotation) and the injected error cells (replacing its manual error
  * verification).
  */
final case class GeneratedTable(
    name: String,
    df: DataFrame,
    groundTruth: Set[Dep],
    errors: Seq[ErrorCell],
    nRows: Long) {
  def errorCellSet: Set[(Long, String)] = errors.map(e => (e.tid, e.attr)).toSet
}

/** Generators for the 15 evaluation tables T1–T15 (paper Table 7), with the
  * paper's column and row counts. Values are drawn from [[Domains]]; the
  * dependencies live in *partial* values (name tokens, zip/area-code
  * prefixes, id segments, date prefixes) exactly as in the paper's examples
  * (Table 3). See DESIGN.md §3 for the substitution argument.
  *
  * All generation is deterministic in (tableId, scale, seed).
  */
object DirtyData {
  import Domains._

  /** Paper row counts for T1..T15 (Table 7, "# Rows"). */
  val paperRows: Vector[Int] = Vector(
    6704, 1077, 306, 920, 9101, 2409, 812, 9536, 1200, 858,
    33727, 42715, 105748, 22485, 42226)

  /** Build table T`id` (1-based) at `scale` (1.0 = paper row count). */
  def table(spark: SparkSession, id: Int, scale: Double = 1.0, seed: Long = 0): GeneratedTable = {
    require(id >= 1 && id <= 15, s"table id $id")
    val n = math.max(60, math.round(paperRows(id - 1) * scale).toInt)
    val rnd = new Random(seed * 31 + id)
    val b = builders(id - 1)
    b(spark, n, rnd)
  }

  // ------------------------------------------------------------------
  // Shared generator helpers.
  // ------------------------------------------------------------------

  private def pick[T](rnd: Random, xs: Seq[T]): T = xs(rnd.nextInt(xs.size))

  /** Skewed pick: 60% of draws come from the first 10 entries, so that small
    * tables still accumulate pattern support ≥ K.
    */
  private def pickSkewed[T](rnd: Random, xs: Seq[T]): T =
    if (rnd.nextDouble() < 0.6) xs(rnd.nextInt(math.min(10, xs.size)))
    else xs(rnd.nextInt(xs.size))

  private def digits(rnd: Random, k: Int): String =
    Seq.fill(k)(rnd.nextInt(10)).mkString

  /** First name + gender, with ~6% unisex names whose gender is random —
    * the paper's FP source for Full Name → Gender.
    */
  private def firstAndGender(rnd: Random): (String, String) =
    if (rnd.nextDouble() < 0.06) {
      (pick(rnd, unisexFirst), if (rnd.nextBoolean()) "M" else "F")
    } else if (rnd.nextBoolean()) (pickSkewed(rnd, maleFirst), "M")
    else (pickSkewed(rnd, femaleFirst), "F")

  private def typo(rnd: Random, s: String): String =
    if (s == null || s.length < 2) s + "x"
    else rnd.nextInt(3) match {
      case 0 => s.substring(0, s.length - 1)                       // drop last char
      case 1 =>                                                    // swap two adjacent
        val i = rnd.nextInt(s.length - 1)
        s.substring(0, i) + s(i + 1) + s(i) + s.substring(i + 2)
      case _ =>                                                    // duplicate a char
        val i = rnd.nextInt(s.length)
        s.substring(0, i + 1) + s(i) + s.substring(i + 1)
    }

  /** Error spec: corrupt `attr` on a `rate` fraction of rows. */
  private final case class Err(attr: String, rate: Double,
                               corrupt: (Random, String) => String)

  private def flip(rnd: Random, g: String): String = if (g == "M") "F" else "M"

  private def wrongFrom(pool: Seq[String])(rnd: Random, v: String): String = {
    val others = pool.filterNot(_ == v)
    if (others.isEmpty) typo(rnd, v) else pick(rnd, others)
  }

  private def mixed(pool: Seq[String])(rnd: Random, v: String): String =
    if (rnd.nextBoolean()) typo(rnd, v) else wrongFrom(pool)(rnd, v)

  /** Assemble the DataFrame, inject errors, record them. */
  private def assemble(spark: SparkSession, name: String, cols: Seq[String],
                       rows: IndexedSeq[Array[String]], errs: Seq[Err],
                       gt: Set[Dep], rnd: Random): GeneratedTable = {
    val colIdx = cols.zipWithIndex.toMap
    val recorded = Vector.newBuilder[ErrorCell]
    errs.foreach { e =>
      val ci = colIdx(e.attr)
      val nErr = math.max(1, math.round(rows.size * e.rate).toInt)
      val tids = rnd.shuffle(rows.indices.toList).take(nErr)
      tids.foreach { t =>
        val clean = rows(t)(ci)
        val dirty = e.corrupt(rnd, clean)
        if (dirty != clean) {
          rows(t)(ci) = dirty
          recorded += ErrorCell(t.toLong, e.attr, dirty, clean)
        }
      }
    }
    val schema = StructType(
      StructField(PFDCheck.TidCol, LongType, nullable = false) +:
        cols.map(c => StructField(c, StringType, nullable = true)))
    val data = rows.zipWithIndex.map { case (r, i) => Row.fromSeq(i.toLong +: r.toSeq) }
    val df = spark.createDataFrame(
      spark.sparkContext.parallelize(data.toSeq, math.max(4, rows.size / 20000)), schema)
    GeneratedTable(name, df, gt, recorded.result(), rows.size.toLong)
  }

  private def deps(ps: (String, String)*): Set[Dep] =
    ps.map { case (l, r) => Dep(Set(l), r) }.toSet

  // ------------------------------------------------------------------
  // The 15 tables.
  // ------------------------------------------------------------------

  private type Builder = (SparkSession, Int, Random) => GeneratedTable

  private lazy val builders: Vector[Builder] = Vector(
    t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15)

  /** T1 (GOV): registrations — name/gender, phone/state, zip/city/state,
    * date/year. 9 columns.
    */
  private def t1: Builder = (spark, n, rnd) => {
    val cols = Seq("full_name", "gender", "phone", "state", "zip", "city",
                   "reg_date", "reg_year", "status")
    val rows = Array.tabulate(n) { _ =>
      val (first, g) = firstAndGender(rnd)
      val (zp, city, state) = pick(rnd, zipPrefixes)
      val area = pick(rnd, areaCodes.filter(_._2 == state).map(_._1))
      val year = 2010 + rnd.nextInt(8)
      val date = f"$year-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"
      Array(s"$first ${pick(rnd, lastNames)}", g, area + digits(rnd, 7), state,
            zp + digits(rnd, 2), city, date, year.toString, pick(rnd, statuses))
    }.toIndexedSeq
    assemble(spark, "T1", cols, rows,
      Seq(Err("gender", 0.010, flip), Err("city", 0.010, mixed(zipPrefixes.map(_._2))),
          Err("state", 0.005, wrongFrom(states))),
      deps("full_name" -> "gender", "phone" -> "state", "zip" -> "city",
           "zip" -> "state", "city" -> "state", "reg_date" -> "reg_year",
           "reg_year" -> "reg_date"),
      rnd)
  }

  /** T2 (GOV): business licenses — license id carries the issue year. */
  private def t2: Builder = (spark, n, rnd) => {
    val cols = Seq("license_id", "owner_name", "gender", "fax", "state", "zip",
                   "city", "issue_date", "issue_year")
    val rows = Array.tabulate(n) { i =>
      val (first, g) = firstAndGender(rnd)
      val (zp, city, state) = pick(rnd, zipPrefixes)
      val area = pick(rnd, areaCodes.filter(_._2 == state).map(_._1))
      val year = 2012 + rnd.nextInt(6)
      val date = f"$year-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"
      Array(f"LIC-$year-$i%05d", s"$first ${pick(rnd, lastNames)}", g,
            area + digits(rnd, 7), state, zp + digits(rnd, 2), city, date, year.toString)
    }.toIndexedSeq
    assemble(spark, "T2", cols, rows,
      Seq(Err("gender", 0.010, flip), Err("city", 0.010, mixed(zipPrefixes.map(_._2))),
          Err("issue_year", 0.005, wrongFrom((2012 to 2017).map(_.toString)))),
      deps("license_id" -> "issue_year", "license_id" -> "issue_date",
           "issue_year" -> "license_id", "issue_date" -> "license_id",
           "issue_year" -> "issue_date", "issue_date" -> "issue_year",
           "owner_name" -> "gender", "fax" -> "state", "zip" -> "city",
           "zip" -> "state", "city" -> "state"),
      rnd)
  }

  /** T3 (GOV): employees — the paper's "F-9-107" department-prefix example. */
  private def t3: Builder = (spark, n, rnd) => {
    val buildings = Map(
      "Finance" -> "Bldg-A", "Human Resources" -> "Bldg-A", "Engineering" -> "Bldg-B",
      "Marketing" -> "Bldg-C", "Sales" -> "Bldg-C", "Research" -> "Bldg-B",
      "Legal" -> "Bldg-D")
    val cols = Seq("emp_id", "dept", "full_name", "gender", "office_phone",
                   "state", "building")
    val rows = Array.tabulate(n) { _ =>
      val (letter, dept) = pick(rnd, deptLetters)
      val (first, g) = firstAndGender(rnd)
      val (area, state) = pick(rnd, areaCodes)
      Array(s"$letter-${rnd.nextInt(10)}-${100 + rnd.nextInt(900)}", dept,
            s"$first ${pick(rnd, lastNames)}", g, area + digits(rnd, 7), state,
            buildings(dept))
    }.toIndexedSeq
    assemble(spark, "T3", cols, rows,
      Seq(Err("gender", 0.010, flip), Err("dept", 0.010, wrongFrom(deptLetters.map(_._2))),
          Err("building", 0.007, wrongFrom(buildings.values.toSeq.distinct))),
      deps("emp_id" -> "dept", "dept" -> "emp_id", "emp_id" -> "building",
           "dept" -> "building", "full_name" -> "gender", "office_phone" -> "state"),
      rnd)
  }

  /** T4 (GOV): zip directory — geography mesh. */
  private def t4: Builder = (spark, n, rnd) => {
    val cols = Seq("zip", "city", "state", "county", "area_code", "region")
    val rows = Array.tabulate(n) { _ =>
      val (zp, city, state) = pick(rnd, zipPrefixes)
      val area = pick(rnd, areaCodes.filter(_._2 == state).map(_._1))
      Array(zp + digits(rnd, 2), city, state, s"$city County", area, regions(state))
    }.toIndexedSeq
    assemble(spark, "T4", cols, rows,
      Seq(Err("city", 0.012, mixed(zipPrefixes.map(_._2))),
          Err("state", 0.008, wrongFrom(states)),
          Err("region", 0.005, wrongFrom(regions.values.toSeq.distinct))),
      deps("zip" -> "city", "zip" -> "state", "zip" -> "county", "zip" -> "region",
           "city" -> "state", "city" -> "county", "city" -> "region",
           "county" -> "city", "county" -> "state", "county" -> "region",
           "state" -> "region", "area_code" -> "state", "area_code" -> "region"),
      rnd)
  }

  /** T5 (GOV): contracts — agency codes, dates, geography, a quantitative
    * amount column that profiling must drop.
    */
  private def t5: Builder = (spark, n, rnd) => {
    val cols = Seq("contract_id", "agency_code", "agency_name", "award_date",
                   "award_year", "amount", "state", "zip", "city")
    val rows = Array.tabulate(n) { _ =>
      val (code, agency) = pick(rnd, agencies)
      val (zp, city, state) = pick(rnd, zipPrefixes)
      val year = 2013 + rnd.nextInt(6)
      val date = f"$year-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"
      Array(s"GS-${digits(rnd, 2)}F-${digits(rnd, 4)}", code, agency, date,
            year.toString, f"${rnd.nextDouble() * 500000}%.2f", state,
            zp + digits(rnd, 2), city)
    }.toIndexedSeq
    assemble(spark, "T5", cols, rows,
      Seq(Err("agency_name", 0.008, mixed(agencies.map(_._2))),
          Err("city", 0.010, mixed(zipPrefixes.map(_._2))),
          Err("award_year", 0.005, wrongFrom((2013 to 2018).map(_.toString)))),
      deps("agency_code" -> "agency_name", "agency_name" -> "agency_code",
           "award_date" -> "award_year", "award_year" -> "award_date",
           "zip" -> "city", "zip" -> "state", "city" -> "state"),
      rnd)
  }

  /** T6 (CHE): molecules — protein-family name prefixes determine the class. */
  private def t6: Builder = (spark, n, rnd) => {
    val cols = Seq("chembl_id", "pref_name", "target_class", "molecule_type",
                   "structure_type")
    val rows = Array.tabulate(n) { i =>
      val (family, cls) = pick(rnd, proteinFamilies)
      val (mt, st) = pick(rnd, molTypes)
      Array(s"CHEMBL${10000 + i}", s"$family ${1 + rnd.nextInt(9)}", cls, mt, st)
    }.toIndexedSeq
    assemble(spark, "T6", cols, rows,
      Seq(Err("target_class", 0.010, mixed(proteinFamilies.map(_._2).distinct)),
          Err("structure_type", 0.008, wrongFrom(molTypes.map(_._2).distinct))),
      deps("pref_name" -> "target_class", "target_class" -> "pref_name",
           "molecule_type" -> "structure_type"),
      rnd)
  }

  /** T7 (CHE): assays — the id's middle segment is the assay-type code. */
  private def t7: Builder = (spark, n, rnd) => {
    val cols = Seq("assay_id", "assay_type", "type_desc", "organism", "year")
    val rows = Array.tabulate(n) { i =>
      val (code, desc) = pick(rnd, assayTypes)
      val (org, _, _) = pick(rnd, organisms)
      Array(f"A-$code-$i%05d", code, desc, org, (2008 + rnd.nextInt(10)).toString)
    }.toIndexedSeq
    assemble(spark, "T7", cols, rows,
      Seq(Err("type_desc", 0.010, mixed(assayTypes.map(_._2))),
          Err("assay_type", 0.006, wrongFrom(assayTypes.map(_._1)))),
      deps("assay_id" -> "assay_type", "assay_id" -> "type_desc",
           "assay_type" -> "type_desc", "type_desc" -> "assay_type",
           "assay_type" -> "assay_id", "type_desc" -> "assay_id"),
      rnd)
  }

  /** T8 (CHE): activities — standard type determines the units. */
  private def t8: Builder = (spark, n, rnd) => {
    val cols = Seq("activity_id", "standard_type", "standard_units",
                   "standard_value", "standard_relation")
    val rows = Array.tabulate(n) { i =>
      val (tp, units) = pick(rnd, activityTypes)
      Array((100000 + i).toString, tp, units, f"${rnd.nextDouble() * 10000}%.2f",
            pick(rnd, Seq("=", ">", "<", ">=")))
    }.toIndexedSeq
    assemble(spark, "T8", cols, rows,
      Seq(Err("standard_units", 0.010, mixed(activityTypes.map(_._2).distinct))),
      deps("standard_type" -> "standard_units"),
      rnd)
  }

  /** T9 (CHE): targets — families, organisms, tax ids. */
  private def t9: Builder = (spark, n, rnd) => {
    val cols = Seq("target_id", "pref_name", "protein_class_desc", "organism",
                   "tax_id", "species_group", "target_type")
    val rows = Array.tabulate(n) { i =>
      val (family, cls) = pick(rnd, proteinFamilies)
      val (org, tax, grp) = pick(rnd, organisms)
      Array(s"CHEMBL${2000 + i}", s"$family ${1 + rnd.nextInt(9)}", cls, org, tax,
            grp, if (rnd.nextBoolean()) "SINGLE PROTEIN" else "PROTEIN COMPLEX")
    }.toIndexedSeq
    assemble(spark, "T9", cols, rows,
      Seq(Err("protein_class_desc", 0.010, mixed(proteinFamilies.map(_._2).distinct)),
          Err("organism", 0.008, wrongFrom(organisms.map(_._1)))),
      deps("pref_name" -> "protein_class_desc", "protein_class_desc" -> "pref_name",
           "organism" -> "tax_id", "tax_id" -> "organism",
           "organism" -> "species_group", "tax_id" -> "species_group"),
      rnd)
  }

  /** T10 (CHE): documents — doi prefixes determine the journal. */
  private def t10: Builder = (spark, n, rnd) => {
    val cols = Seq("doc_id", "journal", "issn", "year", "volume", "doi", "title")
    val words = Vector("synthesis", "inhibitors", "analysis", "binding", "novel",
      "derivatives", "receptor", "activity", "kinase", "selective", "potent",
      "crystal", "structure", "design", "evaluation", "series")
    val rows = Array.tabulate(n) { i =>
      val (prefix, journal, issn) = pick(rnd, journals)
      val year = 2005 + rnd.nextInt(14)
      val title = Seq.fill(4 + rnd.nextInt(4))(pick(rnd, words)).mkString(" ")
      Array(s"DOC${30000 + i}", journal, issn, year.toString, (year - 1990).toString,
            s"$prefix.$year.${digits(rnd, 5)}", title)
    }.toIndexedSeq
    assemble(spark, "T10", cols, rows,
      Seq(Err("journal", 0.010, mixed(journals.map(_._2))),
          Err("issn", 0.006, wrongFrom(journals.map(_._3)))),
      deps("doi" -> "journal", "doi" -> "issn", "doi" -> "year",
           "journal" -> "issn", "journal" -> "doi",
           "issn" -> "journal", "issn" -> "doi",
           "year" -> "doi", "year" -> "volume", "volume" -> "year",
           "doi" -> "volume", "volume" -> "doi"),
      rnd)
  }

  /** T11 (UDW): students — ids carry the enroll year, emails carry the
    * first name and the department.
    */
  private def t11: Builder = (spark, n, rnd) => {
    val cols = Seq("student_id", "full_name", "gender", "email", "dept_code",
                   "dept_name", "enroll_year")
    val rows = Array.tabulate(n) { i =>
      val (first, g) = firstAndGender(rnd)
      val last = pick(rnd, lastNames)
      val (dc, dn) = pick(rnd, deptCodes)
      val year = 2012 + rnd.nextInt(7)
      Array(f"$year-$i%05d", s"$first $last", g,
            s"${first.toLowerCase}.${last.toLowerCase}$i@${dc.toLowerCase}.univ.edu",
            dc, dn, year.toString)
    }.toIndexedSeq
    assemble(spark, "T11", cols, rows,
      Seq(Err("gender", 0.010, flip),
          Err("dept_name", 0.008, mixed(deptCodes.map(_._2))),
          Err("enroll_year", 0.004, wrongFrom((2012 to 2018).map(_.toString)))),
      deps("full_name" -> "gender", "email" -> "gender",
           "email" -> "dept_code", "email" -> "dept_name",
           "dept_code" -> "dept_name", "dept_name" -> "dept_code",
           "dept_code" -> "email", "dept_name" -> "email",
           "full_name" -> "email", "email" -> "full_name",
           "student_id" -> "enroll_year", "enroll_year" -> "student_id"),
      rnd)
  }

  /** T12 (UDW): staff — department-prefixed ids at scale. */
  private def t12: Builder = (spark, n, rnd) => {
    val cols = Seq("emp_id", "dept", "full_name", "gender", "phone", "state",
                   "hire_date", "hire_year")
    val rows = Array.tabulate(n) { i =>
      val (letter, dept) = pick(rnd, deptLetters)
      val (first, g) = firstAndGender(rnd)
      val (area, state) = pick(rnd, areaCodes)
      val year = 2000 + rnd.nextInt(19)
      val date = f"$year-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"
      Array(s"$letter-${rnd.nextInt(10)}-${10000 + i}", dept,
            s"$first ${pick(rnd, lastNames)}", g, area + digits(rnd, 7), state,
            date, year.toString)
    }.toIndexedSeq
    assemble(spark, "T12", cols, rows,
      Seq(Err("gender", 0.008, flip), Err("dept", 0.008, wrongFrom(deptLetters.map(_._2))),
          Err("state", 0.005, wrongFrom(states))),
      deps("emp_id" -> "dept", "dept" -> "emp_id", "full_name" -> "gender",
           "phone" -> "state", "hire_date" -> "hire_year", "hire_year" -> "hire_date"),
      rnd)
  }

  /** T13 (UDW): enrollments — course codes carry the department; the
    * largest table (105k rows).
    */
  private def t13: Builder = (spark, n, rnd) => {
    val cols = Seq("record_id", "course_code", "dept_code", "dept_name", "term",
                   "year", "grade")
    val rows = Array.tabulate(n) { i =>
      val (dc, dn) = pick(rnd, deptCodes)
      val year = 2014 + rnd.nextInt(5)
      Array((100000 + i).toString, s"$dc-${101 + rnd.nextInt(399)}", dc, dn,
            s"$year-${pick(rnd, seasons)}", year.toString, pick(rnd, grades))
    }.toIndexedSeq
    assemble(spark, "T13", cols, rows,
      Seq(Err("dept_name", 0.008, mixed(deptCodes.map(_._2))),
          Err("year", 0.004, wrongFrom((2014 to 2018).map(_.toString)))),
      deps("course_code" -> "dept_code", "course_code" -> "dept_name",
           "dept_code" -> "dept_name", "dept_name" -> "dept_code",
           "dept_code" -> "course_code", "dept_name" -> "course_code",
           "term" -> "year", "year" -> "term"),
      rnd)
  }

  /** T14 (UDW): alumni — name/gender and geography at scale. */
  private def t14: Builder = (spark, n, rnd) => {
    val cols = Seq("alum_id", "full_name", "gender", "zip", "city", "state",
                   "phone", "grad_year", "degree")
    val rows = Array.tabulate(n) { i =>
      val (first, g) = firstAndGender(rnd)
      val (zp, city, state) = pick(rnd, zipPrefixes)
      val area = pick(rnd, areaCodes.filter(_._2 == state).map(_._1))
      Array((500000 + i).toString, s"$first ${pick(rnd, lastNames)}", g,
            zp + digits(rnd, 2), city, state, area + digits(rnd, 7),
            (1990 + rnd.nextInt(29)).toString, pick(rnd, degrees))
    }.toIndexedSeq
    assemble(spark, "T14", cols, rows,
      Seq(Err("gender", 0.010, flip), Err("city", 0.010, mixed(zipPrefixes.map(_._2))),
          Err("state", 0.005, wrongFrom(states))),
      deps("full_name" -> "gender", "zip" -> "city", "zip" -> "state",
           "city" -> "state", "phone" -> "state"),
      rnd)
  }

  /** T15 (UDW): donors — "Last, First M." names (gendered token at position
    * 1) and fax numbers with 2% unrecorded branch-fax noise (the paper's
    * stated precision hazard for Fax → State).
    */
  private def t15: Builder = (spark, n, rnd) => {
    val cols = Seq("donor_id", "name", "gender", "zip", "state", "fax", "fund_code")
    val rows = Array.tabulate(n) { i =>
      val (first, g) = firstAndGender(rnd)
      val (zp, _, state) = pick(rnd, zipPrefixes)
      // branch-fax noise: 2% of rows carry a fax from another state
      val faxState = if (rnd.nextDouble() < 0.02) pick(rnd, states) else state
      val area = pick(rnd, areaCodes.filter(_._2 == faxState).map(_._1))
      val initial = ('A' + rnd.nextInt(26)).toChar
      Array((700000 + i).toString,
            s"${pick(rnd, lastNames)}, $first $initial.", g, zp + digits(rnd, 2),
            state, area + digits(rnd, 7),
            s"${pick(rnd, funds)._1}-${digits(rnd, 3)}")
    }.toIndexedSeq
    assemble(spark, "T15", cols, rows,
      Seq(Err("gender", 0.010, flip), Err("state", 0.008, wrongFrom(states))),
      deps("name" -> "gender", "zip" -> "state", "fax" -> "state"),
      rnd)
  }
}
