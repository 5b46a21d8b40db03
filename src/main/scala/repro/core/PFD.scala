package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** A tableau cell: the wildcard `⊥` or a disjunction of constrained patterns.
  *
  * The disjunction (`Pats` with several alternatives) exists for the
  * LHS-Generalization axiom, which unions the patterns of two PFDs; discovery
  * emits single-pattern cells.
  */
sealed trait Cell {
  /** t[A] ↦ tp[A]: wildcards match everything. */
  def matches(s: String): Boolean
  /** The equivalence key of `s` under this cell, if `s` matches.
    * For `⊥` on a LHS/RHS the key is the full value (wildcard agreement);
    * for patterns it is the constrained portion of the first alternative
    * that matches.
    */
  def key(s: String): Option[String]
  def render: String
}

/** The unnamed variable `⊥`. */
case object Wildcard extends Cell {
  def matches(s: String): Boolean = s != null
  def key(s: String): Option[String] = Option(s)
  def render: String = "⊥"
}

/** One or more constrained-pattern alternatives. */
final case class Pats(alts: List[ConstrainedPattern]) extends Cell {
  require(alts.nonEmpty, "empty pattern cell")
  def matches(s: String): Boolean = alts.exists(_.matches(s))
  def key(s: String): Option[String] =
    alts.iterator.map(_.extract(s)).collectFirst { case Some(k) => k }
  /** All alternatives literal-constrained ⇒ single-tuple enforceable. */
  def isConstant: Boolean = alts.forall(_.isConstant)
  def render: String = alts.map(_.render).mkString(" ∪ ")
}

object Cell {
  def apply(cp: ConstrainedPattern): Cell = Pats(List(cp))
  /** Union of two cells (LHS-Generalization). `⊥` absorbs. */
  def union(a: Cell, b: Cell): Cell = (a, b) match {
    case (Wildcard, _) | (_, Wildcard) => Wildcard
    case (Pats(x), Pats(y))            => Pats((x ++ y).distinct)
  }
}

/** One tableau tuple t_p: a cell per attribute of X ∪ Y. When an attribute
  * appears on both sides its LHS and RHS cells are kept separately
  * (`lhsCells` / `rhsCells`), matching the paper's A^L / A^R convention.
  */
final case class PTuple(lhsCells: Map[String, Cell], rhsCells: Map[String, Cell]) {
  def render: String =
    lhsCells.toSeq.sortBy(_._1).map { case (a, c) => s"$a=${c.render}" }.mkString(", ") +
      " ‖ " +
      rhsCells.toSeq.sortBy(_._1).map { case (a, c) => s"$a=${c.render}" }.mkString(", ")

  /** Single-tuple enforceable iff every RHS cell is constant-constrained. */
  def isConstantRow: Boolean = rhsCells.values.forall {
    case p: Pats => p.isConstant
    case _       => false
  }
}

/** A pattern functional dependency ψ: R(X → Y, Tp) (§2.1). */
final case class PFD(lhs: Seq[String], rhs: Seq[String], tableau: Seq[PTuple]) {
  require(lhs.nonEmpty && rhs.nonEmpty, "PFD needs LHS and RHS attributes")

  /** Trivial PFDs (A ∈ X appearing on the RHS with the identical cell) are
    * ignored by discovery; kept here only for inference tests.
    */
  def embeddedDep: (Seq[String], Seq[String]) = (lhs, rhs)

  def render: String =
    s"(${lhs.mkString(",")} → ${rhs.mkString(",")}, {${tableau.map(_.render).mkString("; ")}})"

  override def toString: String = render
}

object PFD {
  /** Normal form constructor: single RHS attribute. */
  def normal(lhs: Seq[String], rhs: String, tableau: Seq[PTuple]): PFD =
    PFD(lhs, Seq(rhs), tableau)
}

/** DataFrame-based satisfaction and violation checking (§2.2).
  *
  * Semantics per tableau tuple t_p:
  *  - a data tuple *participates* if it matches every LHS cell;
  *  - participating tuples are grouped by their LHS equivalence keys;
  *  - within a group, every tuple must match every RHS cell and all tuples
  *    must share the same RHS keys;
  *  - additionally, when the row is constant (literal RHS), a single
  *    participating tuple already violates if its RHS does not match
  *    (single-tuple semantics, Example 6).
  */
object PFDCheck {

  val TidCol = "__tid"

  /** Ensure a stable row-id column for violation reporting. */
  def withTid(df: DataFrame): DataFrame =
    if (df.columns.contains(TidCol)) df
    else df.withColumn(TidCol, monotonically_increasing_id())

  private def matchCol(cell: Cell, attr: String): Column = {
    val c = cell
    udf((s: String) => s != null && c.matches(s)).apply(col(attr))
  }

  private def keyCol(cell: Cell, attr: String): Column = {
    val c = cell
    udf((s: String) => if (s == null) None else c.key(s)).apply(col(attr))
  }

  /** Tuples violating tableau row `tp` of `pfd`, as (tid, attr) pairs over
    * the RHS attributes, plus a repair suggestion when the RHS is constant.
    * Output columns: __tid, attr, value, suggestion (nullable).
    */
  def rowViolations(df0: DataFrame, pfd: PFD, tp: PTuple): DataFrame = {
    val spark = df0.sparkSession
    import spark.implicits._
    val df = withTid(df0)

    // Participation + LHS key.
    var d = df
    pfd.lhs.foreach { a => d = d.withColumn(s"__m_$a", matchCol(tp.lhsCells(a), a)) }
    d = d.filter(pfd.lhs.map(a => col(s"__m_$a")).reduce(_ && _))
    pfd.lhs.foreach { a => d = d.withColumn(s"__k_$a", keyCol(tp.lhsCells(a), a)) }
    d = d.withColumn("__lkey", array(pfd.lhs.map(a => col(s"__k_$a")): _*))

    // RHS match flags + keys.
    pfd.rhs.foreach { b =>
      d = d.withColumn(s"__rm_$b", matchCol(tp.rhsCells(b), b))
           .withColumn(s"__rk_$b", keyCol(tp.rhsCells(b), b))
    }
    d = d.cache()

    val isConstant = tp.isConstantRow
    val out = pfd.rhs.map { b =>
      val suggestion: Option[String] = tp.rhsCells(b) match {
        case Pats(List(cp)) if cp.isConstant && cp.constrainsWhole =>
          cp.constrained.literalValue
        case _ => None
      }
      if (isConstant) {
        // Single-tuple semantics: participating tuples must match the RHS.
        d.filter(!col(s"__rm_$b"))
          .select(col(TidCol), lit(b) as "attr", col(b) as "value",
                  lit(suggestion.orNull) as "suggestion")
      } else {
        // Pair semantics: within a group of ≥2 with an agreeing majority,
        // tuples failing the match or deviating from the majority key violate.
        val grouped = d.groupBy(col("__lkey"), col(s"__rk_$b"))
          .agg(count(lit(1)) as "__cnt")
        val w = org.apache.spark.sql.expressions.Window.partitionBy("__lkey")
        val majority = grouped
          .withColumn("__total", sum("__cnt").over(w))
          .withColumn("__rank", row_number().over(
            w.orderBy(col("__cnt").desc, col(s"__rk_$b").asc_nulls_last)))
          .filter(col("__rank") === 1 && col("__total") > 1)
          .select(col("__lkey"), col(s"__rk_$b") as "__majkey", col("__cnt") as "__majcnt",
                  col("__total"))
        d.join(majority, "__lkey")
          .filter(!col(s"__rm_$b") ||
                  col(s"__rk_$b").isNull ||
                  col(s"__rk_$b") =!= col("__majkey"))
          // a 50/50 split has no majority witness: flag only strict minorities
          .filter(col("__majcnt") * 2 > col("__total"))
          .select(col(TidCol), lit(b) as "attr", col(b) as "value",
                  lit(null: String) as "suggestion")
      }
    }
    out.reduce(_ unionByName _).distinct()
  }

  /** All violations of `pfd` over `df` (union across tableau rows). */
  def violations(df: DataFrame, pfd: PFD): DataFrame =
    pfd.tableau.map(tp => rowViolations(df, pfd, tp)).reduce(_ unionByName _).distinct()

  /** T ⊨ ψ — strict satisfaction: no tuple pair (or single tuple, for
    * constant rows) violates any tableau row. Note: unlike `violations`,
    * which flags only minority tuples for *repair*, satisfaction fails on
    * any disagreement within an LHS group.
    */
  def satisfies(df0: DataFrame, pfd: PFD): Boolean = {
    val df = withTid(df0)
    pfd.tableau.forall { tp =>
      var d = df
      pfd.lhs.foreach { a => d = d.withColumn(s"__m_$a", matchCol(tp.lhsCells(a), a)) }
      d = d.filter(pfd.lhs.map(a => col(s"__m_$a")).reduce(_ && _))
      pfd.lhs.foreach { a => d = d.withColumn(s"__k_$a", keyCol(tp.lhsCells(a), a)) }
      d = d.withColumn("__lkey", array(pfd.lhs.map(a => col(s"__k_$a")): _*))
      pfd.rhs.foreach { b =>
        d = d.withColumn(s"__rm_$b", matchCol(tp.rhsCells(b), b))
             .withColumn(s"__rk_$b", keyCol(tp.rhsCells(b), b))
      }
      d = d.cache()
      val constantOk =
        if (tp.isConstantRow)
          pfd.rhs.forall(b => d.filter(!col(s"__rm_$b")).isEmpty)
        else true
      val pairOk = pfd.rhs.forall { b =>
        d.groupBy("__lkey")
          .agg(countDistinct(col(s"__rk_$b")) as "nk",
               max(when(col(s"__rm_$b"), 0).otherwise(1)) as "anyFail",
               count(lit(1)) as "n")
          .filter((col("n") > 1) && (col("nk") > 1 || col("anyFail") === 1))
          .isEmpty
      }
      constantOk && pairOk
    }
  }
}
