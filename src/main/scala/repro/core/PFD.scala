package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable

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

  def render: String =
    s"(${lhs.mkString(",")} → ${rhs.mkString(",")}, {${tableau.map(_.render).mkString("; ")}})"

  override def toString: String = render
}

object PFD {
  /** The FD X → B as a PFD: one tableau row whose cells are all `⊥` (§2). */
  def fd(lhs: Seq[String], rhs: String): PFD =
    PFD(lhs, Seq(rhs), Seq(PTuple(lhs.map(_ -> Wildcard).toMap, Map(rhs -> Wildcard))))
}

/** PFD evaluation (§2.2), as one kernel of two queries over any list of
  * PFDs on a DataFrame, and one driver function over values already held in
  * memory. It caches nothing, and every DataFrame it returns is lazy.
  *
  * Semantics per tableau row t_p: a tuple *participates* if it matches every
  * LHS cell. A constant row (literal RHS) is violated by a single
  * participating tuple whose RHS fails the row's cell (single-tuple
  * semantics, Example 6) — `singleTuple` finds these in one scan. Pair
  * semantics group the participating tuples by their LHS equivalence keys;
  * `groups` returns one row per LHS group with its size, its majority RHS
  * key ([[majorityOf]], taken among the tuples that match the RHS cell) and
  * its members, from one hash aggregation. A null matches no cell, `⊥`
  * included. Satisfaction (`unsatisfied`) and repair candidates (`flagged`,
  * for `violations` and `ErrorDetector`) are selections over these two; the
  * FDep and CFDFinder baselines evaluate their FDs as all-`⊥` PFDs through
  * them. The generalization check (`validation`) counts the same LHS
  * groups on the driver, over interned [[Values]], with the same majority
  * rule and no Spark job.
  */
object PFDCheck {

  val TidCol = "__tid"

  /** Ensure a stable row-id column for violation reporting. */
  def withTid(df: DataFrame): DataFrame =
    if (df.columns.contains(TidCol)) df
    else df.withColumn(TidCol, monotonically_increasing_id())

  /** The columns `pfds` read as one string array column, and per tableau
    * row that `rows` selects its (PFD index, row index), its LHS checks
    * (position, cell) and its RHS checks (attribute, position, cell).
    */
  private def compile(pfds: Seq[PFD], rows: PTuple => Boolean) = {
    val attrs = pfds.flatMap(p => p.lhs ++ p.rhs).distinct
    val at = attrs.zipWithIndex.toMap
    val checks = for {
      (pfd, i) <- pfds.zipWithIndex
      (tp, r) <- pfd.tableau.zipWithIndex if rows(tp)
    } yield (i, r, pfd.lhs.map(a => (at(a), tp.lhsCells(a))),
             pfd.rhs.map(b => (b, at(b), tp.rhsCells(b))))
    (array(attrs.map(a => col(a).cast("string")): _*), checks)
  }

  /** Single-tuple violations of the constant rows of `pfds`, in one scan: a
    * UDF returns each (PFD `pfd`, row `row`, RHS attribute `attr`) a tuple
    * violates, exploded into rows. With no constant row the optimizer plans
    * no scan. Columns: __tid, pfd, row, attr, value.
    */
  def singleTuple(df: DataFrame, pfds: Seq[PFD]): DataFrame = {
    val (vals, checks) = compile(pfds, _.isConstantRow)
    val violated = udf { (vs: Seq[String]) =>
      for {
        (i, r, lhs, rhs) <- checks
        if lhs.forall { case (j, c) => vs(j) != null && c.matches(vs(j)) }
        (b, bi, c) <- rhs if !(vs(bi) != null && c.matches(vs(bi)))
      } yield (i, r, b, vs(bi))
    }
    withTid(df).where(lit(checks.nonEmpty))
      .select(col(TidCol), explode(violated(vals)) as "v")
      .select(col(TidCol), col("v._1") as "pfd", col("v._2") as "row", col("v._3") as "attr",
              col("v._4") as "value")
  }

  /** The tuples that participate in the tableau rows of `pfds` that `rows`
    * selects, keyed by a UDF once per (PFD `pfd`, row `row`, RHS attribute
    * `attr`): the LHS key array `lkey`, the RHS key `rk` (null when the RHS
    * cell fails) and `value`. Columns: __tid, pfd, row, attr, lkey, rk, value.
    */
  private[core] def keyed(df: DataFrame, pfds: Seq[PFD], rows: PTuple => Boolean): DataFrame = {
    val (vals, checks) = compile(pfds, rows)
    val keys = udf { (vs: Seq[String]) =>
      checks.flatMap { case (i, r, lhs, rhs) =>
        val lkey = lhs.map { case (j, c) => Option(vs(j)).flatMap(c.key) }
        if (lkey.exists(_.isEmpty)) Nil
        else rhs.map { case (b, bi, c) =>
          (i, r, b, lkey.flatten, Option(vs(bi)).flatMap(c.key).orNull, vs(bi))
        }
      }
    }
    withTid(df)
      .select(col(TidCol), explode(keys(vals)) as "k")
      .select(col(TidCol), col("k._1") as "pfd", col("k._2") as "row", col("k._3") as "attr",
              col("k._4") as "lkey", col("k._5") as "rk", col("k._6") as "value")
  }

  /** The majority key of one LHS group's RHS keys `rks` and its count. Null
    * keys (tuples failing the RHS cell) are skipped; of the keys with the
    * highest count the least in code-point order wins, as in Spark's string
    * order. `(null, 0)` when every key is null.
    */
  def majorityOf(rks: Iterable[String]): (String, Long) = {
    val counts = mutable.HashMap.empty[String, Long]
    rks.foreach(k => if (k != null) counts(k) = counts.getOrElse(k, 0L) + 1)
    majorityOfCounts(counts)
  }

  /** [[majorityOf]] over the distinct non-null keys of a group, each with
    * its count.
    */
  def majorityOfCounts(counts: Iterable[(String, Long)]): (String, Long) =
    counts.foldLeft((null: String, 0L)) { case (best @ (bk, bc), (k, c)) =>
      if (c > bc || c == bc && CodePoints.compare(k, bk) < 0) (k, c) else best
    }

  /** Pair semantics for the tableau rows of `pfds` that `rows` selects, in
    * one hash aggregation of the [[keyed]] tuples by (pfd, row, attr, lkey):
    * one row per LHS group, with its size `tot`, its [[majorityOf]] key
    * `majk` and count `majc`, and its `members` (structs of __tid, rk,
    * value). `majk` is null only when every member fails the RHS cell. A
    * group's members are collected in one task, so the largest group must
    * fit in one task's memory.
    */
  def groups(df: DataFrame, pfds: Seq[PFD], rows: PTuple => Boolean): DataFrame = {
    val majorityUdf = udf((rks: Seq[String]) => majorityOf(rks))
    keyed(df, pfds, rows)
      .groupBy("pfd", "row", "attr", "lkey")
      // structs, not bare keys: collect_list drops nulls, and a null rk counts
      .agg(collect_list(struct(col(TidCol), col("rk"), col("value"))) as "members")
      .withColumn("m", majorityUdf(col("members.rk")))
      .select(col("pfd"), col("row"), col("attr"), col("lkey"),
              size(col("members")).cast("long") as "tot", col("m._1") as "majk",
              col("m._2") as "majc", col("members"))
  }

  /** Repair candidates of `pfds` (§5.3): single-tuple violations of the
    * constant rows, and for the other rows each tuple off the strict-majority
    * RHS key of its LHS group of two or more. A 50/50 split has no majority
    * witness, so it flags nothing. Columns: __tid, pfd, row, attr, value,
    * pair (whether pair semantics flagged the cell).
    */
  def flagged(df: DataFrame, pfds: Seq[PFD]): DataFrame = {
    val single = singleTuple(df, pfds).withColumn("pair", lit(false))
    // planning the group query costs more than running the single-tuple
    // scan on a small table, so it is only built when some row needs it
    if (pfds.forall(_.tableau.forall(_.isConstantRow))) single
    else single.unionByName(groups(df, pfds, !_.isConstantRow)
      .where(col("tot") > 1 && col("majc") * 2 > col("tot"))
      .select(col("pfd"), col("row"), col("attr"), col("majk"), explode(col("members")) as "m")
      .where(col("m.rk").isNull || col("m.rk") =!= col("majk"))
      .select(col(s"m.$TidCol") as TidCol, col("pfd"), col("row"), col("attr"),
              col("m.value") as "value", lit(true) as "pair"))
  }

  /** Repair candidates of `pfd` over `df`, with the RHS literal as
    * suggestion when a constant row's cell is the whole value. Output
    * columns: __tid, attr, value, suggestion (nullable).
    */
  def violations(df: DataFrame, pfd: PFD): DataFrame = {
    val suggest = udf { (r: Int, b: String) =>
      pfd.tableau(r).rhsCells(b) match {
        case Pats(List(cp)) if cp.constrainsWhole => cp.constrained.literalValue
        case _                                    => None
      }
    }
    flagged(df, Seq(pfd))
      .select(col(TidCol), col("attr"), col("value"),
              when(!col("pair"), suggest(col("row"), col("attr"))) as "suggestion")
      .distinct()
  }

  /** The indexes into `pfds` (column `pfd`) of the PFDs that `df` does not
    * satisfy, as one lazy selection. T ⊨ ψ — strict satisfaction — when no
    * single tuple violates a constant row, and in no LHS group of two or
    * more tuples under any row does a tuple fail the RHS or disagree with
    * another. Unlike `flagged`, which flags only minority tuples for repair,
    * satisfaction fails on any disagreement within an LHS group.
    */
  def unsatisfied(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    singleTuple(df, pfds).select("pfd")
      .union(groups(df, pfds, _ => true)
        .where(col("tot") > 1 && col("majc") < col("tot")).select("pfd"))
      .distinct()

  /** T ⊨ ψ, by [[unsatisfied]]. */
  def satisfies(df: DataFrame, pfd: PFD): Boolean = unsatisfied(df, Seq(pfd)).isEmpty

  /** Every tuple's values of some attributes, held on the driver and
    * interned: `ids(a)(t)` indexes `strings` with tuple t's value of
    * attribute `a` cast to string, or is -1 where that value is null. Every
    * array of `ids` has one entry per tuple.
    */
  final case class Values(ids: Map[String, Array[Int]], strings: Array[String])

  /** (matched, violations) of each PFD of `pfds` over `values`, on the
    * driver: the tuples that participate in a tableau row, and those off
    * their LHS group's [[majorityOfCounts]] RHS key: failing the RHS cell or
    * holding another key (a tie counts one side). A tuple participates when
    * each LHS value is non-null and has a key under its cell; its LHS key
    * is the sequence of those keys, and its RHS key is none when the RHS
    * value is null or fails the cell. Each cell's key is extracted once
    * per distinct value, and tuples are grouped by int key ids. A PFD that
    * no tuple matches counts (0, 0).
    */
  def validation(values: Values, pfds: Seq[PFD]): Seq[(Long, Long)] = {
    val n = values.ids.valuesIterator.map(_.length).nextOption().getOrElse(0)
    /** Per tuple the id of its key under `cell` (-1 for none), and the keys. */
    def keyIds(a: String, cell: Cell): (Array[Int], mutable.ArrayBuffer[String]) = {
      val ids = values.ids(a)
      val keys = mutable.ArrayBuffer.empty[String]
      val keyId = mutable.HashMap.empty[String, Int]
      val ofValue = Array.fill(values.strings.length)(-2) // -2: not extracted yet
      val out = ids.map { v =>
        if (v >= 0 && ofValue(v) == -2)
          ofValue(v) = cell.key(values.strings(v))
            .fold(-1)(k => keyId.getOrElseUpdate(k, { keys += k; keys.size - 1 }))
        if (v < 0) -1 else ofValue(v)
      }
      (out, keys)
    }
    pfds.map { pfd =>
      var matched, violations = 0L
      for (tp <- pfd.tableau; b <- pfd.rhs) {
        // dense LHS group ids, folding in one attribute's key ids at a time
        val group = new Array[Int](n)
        for (a <- pfd.lhs) {
          val (k, _) = keyIds(a, tp.lhsCells(a))
          val ids = mutable.LongMap.empty[Int]
          for (t <- 0 until n)
            group(t) = if (group(t) < 0 || k(t) < 0) -1
                       else ids.getOrElseUpdate(group(t).toLong << 32 | k(t), ids.size)
        }
        // (group, RHS key + 1) per participating tuple, sorted into runs
        val (rk, rhsKeys) = keyIds(b, tp.rhsCells(b))
        val codes = Array.range(0, n).filter(group(_) >= 0)
          .map(t => group(t).toLong << 32 | (rk(t) + 1))
        java.util.Arrays.sort(codes)
        var i = 0
        while (i < codes.length) {
          val g = codes(i) >>> 32
          val counts = mutable.ArrayBuffer.empty[(String, Long)]
          val from = i
          while (i < codes.length && (codes(i) >>> 32) == g) {
            val j = i
            while (i < codes.length && codes(i) == codes(j)) i += 1
            val key = (codes(j) & 0xffffffffL).toInt - 1
            if (key >= 0) counts += rhsKeys(key) -> (i - j).toLong
          }
          matched += i - from
          violations += i - from - majorityOfCounts(counts)._2
        }
      }
      (matched, violations)
    }
  }
}
