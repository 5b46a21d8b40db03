package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, monotonically_increasing_id}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

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

/** PFD evaluation (§2.2), as one driver kernel over the tuples' values held
  * in memory as interned ids ([[Values]]), which [[collect]] takes from a
  * DataFrame in one Spark job.
  *
  * Semantics per tableau row t_p and RHS attribute B: a tuple
  * *participates* when each of its LHS values is non-null and has a key
  * under its cell, and its LHS key is the sequence of those keys. Its RHS
  * key is none when its B value is null or fails the B cell; a null matches
  * no cell, `⊥` included. [[evaluate]] groups the participating tuples by
  * LHS key and gives each group its size `tot`, its majority RHS key `majk`
  * ([[majorityOfCounts]]) and that key's count `majc`. A constant row
  * (literal RHS) is violated by a single participating tuple with no RHS
  * key (single-tuple semantics, Example 6). Repair candidates (`flagged`,
  * for `violations` and `ErrorDetector`), satisfaction (`unsatisfied`, for
  * `satisfies` and FDep) and the generalization check (`validation`) are
  * selections over the evaluation, and CFDFinder reads its groups.
  */
object PFDCheck {

  val TidCol = "__tid"

  /** Ensure a stable row-id column for violation reporting. */
  def withTid(df: DataFrame): DataFrame =
    if (df.columns.contains(TidCol)) df
    else df.withColumn(TidCol, monotonically_increasing_id())

  /** Every tuple's values of some attributes, held on the driver and
    * interned: `ids(a)(t)` indexes `strings` with tuple t's value of
    * attribute `a` cast to string, or is -1 where that value is null. Every
    * array of `ids` has one entry per tuple.
    */
  final case class Values(ids: Map[String, Array[Int]], strings: Array[String]) {
    /** The number of tuples. */
    def size: Int = ids.valuesIterator.map(_.length).nextOption().getOrElse(0)
    /** Tuple t's value of attribute `a`, or null. */
    def apply(a: String, t: Int): String = if (ids(a)(t) < 0) null else strings(ids(a)(t))
  }

  /** `df`'s tuples, each as its `__tid` ([[withTid]]) and its values of
    * `attrs` cast to string by Spark, from one collect: tuple t is the t-th
    * row collected. The detection's and each baseline's one Spark job.
    */
  def collect(df: DataFrame, attrs: Seq[String]): (Array[Any], Values) = {
    val rows = withTid(df).select(col(TidCol) +: attrs.map(col(_).cast("string")): _*).collect()
    val strings = mutable.ArrayBuffer.empty[String]
    val ids = attrs.zipWithIndex.map { case (a, j) =>
      val id = mutable.HashMap.empty[String, Int]
      a -> rows.map { r =>
        if (r.isNullAt(j + 1)) -1
        else id.getOrElseUpdate(r.getString(j + 1), { strings += r.getString(j + 1); strings.size - 1 })
      }
    }
    (rows.map(_.get(0)), Values(ids.toMap, strings.toArray))
  }

  /** `df`'s columns but `__tid`, as [[Values]] by [[collect]]. */
  def values(df: DataFrame): Values = collect(df, df.columns.filterNot(_ == TidCol).toSeq)._2

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

  /** Row `row` of the tableau of `pfds(pfd)`, evaluated for its RHS
    * attribute `attr` over n tuples. `group(t)` is tuple t's LHS group, a
    * dense id, or -1 when t does not participate; `rk(t)` indexes `rhsKeys`
    * with t's RHS key, or is -1 for none. Of the `tot(g)` tuples of group
    * g, `majc(g)` hold its majority key `majk(g)` (null and 0 when none has
    * a key).
    */
  final class Eval(val pfd: Int, val row: Int, val attr: String, val constant: Boolean,
                   val group: Array[Int], rk: Array[Int], rhsKeys: Array[String],
                   val tot: Array[Int], val majk: Array[String], val majc: Array[Int],
                   lhsKeys: Seq[(Array[Int], Array[String])]) {
    private lazy val first = {
      val f = new Array[Int](tot.length)
      for (t <- group.indices.reverse if group(t) >= 0) f(group(t)) = t
      f
    }
    /** Group g's LHS key, one key per LHS attribute. */
    def lkey(g: Int): Seq[String] = lhsKeys.map { case (k, keys) => keys(k(first(g))) }
    /** Whether tuple t participates and violates the row: with no RHS key
      * under a constant row, and off the strict majority key of its group
      * of two or more under the others. A 50/50 split has no majority
      * witness, so it flags nothing.
      */
    def flags(t: Int): Boolean = group(t) >= 0 && {
      val g = group(t)
      if (constant) rk(t) < 0
      else tot(g) > 1 && 2L * majc(g) > tot(g) && (rk(t) < 0 || rhsKeys(rk(t)) != majk(g))
    }
  }

  /** Each tableau row of `pfds` evaluated over `values`, one [[Eval]] per
    * (PFD, row, RHS attribute), lazily and in that order. Each cell's key
    * is extracted once per distinct value, and tuples are grouped by int
    * key ids, so two LHS keys never collide. Consecutive rows with the same
    * LHS cells share one grouping.
    */
  def evaluate(values: Values, pfds: Seq[PFD]): Iterator[Eval] = {
    val n = values.size
    /** Per tuple the id of its key under `cell` (-1 for none), and the keys. */
    def keyIds(a: String, cell: Cell): (Array[Int], Array[String]) = {
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
      (out, keys.toArray)
    }
    var lhsCells = Seq.empty[(String, Cell)]
    var lhsKeys = Seq.empty[(Array[Int], Array[String])]
    var group = Array.empty[Int]
    var nGroups = 0
    for {
      (pfd, i) <- pfds.iterator.zipWithIndex
      (tp, r) <- pfd.tableau.iterator.zipWithIndex
      b <- pfd.rhs.iterator
    } yield {
      val cells = pfd.lhs.map(a => a -> tp.lhsCells(a))
      if (cells != lhsCells) {
        // dense LHS group ids, folding in one attribute's key ids at a time
        lhsCells = cells
        lhsKeys = cells.map { case (a, c) => keyIds(a, c) }
        group = new Array[Int](n)
        val ids = mutable.LongMap.empty[Int]
        for ((k, _) <- lhsKeys) {
          ids.clear()
          for (t <- 0 until n)
            group(t) = if (group(t) < 0 || k(t) < 0) -1
                       else ids.getOrElseUpdate(group(t).toLong << 32 | k(t), ids.size)
        }
        nGroups = ids.size
      }
      // (group, RHS key + 1) per participating tuple, sorted into runs
      val (rk, rhsKeys) = keyIds(b, tp.rhsCells(b))
      val codes = Array.range(0, n).filter(group(_) >= 0)
        .map(t => group(t).toLong << 32 | (rk(t) + 1))
      java.util.Arrays.sort(codes)
      val tot, majc = new Array[Int](nGroups)
      val majk = new Array[String](nGroups)
      var j = 0
      while (j < codes.length) {
        val g = (codes(j) >>> 32).toInt
        val counts = mutable.ArrayBuffer.empty[(String, Long)]
        val from = j
        while (j < codes.length && (codes(j) >>> 32) == g) {
          val k = j
          while (j < codes.length && codes(j) == codes(k)) j += 1
          val key = (codes(k) & 0xffffffffL).toInt - 1
          if (key >= 0) counts += rhsKeys(key) -> (j - k).toLong
        }
        tot(g) = j - from
        val (mk, mc) = majorityOfCounts(counts)
        majk(g) = mk
        majc(g) = mc.toInt
      }
      new Eval(i, r, b, tp.isConstantRow, group, rk, rhsKeys, tot, majk, majc, lhsKeys)
    }
  }

  /** A repair candidate: tuple `tuple`'s value `value` of RHS attribute
    * `attr`, flagged under row `row` of PFD `pfd`, by pair semantics or by
    * a single-tuple check.
    */
  final case class Flag(tuple: Int, pfd: Int, row: Int, attr: String, value: String, pair: Boolean)

  /** Repair candidates of `pfds` over `values` (§5.3), by [[Eval.flags]]:
    * single-tuple violations of the constant rows, and for the other rows
    * each tuple off the strict-majority RHS key of its LHS group.
    */
  def flagged(values: Values, pfds: Seq[PFD]): Seq[Flag] =
    evaluate(values, pfds).flatMap(e => e.group.indices.filter(e.flags)
      .map(t => Flag(t, e.pfd, e.row, e.attr, values(e.attr, t), pair = !e.constant))).toSeq

  /** The indexes into `pfds` of the PFDs that `values` does not satisfy.
    * T ⊨ ψ — strict satisfaction — when no single tuple violates a
    * constant row, and in no LHS group of two or more tuples under any row
    * does a tuple fail the RHS or disagree with another. Unlike `flagged`,
    * which flags only minority tuples for repair, satisfaction fails on any
    * disagreement within an LHS group. A group short of its size in
    * majority keys has a tuple that fails the RHS or disagrees, and under
    * a constant row that is a violation even for a group of one.
    */
  def unsatisfied(values: Values, pfds: Seq[PFD]): Set[Int] =
    evaluate(values, pfds)
      .filter(e => e.tot.indices.exists(g => e.majc(g) < e.tot(g) && (e.constant || e.tot(g) > 1)))
      .map(_.pfd).toSet

  /** T ⊨ ψ, by [[unsatisfied]] over `df`'s collected values. */
  def satisfies(df: DataFrame, pfd: PFD): Boolean =
    unsatisfied(collect(df, (pfd.lhs ++ pfd.rhs).distinct)._2, Seq(pfd)).isEmpty

  /** Repair candidates of `pfd` over `df`, with the RHS literal as
    * suggestion when a constant row's cell is the whole value: a local
    * DataFrame of distinct rows, from one collect. Columns: __tid, attr,
    * value, suggestion (nullable).
    */
  def violations(df: DataFrame, pfd: PFD): DataFrame = {
    val tidded = withTid(df)
    val (tids, values) = collect(tidded, (pfd.lhs ++ pfd.rhs).distinct)
    def suggestion(f: Flag): String = pfd.tableau(f.row).rhsCells(f.attr) match {
      case Pats(List(cp)) if !f.pair && cp.constrainsWhole => cp.constrained.literalValue.orNull
      case _                                               => null
    }
    cellTable(tidded, Seq("attr", "value", "suggestion"), flagged(values, Seq(pfd))
      .map(f => Row(tids(f.tuple), f.attr, f.value, suggestion(f))).distinct)
  }

  /** A local DataFrame of `rows`: `__tid`, typed as in `tidded`, then the
    * string columns `names`.
    */
  private[core] def cellTable(tidded: DataFrame, names: Seq[String], rows: Seq[Row]): DataFrame =
    tidded.sparkSession.createDataFrame(rows.asJava,
      StructType(tidded.schema(TidCol) +: names.map(StructField(_, StringType))))

  /** (matched, violations) of each PFD of `pfds` over `values`: the tuples
    * that participate in a tableau row, and those off their LHS group's
    * majority key, failing the RHS cell or holding another key (a tie
    * counts one side). A PFD that no tuple matches counts (0, 0).
    */
  def validation(values: Values, pfds: Seq[PFD]): Seq[(Long, Long)] = {
    val matched, violations = new Array[Long](pfds.size)
    for (e <- evaluate(values, pfds); g <- e.tot.indices) {
      matched(e.pfd) += e.tot(g)
      violations(e.pfd) += e.tot(g) - e.majc(g)
    }
    matched.toSeq.zip(violations)
  }
}
