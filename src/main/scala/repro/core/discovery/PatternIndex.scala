package repro.core.discovery

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{CodePoints, PFDCheck}
import scala.collection.mutable

/** The hash-based inverted list of §4.3 (lines 5–12): one row per (tid,
  * attr, token, pos) with `pos` a token index (tokenized columns, full
  * value added as pos = -1) or 0 (n-gram columns, whose n-grams are all
  * prefixes). Discovery builds it on the driver, interned ([[Interned]]),
  * from the table's values collected once; [[build]] emits the same rows
  * as a DataFrame. Level 2 mines restrictions of that one
  * interned index to the tuples of each frequent whole value of a
  * conditioning attribute ([[Interned.restrict]]), read from the index.
  * `prune` applies the substring-pruning optimization of §4.4 to an
  * interned index: among patterns of one attribute appearing in exactly
  * the same set of tuples, only the most specific (longest) survives —
  * 'Egypt' is kept over 'Egy' in Example 8.
  */
object PatternIndex {

  /** Full-value sentinel position for tokenized columns. */
  val FullValuePos: Int = -1

  /** Sentinel position of an n-gram column's whole value with no letter or
    * digit (`%`, `--`, `""`): it conditions level-2 slices, but is never mined.
    */
  val SymbolValuePos: Int = -2

  /** The index rows of one non-null value `s` of a column, `tokenize`d or
    * not, each passed to `emit(token, pos, full)`, where `full` marks the
    * rows that are the whole value: a tokenized column's tokens and its
    * whole value at `FullValuePos`; an n-gram column's informative
    * prefixes, or its whole value at `SymbolValuePos` when it has no letter
    * or digit. [[build]] and the driver's [[intern]] both index by it.
    */
  def parts(s: String, tokenize: Boolean)(emit: (String, Int, Boolean) => Unit): Unit =
    if (tokenize) {
      // tokens are runs of letters and digits, so each is informative
      Tokenizer.tokens(s).foreach(t => emit(t.token, t.pos, t.pos == 0 && t.atEnd))
      emit(s, FullValuePos, true)
    }
    // Prefix n-grams only: every pattern the paper mines or lists
    // (Table 3) anchors at offset 0 — `850\D{7}`, `6060\D` — while
    // mid-string offsets mostly surface positional coincidences
    // ("an" at offset 3 of both Atlanta and Savannah). Prefix-only
    // also bounds C2 linearly instead of quadratically.
    else if (!Tokenizer.informative(s)) emit(s, SymbolValuePos, true)
    else Tokenizer.prefixes(s).foreach(t => if (Tokenizer.informative(t.token)) emit(t.token, t.pos, t.atEnd))

  /** Build the inverted index for the qualitative columns of `profiles`,
    * in one scan: one UDF over all of their values emits every column's
    * rows ([[parts]]), with the columns [[intern]] reads in its order: tid
    * (long), attr, token, pos, full. Every row at `FullValuePos` or
    * `SymbolValuePos` has `full` set: it is the one flag of a whole value.
    */
  def build(df0: DataFrame, profiles: Seq[ColumnProfile]): DataFrame = {
    val df = PFDCheck.withTid(df0)
    val useful = profiles.filter(_.isQualitative)
    require(useful.nonEmpty, "no qualitative columns to index")
    val names = useful.map(_.name).toArray
    val tokenize = useful.map(_.useTokenize).toArray

    val extractor = udf { (vs: Seq[String]) =>
      val out = mutable.ArrayBuffer.empty[(String, String, Int, Boolean)]
      for (i <- vs.indices if vs(i) != null)
        parts(vs(i), tokenize(i))((token, pos, full) => out += ((names(i), token, pos, full)))
      out.toSeq
    }
    df.select(
        col(PFDCheck.TidCol).cast(LongType) as "tid",
        explode(extractor(array(useful.map(p => col(p.name).cast(StringType)): _*))) as "p")
      .select(col("tid"), col("p._1") as "attr", col("p._2") as "token",
              col("p._3") as "pos", col("p._4") as "full")
  }

  /** The collected index with dense ids: pattern i is
    * (`attrNames(attr(i))`, `token(i)`, `pos(i)`), and its rows are
    * `start(i) until start(i + 1)` of `tid` (tuple numbers `0 until
    * nTuples`, see [[intern]]) and `full`.
    */
  final class Interned(val attr: Array[Int], val attrNames: Array[String],
                       val token: Array[String], val pos: Array[Int],
                       val start: Array[Int], val tid: Array[Int], val full: Array[Boolean],
                       val nTuples: Int) {
    def size: Int = attr.length
    def cnt(i: Int): Int = start(i + 1) - start(i)
    /** A pattern "is the full value" only if it is on every occurrence. */
    def isFull(i: Int): Boolean = (start(i) until start(i + 1)).forall(full)
    def attrName(i: Int): String = attrNames(attr(i))

    /** The rows of pattern `i` that are their tuple's whole value of the
      * pattern's attribute, which a tokenized column (`isTokenized`) and an
      * n-gram column mark apart: all rows of a tokenized column's pattern
      * at `FullValuePos`, or an n-gram column's `full` rows (its n-gram of
      * full length, or its pattern at `SymbolValuePos`). Every non-null
      * value has exactly one such row. A tokenized column's `full` flag
      * alone does not tell: a value's only token is `full` too.
      */
    def wholeRows(i: Int, isTokenized: Boolean): IndexedSeq[Int] =
      if (!isTokenized) (start(i) until start(i + 1)).filter(full)
      else if (pos(i) == FullValuePos) start(i) until start(i + 1)
      else Range(0, 0)

    /** Each tuple's whole value ([[wholeRows]]) of each of `attrs`, as
      * [[PFDCheck.Values]] with one string per whole-value pattern: what
      * discovery keeps of the index to validate its candidates.
      */
    def wholeValues(attrs: Seq[String], tokenized: Map[String, Boolean]): PFDCheck.Values = {
      val ids = attrs.map(_ -> Array.fill(nTuples)(-1)).toMap
      val strings = mutable.ArrayBuffer.empty[String]
      for (i <- 0 until size; column <- ids.get(attrName(i))) {
        val rows = wholeRows(i, tokenized(attrName(i)))
        if (rows.nonEmpty) {
          rows.foreach(k => column(tid(k)) = strings.size)
          strings += token(i)
        }
      }
      PFDCheck.Values(ids, strings.toArray)
    }

    /** This index on the tuples numbered `tuples` and on `attrs` only, as
      * if they alone had been indexed: patterns left with no rows are
      * dropped. Tuple numbers, attribute ids and token strings are shared
      * with this index.
      */
    def restrict(tuples: Array[Int], attrs: Set[String]): Interned = {
      val member = new java.util.BitSet(nTuples)
      tuples.foreach(member.set)
      val keep = attrNames.map(attrs)
      val pats = mutable.ArrayBuilder.make[Int]
      val rows = mutable.ArrayBuilder.make[Int] // kept rows of this index, pattern by pattern
      val starts = mutable.ArrayBuilder.make[Int]
      starts += 0
      for (i <- 0 until size if keep(attr(i))) {
        val before = rows.length
        for (k <- start(i) until start(i + 1)) if (member.get(tid(k))) rows += k
        if (rows.length > before) { pats += i; starts += rows.length }
      }
      val (ids, ks) = (pats.result(), rows.result())
      new Interned(ids.map(attr), attrNames, ids.map(token), ids.map(pos), starts.result(),
                   ks.map(tid), ks.map(full), nTuples)
    }
  }

  private final case class Key(attr: Int, token: String, pos: Int)

  /** Interns index rows given one at a time, in row order: one pattern id
    * per (attr, token, pos), in the order rows first name it, and the rows
    * grouped by pattern by a counting sort, each pattern's in row order.
    */
  private final class Builder {
    private val patIds = mutable.HashMap.empty[Key, Int]
    private val keys = mutable.ArrayBuffer.empty[Key]
    private val rowPat = mutable.ArrayBuilder.make[Int]
    private val rowTid = mutable.ArrayBuilder.make[Int]
    private val rowFull = mutable.ArrayBuilder.make[Boolean]

    def add(attr: Int, token: String, pos: Int, tuple: Int, full: Boolean): Unit = {
      val k = Key(attr, token, pos)
      rowPat += patIds.getOrElseUpdate(k, { keys += k; keys.size - 1 })
      rowTid += tuple
      rowFull += full
    }

    def result(attrNames: Array[String], nTuples: Int): Interned = {
      val (pats, tuples, fulls) = (rowPat.result(), rowTid.result(), rowFull.result())
      val start = new Array[Int](keys.size + 1)
      pats.foreach(p => start(p + 1) += 1)
      for (i <- 1 to keys.size) start(i) += start(i - 1)
      val next = start.clone()
      val tid = new Array[Int](pats.length)
      val full = new Array[Boolean](pats.length)
      for (r <- pats.indices) {
        val at = next(pats(r))
        tid(at) = tuples(r); full(at) = fulls(r)
        next(pats(r)) += 1
      }
      new Interned(keys.map(_.attr).toArray, attrNames, keys.map(_.token).toArray,
                   keys.map(_.pos).toArray, start, tid, full, nTuples)
    }
  }

  /** Intern rows of [[build]]: tuple numbers in the order rows first name a
    * `__tid`, attribute ids in the order rows first name an attribute.
    */
  def intern(rows: Array[Row]): Interned = {
    val attrIds = mutable.HashMap.empty[String, Int]
    val tidIds = mutable.LongMap.empty[Int]
    val b = new Builder
    for (row <- rows)
      b.add(attrIds.getOrElseUpdate(row.getString(1), attrIds.size), row.getString(2), row.getInt(3),
            tidIds.getOrElseUpdate(row.getLong(0), tidIds.size), row.getBoolean(4))
    val names = new Array[String](attrIds.size)
    attrIds.foreach { case (s, a) => names(a) = s }
    b.result(names, tidIds.size)
  }

  /** The index of the columns of `profiles` on the driver, whose values are
    * `columns`, `nRows` rows each; attribute a is `profiles(a)`, and the
    * tuples are numbered in row order, skipping rows with no value. Its
    * patterns and their rows are those of [[intern]] over [[build]]'s rows
    * of the same table, in the same order.
    */
  def intern(profiles: Seq[ColumnProfile], columns: Seq[Array[String]], nRows: Int): Interned = {
    val tokenize = profiles.map(_.useTokenize).toArray
    val values = columns.toArray
    val b = new Builder
    var nTuples = 0
    for (r <- 0 until nRows) {
      val t = nTuples
      for (a <- values.indices; s = values(a)(r) if s != null) {
        nTuples = t + 1
        parts(s, tokenize(a))((token, pos, full) => b.add(a, token, pos, t, full))
      }
    }
    b.result(profiles.map(_.name).toArray, nTuples)
  }

  /** Patterns kept by [[prune]] (ids of an [[Interned]]), and how many
    * patterns the cap dropped per attribute where it dropped any.
    */
  final case class Pruned(kept: Array[Int], capDropped: Map[String, Int])

  /** Substring pruning and the pattern cap, per attribute. Of patterns
    * with exactly the same tid set the most specific survives (longest
    * token, then lowest pos, then lowest token); of the survivors the
    * `maxPatternsPerAttr` first by (cnt desc, length desc, token, pos) are
    * kept. Patterns at `SymbolValuePos` take no part.
    */
  def prune(ix: Interned, maxPatternsPerAttr: Int): Pruned = {
    val len = ix.token.map(CodePoints.length)
    val sorted = ix.tid.clone()
    for (i <- 0 until ix.size) java.util.Arrays.sort(sorted, ix.start(i), ix.start(i + 1))
    def sameTids(i: Int, j: Int): Boolean =
      java.util.Arrays.equals(sorted, ix.start(i), ix.start(i + 1), sorted, ix.start(j), ix.start(j + 1))
    def tidHash(i: Int): Int = {
      var h = 0
      for (k <- ix.start(i) until ix.start(i + 1)) h = 31 * h + sorted(k)
      h
    }
    def moreSpecific(i: Int, j: Int): Boolean =
      if (len(i) != len(j)) len(i) > len(j)
      else if (ix.pos(i) != ix.pos(j)) ix.pos(i) < ix.pos(j)
      else CodePoints.compare(ix.token(i), ix.token(j)) < 0

    // one representative per class of equal tid sets within an attribute
    val reps = mutable.HashMap.empty[(Int, Int, Int), List[Int]]
    for (i <- 0 until ix.size if ix.pos(i) != SymbolValuePos) {
      val k = (ix.attr(i), ix.cnt(i), tidHash(i))
      val candidates = reps.getOrElse(k, Nil)
      candidates.find(sameTids(_, i)) match {
        case Some(r) if moreSpecific(r, i) =>
        case Some(r) => reps(k) = i :: candidates.filter(_ != r)
        case None    => reps(k) = i :: candidates
      }
    }
    val byCnt: Ordering[Int] = (i, j) =>
      if (ix.cnt(i) != ix.cnt(j)) Integer.compare(ix.cnt(j), ix.cnt(i))
      else if (len(i) != len(j)) Integer.compare(len(j), len(i))
      else {
        val t = CodePoints.compare(ix.token(i), ix.token(j))
        if (t != 0) t else Integer.compare(ix.pos(i), ix.pos(j))
      }
    val perAttr = reps.values.flatten.toArray.groupBy(ix.attr(_))
    val kept = perAttr.values.flatMap(_.sorted(byCnt).take(maxPatternsPerAttr)).toArray
    val dropped = perAttr.collect {
      case (a, ids) if ids.length > maxPatternsPerAttr => ix.attrNames(a) -> (ids.length - maxPatternsPerAttr)
    }
    Pruned(kept, dropped)
  }

  /** Per-pattern statistics after substring pruning and the pattern cap,
    * computed by [[prune]] on the collected index.
    *
    * Output columns: attr, token, pos, cnt, isFull.
    */
  def prunedStats(index: DataFrame, maxPatternsPerAttr: Int): DataFrame = {
    val ix = intern(index.collect())
    val rows = prune(ix, maxPatternsPerAttr).kept.toSeq.map { i =>
      Row(ix.attrName(i), ix.token(i), ix.pos(i), ix.cnt(i).toLong, ix.isFull(i))
    }
    val schema = StructType(Seq(StructField("attr", StringType), StructField("token", StringType),
                                StructField("pos", IntegerType), StructField("cnt", LongType),
                                StructField("isFull", BooleanType)))
    index.sparkSession.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
  }
}
