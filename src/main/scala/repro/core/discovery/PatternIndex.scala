package repro.core.discovery

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{CodePoints, PFDCheck}
import scala.collection.mutable

/** The hash-based inverted list of §4.3 (lines 5–12), as a DataFrame:
  * one row per (tid, attr, token, pos) with `pos` a token index (tokenized
  * columns, full value added as pos = -1) or 0 (n-gram columns, whose
  * n-grams are all prefixes). Discovery collects it to the driver once and
  * interns it ([[Interned]]); level 2 mines restrictions of that one
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

  /** Build the inverted index for the qualitative columns of `profiles`,
    * in one scan: one UDF over all of their values emits every column's
    * rows, with the columns [[intern]] reads in its order: tid (long), attr,
    * token, pos, full. Every row at `FullValuePos` or `SymbolValuePos` has
    * `full` set: it is the one flag of a whole value.
    */
  def build(df0: DataFrame, profiles: Seq[ColumnProfile]): DataFrame = {
    val df = PFDCheck.withTid(df0)
    val useful = profiles.filter(_.isQualitative)
    require(useful.nonEmpty, "no qualitative columns to index")
    val names = useful.map(_.name).toArray
    val tokenize = useful.map(_.useTokenize).toArray

    val extractor = udf { (vs: Seq[String]) =>
      vs.indices.flatMap { i =>
        val s = vs(i)
        if (s == null) Seq.empty
        else if (tokenize(i))
          Tokenizer.tokens(s).filter(t => Tokenizer.informative(t.token))
            .map(t => (names(i), t.token, t.pos, t.pos == 0 && t.atEnd)) :+
            ((names(i), s, FullValuePos, true))
        else
          // Prefix n-grams only: every pattern the paper mines or lists
          // (Table 3) anchors at offset 0 — `850\D{7}`, `6060\D` — while
          // mid-string offsets mostly surface positional coincidences
          // ("an" at offset 3 of both Atlanta and Savannah). Prefix-only
          // also bounds C2 linearly instead of quadratically.
          if (!Tokenizer.informative(s)) Seq((names(i), s, SymbolValuePos, true))
          else Tokenizer.prefixes(s).filter(t => Tokenizer.informative(t.token))
            .map(t => (names(i), t.token, t.pos, t.atEnd))
      }
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
      * alone does not tell: a value's only token is `full` too, and that
      * of " abc" is "abc".
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

  /** Intern rows of [[build]]: one pattern id per (attr, token, pos), rows
    * grouped by pattern, tuple numbers in the order rows first name a `__tid`.
    */
  def intern(rows: Array[Row]): Interned = {
    val n = rows.length
    val attrIds = mutable.HashMap.empty[String, Int]
    val patIds = mutable.HashMap.empty[Key, Int]
    val keys = mutable.ArrayBuffer.empty[Key]
    val tidIds = mutable.LongMap.empty[Int]
    val rowPat = new Array[Int](n)
    val rowTid = new Array[Int](n)
    val rowFull = new Array[Boolean](n)
    var r = 0
    while (r < n) {
      val row = rows(r)
      val a = attrIds.getOrElseUpdate(row.getString(1), attrIds.size)
      val k = Key(a, row.getString(2), row.getInt(3))
      rowPat(r) = patIds.getOrElseUpdate(k, { keys += k; keys.size - 1 })
      rowTid(r) = tidIds.getOrElseUpdate(row.getLong(0), tidIds.size)
      rowFull(r) = row.getBoolean(4)
      r += 1
    }
    // counting sort of the rows by pattern
    val start = new Array[Int](keys.size + 1)
    rowPat.foreach(p => start(p + 1) += 1)
    for (i <- 1 to keys.size) start(i) += start(i - 1)
    val next = start.clone()
    val tid = new Array[Int](n)
    val full = new Array[Boolean](n)
    r = 0
    while (r < n) {
      val at = next(rowPat(r))
      tid(at) = rowTid(r); full(at) = rowFull(r)
      next(rowPat(r)) += 1
      r += 1
    }
    val names = new Array[String](attrIds.size)
    attrIds.foreach { case (s, a) => names(a) = s }
    new Interned(keys.map(_.attr).toArray, names, keys.map(_.token).toArray,
                 keys.map(_.pos).toArray, start, tid, full, tidIds.size)
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
