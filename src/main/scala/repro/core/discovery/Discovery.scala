package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import scala.collection.mutable

/** Discovery parameters (§4.2 restrictions (ii)/(iii) and §5.1 defaults). */
final case class Params(
    /** K — minimum number of records containing a pattern. */
    minSupport: Int = 5,
    /** δ — ratio of allowed violations on the dependent side. */
    noise: Double = 0.05,
    /** γ — minimum fraction of records a dependency's tableau must cover. */
    minCoverage: Double = 0.10,
    /** Lattice depth: number of LHS attributes (1 = single-LHS). */
    maxLhs: Int = 1,
    /** Cap on patterns per attribute kept after substring pruning, before
      * the pair counts; level 2 applies it in each conditioning slice. The
      * patterns it drops are logged.
      */
    maxPatternsPerAttr: Int = 5000,
    /** Multi-LHS: how many frequent conditioning values to expand per attr. */
    maxConditionValues: Int = 12,
    /** Whether to attempt constant → variable generalization. */
    generalize: Boolean = true,
    /** RHS patterns covering at least this fraction of the whole table are
      * uninformative (e.g. a constant "LIC-" id prefix) and never accepted
      * as dependency evidence.
      */
    maxRhsCover: Double = 0.97)

/** One discovered dependency: the embedded dep (lhs → rhs), its PFD (constant
  * tableau or a generalized variable PFD), and bookkeeping for the metrics.
  * `generalization` is the (matched, violations) of its candidate variable
  * PFD on the whole table, accepted or not, when Generalize(ψ) tried one.
  */
final case class DiscoveredDep(
    lhs: Seq[String],
    rhs: String,
    pfd: PFD,
    isVariable: Boolean,
    coverage: Double,
    tableauSize: Int,
    generalization: Option[(Long, Long)] = None) {
  def render: String = s"${lhs.mkString(",")} → $rhs " +
    (if (isVariable) "[variable] " else "[constant] ") +
    f"cov=$coverage%.2f rows=$tableauSize"
}

final case class DiscoveryResult(deps: Seq[DiscoveredDep], millis: Long)

/** The PFD discovery algorithm of Fig. 4, on Spark DataFrames.
  *
  * Pipeline per table: collect the table's values to the driver once, as
  * strings → profile the columns and build the inverted pattern index on
  * the driver, interned to int pattern ids → substring-prune, cap and
  * support-filter the patterns → count the joint
  * occurrences of every LHS pattern with the patterns of the other
  * attributes in primitive arrays → the decision function f accepts
  * (p_A → p_B) when |tids(p_A)| ≥ K and the best co-occurring RHS pattern
  * covers ≥ (1−δ)·|tids(p_A)| of them → greedy tableau selection (drop extensions of
  * already-selected patterns, keep the modal position — the single-semantics
  * optimization of §4.4) → report the dependency when the tableau covers ≥ γ
  * of the records → build the candidate variable PFD that generalizes the
  * constant tableau. Level-2 of the attribute lattice conditions on
  * frequent values of the partner attribute (Example 8) after pruning pairs
  * whose children already produced a dependency, and mines each
  * conditioning slice as the interned index restricted to the slice's
  * tuples; level 1 is the lattice's root slice, the whole index with no
  * conditioning value. The table is collected once per discovery, whatever
  * the number of attributes and slices, and the candidates of both levels
  * are validated together on the driver, on each tuple's whole values
  * read from the index, with no Spark job.
  */
object Discovery {

  private val log = org.slf4j.LoggerFactory.getLogger(getClass)

  /** A constant tableau entry accepted by f, on the driver. `fullA`/`fullB`
    * record whether the token is the attribute's entire value on every
    * occurrence (drives exact-literal cells and ⊥-generalization).
    */
  final case class Entry(attrA: String, tokA: String, posA: Int, cntA: Long,
                         attrB: String, tokB: String, posB: Int, cj: Long,
                         fullA: Boolean, fullB: Boolean)

  def discover(df: DataFrame, params: Params = Params()): DiscoveryResult = {
    val t0 = System.nanoTime()
    val (found, values) = dependencies(df, params)
    DiscoveryResult(Generalizer.generalize(values, found, params),
                    (System.nanoTime() - t0) / 1000000L)
  }

  /** Every dependency of `df` of levels 1 and 2 as
    * its constant PFD, each with its candidate variable PFD when
    * `params.generalize` asks for one, and each tuple's whole values of the
    * attributes the candidates read, from the interned index
    * ([[PatternIndex.Interned.wholeValues]]; none without a candidate).
    * The candidates are not validated here: [[Generalizer.generalize]]
    * validates those of a whole discovery together. Level 1 mines the
    * lattice's root slice, the whole index with no conditioning cell, and
    * reports its pairs in (a, b) order.
    */
  private[discovery] def dependencies(df: DataFrame, params: Params)
      : (Seq[(DiscoveredDep, Option[PFD])], PFDCheck.Values) = {
    val Indexed(n, profiles, ix) = mineEntries(df)
    val quals = profiles.filter(_.isQualitative)
    if (quals.size < 2) (Seq.empty, PFDCheck.Values(Map.empty, Array.empty))
    else {
      val attrs = quals.map(_.name)
      val tokenized = quals.map(p => p.name -> p.useTokenize).toMap
      val trivial = trivialPatterns(ix, params, n)
      val (entries, capDropped) = mine(ix, params, trivial)
      logCapDropped(1, params, Seq(capDropped))
      val root = Seq(Map.empty[String, Cell] -> entries)
      val single = for {
        a <- attrs.sorted; b <- attrs.sorted if a != b
        d <- report(Seq(a), b, root, n, tokenized, params)
      } yield d
      val multi =
        if (params.maxLhs >= 2)
          discoverLevel2(ix, n, attrs, tokenized, trivial, params, single.map(_._1))
        else Seq.empty
      val found = single ++ multi
      val read = found.flatMap(_._2).flatMap(c => c.lhs ++ c.rhs).distinct
      (found, ix.wholeValues(read, tokenized))
    }
  }

  /** Run `body` on `d` cached, and unpersist it afterwards even on failure.
    * A `d` that is already cached — the caller's input — is left as it is.
    */
  def cached[T](d: DataFrame)(body: DataFrame => T): T =
    if (d.storageLevel != StorageLevel.NONE) body(d)
    else {
      d.cache()
      try body(d) finally d.unpersist()
    }

  // ------------------------------------------------------------------
  // Mining an interned index (the root slice or a conditioning slice).
  // ------------------------------------------------------------------

  /** A table collected and indexed by [[mineEntries]]: its row count, its
    * columns' profiles and the interned index of its qualitative columns.
    */
  private[discovery] final case class Indexed(rows: Long, profiles: Seq[ColumnProfile],
                                              index: PatternIndex.Interned)

  /** Collect `df`'s columns but `__tid` as strings ([[Profiler.asStrings]]),
    * the one Spark job of a discovery, which traces charge to mining by
    * this method's name; then profile the columns and intern the index of
    * the qualitative ones, on the driver.
    */
  private[discovery] def mineEntries(df: DataFrame): Indexed = {
    val strings = Profiler.asStrings(df)
    val rows = strings.collect()
    val columns = Profiler.columns(rows, strings.columns.length)
    val profiles = Profiler.profile(strings.columns.toSeq, columns)
    val quals = profiles.indices.filter(profiles(_).isQualitative)
    Indexed(rows.length, profiles,
            PatternIndex.intern(quals.map(profiles), quals.map(columns), rows.length))
  }

  private def key(ix: PatternIndex.Interned, i: Int) = (ix.attrName(i), ix.token(i), ix.pos(i))

  /** The *trivially-covering* patterns of the whole index `ix` of `n` rows:
    * those in ≥ `maxRhsCover` of the rows (constant id prefixes and the
    * like), which [[mine]] rejects as RHS evidence. Computed once per
    * discovery, so that conditioning on a slice does not turn a
    * globally-varied column into a "constant" one.
    */
  private[discovery] def trivialPatterns(ix: PatternIndex.Interned, params: Params,
                                         n: Long): Set[(String, String, Int)] =
    (0 until ix.size).filter(i => ix.cnt(i) >= params.maxRhsCover * n).map(key(ix, _)).toSet

  /** Mine an interned index on the driver: substring pruning and the
    * pattern cap per attribute ([[PatternIndex.prune]]); then, per LHS
    * pattern, its joint counts with every co-occurring RHS pattern of
    * another attribute in the same tuple, the decision f, and the best RHS
    * pattern per attribute. RHS patterns in `trivial` are never evidence.
    *
    * Returns the accepted tableau entries and the patterns the cap dropped
    * per attribute.
    */
  private[discovery] def mine(ix: PatternIndex.Interned, params: Params,
                              trivial: Set[(String, String, Int)])
      : (Seq[Entry], Map[String, Int]) = {
    val pruned = PatternIndex.prune(ix, params.maxPatternsPerAttr)
    val minRhsCnt = math.max(1L, math.floor((1 - params.noise) * params.minSupport).toLong)
    // trivially-covering patterns must be excluded from the RHS side *before*
    // best-RHS ranking, or e.g. a constant "univ" email token would shadow
    // the informative department token.
    val frequent = pruned.kept.filter(i => ix.cnt(i) >= minRhsCnt && !trivial.contains(key(ix, i)))

    // the frequent patterns of each tuple: tPat/tFull(tStart(t) until tStart(t + 1))
    val tStart = new Array[Int](ix.nTuples + 1)
    for (i <- frequent; k <- ix.start(i) until ix.start(i + 1)) tStart(ix.tid(k) + 1) += 1
    for (t <- 1 to ix.nTuples) tStart(t) += tStart(t - 1)
    val tNext = tStart.clone()
    val tPat = new Array[Int](tStart.last)
    val tFull = new Array[Boolean](tStart.last)
    for (i <- frequent; k <- ix.start(i) until ix.start(i + 1)) {
      val at = tNext(ix.tid(k))
      tPat(at) = i; tFull(at) = ix.full(k)
      tNext(ix.tid(k)) += 1
    }

    // per LHS pattern a: joint counts cj(a, b) in `cj`, reset after each a
    val cj = new Array[Int](ix.size)
    val notFullB = new Array[Boolean](ix.size)
    val touched = new Array[Int](ix.size)
    val best = Array.fill(ix.attrNames.length)(-1)
    val len = ix.token.map(CodePoints.length)
    // best RHS pattern: most specific first (substring pruning guarantees a
    // longer pattern is never dominated spuriously), then most frequent.
    def better(b: Int, c: Int): Boolean =
      if (len(b) != len(c)) len(b) > len(c)
      else if (cj(b) != cj(c)) cj(b) > cj(c)
      else {
        val t = CodePoints.compare(ix.token(b), ix.token(c))
        if (t != 0) t < 0 else ix.pos(b) < ix.pos(c)
      }
    val entries = mutable.ArrayBuffer.empty[Entry]
    for (a <- frequent if ix.cnt(a) >= params.minSupport) {
      var nTouched = 0
      for (k <- ix.start(a) until ix.start(a + 1); m <- tStart(ix.tid(k)) until tStart(ix.tid(k) + 1)) {
        val b = tPat(m)
        if (ix.attr(b) != ix.attr(a)) {
          if (cj(b) == 0) { touched(nTouched) = b; nTouched += 1 }
          cj(b) += 1
          if (!tFull(m)) notFullB(b) = true
        }
      }
      val need = math.ceil(ix.cnt(a) * (1 - params.noise))
      for (t <- 0 until nTouched) {
        val b = touched(t)
        if (cj(b) >= need && (best(ix.attr(b)) < 0 || better(b, best(ix.attr(b))))) best(ix.attr(b)) = b
      }
      for (b <- best if b >= 0)
        entries += Entry(ix.attrName(a), ix.token(a), ix.pos(a), ix.cnt(a),
                         ix.attrName(b), ix.token(b), ix.pos(b), cj(b),
                         ix.isFull(a), !notFullB(b))
      for (t <- 0 until nTouched) { cj(touched(t)) = 0; notFullB(touched(t)) = false }
      java.util.Arrays.fill(best, -1)
    }
    (entries.toSeq, pruned.capDropped)
  }

  /** One INFO line for a lattice level when the pattern cap dropped any
    * patterns in the indexes it mined (`dropped`: per index, per attribute).
    */
  private def logCapDropped(level: Int, params: Params, dropped: Seq[Map[String, Int]]): Unit = {
    val perAttr = dropped.flatten.groupMapReduce(_._1)(_._2)(_ + _)
    if (perAttr.nonEmpty)
      log.info(s"level $level: maxPatternsPerAttr = ${params.maxPatternsPerAttr} dropped " +
        perAttr.toSeq.sorted.map { case (a, n) => s"$a: $n" }.mkString(", "))
  }

  // ------------------------------------------------------------------
  // Tableau selection + PFD construction for one candidate dependency.
  // ------------------------------------------------------------------

  /** Report lhs → b from the mined `slices`, each the constant cells of
    * its conditioning attributes (none at level 1) with its entries. In
    * each slice the tableau is selected from the entries of (lhs.last, b);
    * when the selected rows cover ≥ γ of the `n` records, lhs → b is
    * reported as the constant PFD, with the candidate variable PFD that
    * [[Generalizer.candidate]] builds from the entries, if any.
    */
  private def report(lhs: Seq[String], b: String, slices: Seq[(Map[String, Cell], Seq[Entry])],
                     n: Long, tokenized: Map[String, Boolean],
                     params: Params): Option[(DiscoveredDep, Option[PFD])] = {
    val a = lhs.last // the pattern-bearing attribute
    val rows = for {
      (conditioning, es) <- slices
      e <- selectTableau(es.filter(e => e.attrA == a && e.attrB == b), tokenized(a))
    } yield conditioning -> e
    val coverage = rows.map(_._2.cntA).sum.toDouble / n
    if (rows.isEmpty || coverage < params.minCoverage) None
    else {
      val tableau = rows.map { case (conditioning, e) =>
        PTuple(conditioning + (a -> cellFor(tokenized(a), Pattern.lit(e.tokA), e.posA, e.fullA)),
               Map(b -> cellFor(tokenized(b), Pattern.lit(e.tokB), e.posB, e.fullB)))
      }
      val candidate =
        if (params.generalize) Generalizer.candidate(lhs, b, rows.map(_._2), tokenized) else None
      Some((DiscoveredDep(lhs, b, PFD(lhs, Seq(b), tableau), isVariable = false, coverage,
                          tableau.size), candidate))
    }
  }

  /** Greedy dedup (skip patterns that extend an already-selected one — their
    * tid sets are subsets) followed by the single-semantics positional filter.
    */
  private[discovery] def selectTableau(es: Seq[Entry], isTokenized: Boolean): Seq[Entry] = {
    val sorted = es.sortBy(e => (-e.cntA, e.posA, e.tokA))
    val kept = scala.collection.mutable.ArrayBuffer.empty[Entry]
    sorted.foreach { e =>
      val redundant = kept.exists(s => extendsPattern(e, s, isTokenized))
      if (!redundant) kept += e
    }
    // single semantics: keep the position group with the largest coverage
    if (kept.isEmpty) Seq.empty
    else {
      val best = kept.groupBy(_.posA).maxBy { case (p, xs) => (xs.map(_.cntA).sum, -p) }._1
      kept.filter(_.posA == best).toSeq
    }
  }

  /** Whether `e`'s LHS pattern is an extension of selected `s` (so that
    * tids(e) ⊆ tids(s)). For n-gram prefixes: `s` a prefix of `e`; for
    * tokenized: `s` a token of the full value `e`. A selection holds each
    * (tokA, posA) once, so `e` is never `s` itself.
    */
  private def extendsPattern(e: Entry, s: Entry, isTokenized: Boolean): Boolean =
    if (isTokenized)
      e.posA == PatternIndex.FullValuePos && s.posA >= 0 &&
        Tokenizer.tokens(e.tokA).exists(t => t.token == s.tokA && t.pos == s.posA)
    else e.tokA.startsWith(s.tokA)

  /** The cell of pattern `p` mined at `pos` — the one builder of Table 3's
    * shapes. The whole value when `isFull`, as every pattern at a
    * tokenized column's `FullValuePos` is ([[PatternIndex.build]]);
    * `⟨p⟩\A*` for an n-gram prefix (`⟨\D{3}⟩\A*`); for a token, `p` at
    * the start (`pos` 0) or after `\A*\S`, then at the end or before
    * `\S\A*`, as two alternatives (`\A*,\ ⟨Donald⟩\A*`), so 'John' never
    * matches inside 'Johnson'.
    * Constant cells pass `Pattern.lit(token)`; Generalize(ψ) passes the
    * generalized pattern ([[Generalizer.generalCellFor]]).
    */
  private[discovery] def cellFor(isTokenized: Boolean, p: Pattern, pos: Int,
                                 isFull: Boolean = false): Cell = {
    import CharClass._
    if (isFull) Cell(ConstrainedPattern(Pattern.Empty, p, Pattern.Empty))
    else if (!isTokenized) Cell(ConstrainedPattern(Pattern.Empty, p, Pattern.AnyStar))
    else {
      val pre =
        if (pos == 0) Pattern.Empty
        else Pattern(Vector(Cls(AnyCh, Rep.Star), Cls(Symbol, Rep.One)))
      Pats(List(
        ConstrainedPattern(pre, p, Pattern.Empty),
        ConstrainedPattern(pre, p, Pattern(Vector(Cls(Symbol, Rep.One), Cls(AnyCh, Rep.Star))))))
    }
  }

  // ------------------------------------------------------------------
  // Level 2 of the attribute-set lattice: {A, C} → B (Example 8).
  // ------------------------------------------------------------------

  private[discovery] def discoverLevel2(ix: PatternIndex.Interned, n: Long,
                                        attrs: Seq[String], tokenized: Map[String, Boolean],
                                        trivial: Set[(String, String, Int)], params: Params,
                                        found: Seq[DiscoveredDep])
      : Seq[(DiscoveredDep, Option[PFD])] = {
    val foundPairs = found.map(d => (d.lhs.toSet, d.rhs)).toSet

    // Mine every conditioning slice once and reuse its entries for every
    // candidate {cond, pat} -> b (Example 8's "mine each slice").
    // The conditioning attribute is the one whose top values are most
    // frequent (Example 8 starts from 'country'); a candidate triple
    // (cond, pat, b) is kept only when the lattice's children produced
    // nothing (restriction iv) and pat has fewer frequent top values than
    // cond would grant it as conditioner.
    val top = topValues(ix, tokenized, params).withDefaultValue(Seq.empty)
    def topCount(a: String): Int = top(a).headOption.map(_._2.size).getOrElse(0)

    val plans: Seq[(String, Seq[(String, String)])] = attrs.flatMap { cond =>
      val cands = for {
        pat <- attrs; b <- attrs
        if pat != cond && b != cond && b != pat
        if !foundPairs.contains((Set(pat), b)) && !foundPairs.contains((Set(cond), b))
        // each unordered pair is expanded from its better conditioner only
        if topCount(pat) < topCount(cond) || (topCount(pat) == topCount(cond) && cond < pat)
      } yield (pat, b)
      // coverage pruning (§4.2 restriction iv): a level-2 tableau only
      // covers rows inside the conditioning slices, so a conditioner whose
      // frequent values cover less than γ can never yield a dependency.
      val condCoverage = top(cond).map(_._2.size).sum.toDouble / n
      if (top(cond).isEmpty || cands.isEmpty || condCoverage < params.minCoverage) None
      else Some(cond -> cands)
    }
    // one slice per (conditioner, frequent value), in top-value order: the
    // index on the slice's tuples and the attributes its conditioner's
    // candidates need, mined and then released
    val capDropped = mutable.ArrayBuffer.empty[Map[String, Int]]
    val deps = plans.flatMap { case (cond, cands) =>
      val needed = cands.flatMap(c => Seq(c._1, c._2)).toSet
      val slices = top(cond).map { case (v, tuples) =>
        val (es, dropped) = mine(ix.restrict(tuples, needed), params, trivial)
        capDropped += dropped
        Map(cond -> Cell(ConstrainedPattern.wholeLiteral(v))) -> es
      }
      cands.flatMap { case (pat, b) => report(Seq(cond, pat), b, slices, n, tokenized, params) }
    }
    logCapDropped(2, params, capDropped.toSeq)
    deps
  }

  /** The `maxConditionValues` most frequent values (count ≥ K) of each
    * attribute of `ix`, by count desc, then code point, each with the tuple
    * numbers of its whole-value rows ([[PatternIndex.Interned.wholeRows]]).
    */
  private[discovery] def topValues(ix: PatternIndex.Interned, tokenized: Map[String, Boolean],
                                   params: Params): Map[String, Seq[(String, Array[Int])]] = {
    val values = for {
      i <- 0 until ix.size if ix.cnt(i) >= params.minSupport
      rows = ix.wholeRows(i, tokenized(ix.attrName(i)))
      if rows.length >= params.minSupport
    } yield ix.attrName(i) -> (ix.token(i), rows.map(ix.tid).toArray)
    values.groupMap(_._1)(_._2).map { case (a, vs) =>
      a -> vs.sortWith { case ((v, ts), (w, us)) =>
        ts.length > us.length || ts.length == us.length && CodePoints.compare(v, w) < 0
      }.take(params.maxConditionValues)
    }
  }
}
