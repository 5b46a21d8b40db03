package repro.core.discovery

import org.apache.spark.sql.DataFrame
import repro.core._

/** Constant → variable PFD generalization (§4.3, Generalize(ψ); Example 8).
  *
  * Given the constant tableau of a discovered dependency, find one pattern
  * over the generalization tree that represents all LHS constrained tokens
  * (`\LU\LL*` for {Tayseer, Noor, Esmat}), apply it to *all* values of the
  * attribute — including those below the minimum support — and accept the
  * variable PFD iff the violation ratio stays below δ.
  */
object Generalizer {

  /** Most specific single pattern covering all of `ss` obtainable from the
    * generalization tree: each string is compressed to runs of base classes;
    * all strings must share the run-class sequence; run lengths unify to
    * `{n}` when constant, `+` otherwise. None when the class sequences
    * differ (no common shape).
    */
  def generalizeStrings(ss: Seq[String]): Option[Pattern] = {
    if (ss.isEmpty || ss.exists(s => s == null || s.isEmpty)) return None
    def runs(s: String): Vector[(CharClass, Int)] = {
      val out = Vector.newBuilder[(CharClass, Int)]
      var i = 0
      while (i < s.length) {
        val c = CharClass.of(s(i))
        var j = i
        while (j < s.length && CharClass.of(s(j)) == c) j += 1
        out += ((c, j - i))
        i = j
      }
      out.result()
    }
    val allRuns = ss.map(runs)
    val shape = allRuns.head.map(_._1)
    if (!allRuns.forall(_.map(_._1) == shape)) return None
    val elems = shape.indices.map { i =>
      val lens = allRuns.map(_(i)._2)
      val rep =
        if (lens.distinct.size == 1) { if (lens.head == 1) Rep.One else Rep.Exactly(lens.head) }
        else Rep.Plus
      Cls(shape(i), rep)
    }.toVector
    Some(Pattern(elems))
  }

  /** Lift the generalized pattern into a cell with the same positional /
    * boundary shape as the constant cells it replaces.
    */
  private[discovery] def generalCellFor(isTokenized: Boolean, g: Pattern, pos: Int,
                                        isFull: Boolean = false): Option[Cell] = {
    import CharClass._
    if (isFull) {
      Some(Cell(ConstrainedPattern(Pattern.Empty, g, Pattern.Empty)))
    } else if (!isTokenized) {
      // character offsets: the constrained region must be fixed-length, or
      // greedy extraction would swallow beyond the mined prefix.
      if (!g.isFixedLength) None
      else {
        val pre = if (pos == 0) Pattern.Empty else Pattern.cls(AnyCh, Rep.Exactly(pos))
        Some(Cell(ConstrainedPattern(pre, g, Pattern.AnyStar)))
      }
    } else if (pos == PatternIndex.FullValuePos) {
      Some(Cell(ConstrainedPattern(Pattern.Empty, g, Pattern.Empty)))
    } else {
      // token boundaries: the generalized pattern must not be able to cross
      // a separator, so greedy extraction stops at the token end.
      val crossesSep = g.elems.exists {
        case Cls(c, _) => c == AnyCh || c == Symbol
        case _         => false
      }
      if (crossesSep) None
      else {
        val pre =
          if (pos == 0) Pattern.Empty
          else Pattern(Vector(Cls(AnyCh, Rep.Star), Cls(Symbol, Rep.One)))
        Some(Pats(List(
          ConstrainedPattern(pre, g, Pattern.Empty),
          ConstrainedPattern(pre, g,
            Pattern(Vector(Cls(Symbol, Rep.One), Cls(AnyCh, Rep.Star)))))))
      }
    }
  }

  /** Try to generalize the constant tableau of the single-LHS dependency
    * A → B. Returns the validated variable PFD, or None.
    */
  def generalize(df: DataFrame, a: String, b: String,
                 selected: Seq[Discovery.Entry],
                 tokenized: Map[String, Boolean],
                 params: Params): Option[PFD] = {
    if (selected.map(_.tokA).distinct.size < 2) return None // one constant is not a shape
    for {
      gL <- generalizeStrings(selected.map(_.tokA))
      lhsCell <- generalCellFor(tokenized(a), gL, selected.head.posA, selected.forall(_.fullA))
      rhsCell <- rhsCellFor(selected, tokenized(b))
      pfd <- validate(df, Map(a -> lhsCell), b, rhsCell, Seq(a), params)
    } yield pfd
  }

  /** Generalize a level-2 dependency {cond, pat} → B: the conditioning
    * attribute becomes a wildcard (match anything, agree on value), the
    * pattern attribute carries the generalized shape — Example 8's
    * λ: ([name = \LU\LL*\ \A*, country] → [gender]).
    */
  def generalizeMulti(df: DataFrame, cond: String, pat: String, b: String,
                      selected: Seq[Discovery.Entry],
                      tokenized: Map[String, Boolean],
                      params: Params): Option[PFD] = {
    if (selected.map(_.tokA).distinct.size < 2) return None
    for {
      gL <- generalizeStrings(selected.map(_.tokA))
      lhsCell <- generalCellFor(tokenized(pat), gL, selected.head.posA, selected.forall(_.fullA))
      rhsCell <- rhsCellFor(selected, tokenized(b))
      pfd <- validate(df, Map(cond -> Wildcard, pat -> lhsCell), b, rhsCell,
                      Seq(cond, pat), params)
    } yield pfd
  }

  /** RHS cell of the variable PFD: full-value constants generalize to the
    * wildcard ⊥ (whole-value agreement, as in ψ2/ψ4 of Fig. 2); partial RHS
    * tokens generalize to a constrained shape of their own when they share
    * one (Year → Date-prefix style). Falls back to ⊥.
    */
  private def rhsCellFor(selected: Seq[Discovery.Entry],
                         rhsTokenized: Boolean): Option[Cell] = {
    val posB = selected.map(_.posB).distinct
    val partial = !selected.forall(_.fullB) && posB != Seq(PatternIndex.FullValuePos)
    if (!partial) Some(Wildcard)
    else {
      val sameShape =
        if (posB.size == 1)
          generalizeStrings(selected.map(_.tokB))
            .flatMap(g => generalCellFor(rhsTokenized, g, posB.head))
        else None
      sameShape.orElse(Some(Wildcard))
    }
  }

  /** Apply the candidate variable row on the whole table; accept iff matched
    * rows exist and the disagreement ratio is at most δ. The check's Spark
    * action runs here, so traces charge it to generalization.
    */
  private def validate(df: DataFrame, lhsCells: Map[String, Cell], b: String,
                       rhsCell: Cell, lhsAttrs: Seq[String],
                       params: Params): Option[PFD] = {
    val pfd = PFD(lhsAttrs, Seq(b), Seq(PTuple(lhsCells, Map(b -> rhsCell))))
    val counts = PFDCheck.validation(df, pfd).head()
    val (matched, violations) = (counts.getLong(0), counts.getLong(1))
    Option.when(matched > 0 && violations <= params.noise * matched)(pfd)
  }
}
