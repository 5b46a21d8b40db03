package repro.core.discovery

import repro.core._

/** Constant → variable PFD generalization (§4.3, Generalize(ψ); Example 8).
  *
  * Given the constant tableau of a discovered dependency, find one pattern
  * over the generalization tree that represents all LHS constrained tokens
  * (`\LU\LL*` for {Tayseer, Noor, Esmat}), apply it to *all* values of the
  * attribute — including those below the minimum support — and accept the
  * variable PFD iff the violation ratio stays below δ. Discovery builds the
  * candidate of every dependency first ([[candidate]], levels 1 and 2) and
  * then validates them all together on the driver, over each tuple's whole
  * values read from the interned index ([[generalize]]). No Spark action
  * runs here.
  */
object Generalizer {

  private val log = org.slf4j.LoggerFactory.getLogger(getClass)

  /** Most specific single pattern covering all of `ss` obtainable from the
    * generalization tree: each string is compressed to runs of base classes,
    * per code point; all strings must share the run-class sequence; run
    * lengths unify to `{n}` when constant, `+` otherwise. None when the
    * class sequences differ (no common shape).
    */
  def generalizeStrings(ss: Seq[String]): Option[Pattern] = {
    if (ss.isEmpty || ss.exists(s => s == null || s.isEmpty)) return None
    def runs(s: String): Vector[(CharClass, Int)] = {
      val cps = s.codePoints().toArray
      val out = Vector.newBuilder[(CharClass, Int)]
      var i = 0
      while (i < cps.length) {
        val c = CharClass.of(cps(i))
        var j = i
        while (j < cps.length && CharClass.of(cps(j)) == c) j += 1
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

  /** The cell of the generalized pattern `g` in the shape of the constant
    * cells it replaces ([[Discovery.cellFor]]), if `g` fits that shape.
    * Whole values always fit. An n-gram prefix must be fixed-length, or
    * greedy extraction would swallow beyond the mined prefix. A token must
    * not be able to cross a separator, so that extraction stops at the
    * token end.
    */
  private[discovery] def generalCellFor(isTokenized: Boolean, g: Pattern, pos: Int,
                                        isFull: Boolean = false): Option[Cell] = {
    def crossesSep = g.elems.exists {
      case Cls(c, _) => c == CharClass.AnyCh || c == CharClass.Symbol
      case _         => false
    }
    val fits = isFull || (if (isTokenized) !crossesSep else g.isFixedLength)
    Option.when(fits)(Discovery.cellFor(isTokenized, g, pos, isFull))
  }

  /** The candidate variable PFD of the constant dependency lhs → b whose
    * tableau entries are `selected`, or None when their LHS constants share
    * no shape. The last LHS attribute carries the generalized shape; a
    * level-2 conditioning attribute becomes a wildcard (match anything,
    * agree on value) — Example 8's λ: ([name = \LU\LL*\ \A*, country] →
    * [gender]). Runs no Spark work; [[generalize]] validates.
    */
  def candidate(lhs: Seq[String], b: String, selected: Seq[Discovery.Entry],
                tokenized: Map[String, Boolean]): Option[PFD] = {
    if (selected.map(_.tokA).distinct.size < 2) return None // one constant is not a shape
    val a = lhs.last
    for {
      gL <- generalizeStrings(selected.map(_.tokA))
      lhsCell <- generalCellFor(tokenized(a), gL, selected.head.posA, selected.forall(_.fullA))
    } yield PFD(lhs, Seq(b), Seq(PTuple(lhs.init.map(_ -> (Wildcard: Cell)).toMap + (a -> lhsCell),
                                        Map(b -> rhsCellFor(selected, tokenized(b))))))
  }

  /** RHS cell of the variable PFD: full-value constants generalize to the
    * wildcard ⊥ (whole-value agreement, as in ψ2/ψ4 of Fig. 2); partial RHS
    * tokens generalize to a constrained shape of their own when they share
    * one (Year → Date-prefix style). Falls back to ⊥.
    */
  private def rhsCellFor(selected: Seq[Discovery.Entry], rhsTokenized: Boolean): Cell = {
    val posB = selected.map(_.posB).distinct
    val sameShape =
      if (selected.forall(_.fullB) || posB.size != 1) None
      else generalizeStrings(selected.map(_.tokB)).flatMap(generalCellFor(rhsTokenized, _, posB.head))
    sameShape.getOrElse(Wildcard)
  }

  /** Generalize(ψ) for every dependency of a discovery, levels 1 and 2:
    * each `found` constant dependency with its candidate variable PFD. All
    * candidates are validated on the whole table's `values` (each tuple's
    * values of the attributes they read) by [[PFDCheck.validation]], the
    * evidence is logged in one INFO line and kept in each dependency's
    * `generalization`, and a dependency is reported as its variable PFD iff
    * the candidate is accepted ([[accepts]]).
    */
  def generalize(values: PFDCheck.Values, found: Seq[(DiscoveredDep, Option[PFD])],
                 params: Params): Seq[DiscoveredDep] = {
    val tried = found.collect { case (d, Some(c)) => (d, c) }
    val evidence = tried.zip(PFDCheck.validation(values, tried.map(_._2)))
    if (evidence.nonEmpty)
      log.info(s"generalization: δ = ${params.noise}, one query for ${evidence.size} candidates: " +
        evidence.map { case ((d, _), (m, v)) =>
          s"${d.lhs.mkString(",")} → ${d.rhs}: matched $m, violations $v, " +
            (if (accepts((m, v), params)) "accepted" else "rejected")
        }.mkString("; "))
    val decided = evidence.iterator
    found.map {
      case (d, None) => d
      case _ =>
        val ((d, c), e) = decided.next()
        val withEvidence = d.copy(generalization = Some(e))
        if (accepts(e, params)) withEvidence.copy(pfd = c, isVariable = true) else withEvidence
    }
  }

  /** Accept a candidate iff it matches rows and the disagreement ratio
    * violations / matched is at most δ.
    */
  private[discovery] def accepts(evidence: (Long, Long), params: Params): Boolean = {
    val (matched, violations) = evidence
    matched > 0 && violations <= params.noise * matched
  }
}
