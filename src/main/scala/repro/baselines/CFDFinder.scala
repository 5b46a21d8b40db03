package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{PFD, PFDCheck}
import scala.collection.mutable

/** Baseline: conditional-functional-dependency discovery in the spirit of
  * CFDFinder [Fan et al. 2011] via Metanome, with the paper's setting of
  * confidence 0.995 (§5, "instead of 1 to allow CFDFinder to discover CFDs
  * over dirty data").
  *
  * For each candidate embedded dependency A → B (and pairs {A,C} → B at
  * level 2) it mines constant CFDs (A = a → B = b) over *entire* attribute
  * values: a LHS value with support ≥ `minSupport` whose majority B value
  * reaches the confidence threshold yields a rule. A dependency is reported
  * when its rules cover ≥ `minCoverage` of the records, or when the whole
  * embedded FD holds approximately at the confidence threshold (a variable
  * CFD). Each candidate is the all-`⊥` PFD ([[PFD.fd]]), and a rule is one
  * of its LHS groups ([[PFDCheck.evaluate]]). The table is collected once,
  * cast to string ([[PFDCheck.values]]), and every lattice level is
  * evaluated on the driver: per candidate, its rule groups and the sum of
  * its groups' majority counts. Like FDep, it never looks inside values —
  * the contrast the paper draws with PFDs.
  */
object CFDFinder {

  /** A constant rule (lhs values → rhs value) of a discovered dependency. */
  final case class Rule(lhsVals: Seq[String], rhsVal: String, support: Long, conf: Double)

  final case class Dep(lhs: Seq[String], rhs: String, rules: Seq[Rule],
                       variable: Boolean, coverage: Double)

  final case class Result(deps: Seq[Dep], millis: Long) {
    def embedded: Seq[(Seq[String], String)] = deps.map(d => (d.lhs, d.rhs))
  }

  def discover(df: DataFrame, confidence: Double = 0.995, minSupport: Int = 5,
               minCoverage: Double = 0.10, maxLhs: Int = 1): Result = {
    val t0 = System.nanoTime()
    val values = PFDCheck.values(df)
    val n = values.size
    val cols = df.columns.toSeq.filterNot(_ == PFDCheck.TidCol)

    def mine(cands: Seq[(Seq[String], String)]): Seq[Dep] = {
      // per candidate, the sum of its LHS groups' majority counts and the
      // groups that are rules; a group whose RHS values are all null has
      // no majority
      val best = new Array[Long](cands.size)
      val rules = Array.fill(cands.size)(mutable.ArrayBuffer.empty[Rule])
      for (e <- PFDCheck.evaluate(values, cands.map { case (x, b) => PFD.fd(x, b) });
           g <- e.tot.indices) {
        best(e.pfd) += e.majc(g)
        val conf = e.majc(g).toDouble / e.tot(g)
        if (e.majk(g) != null && e.tot(g) >= minSupport && conf >= confidence)
          rules(e.pfd) += Rule(e.lkey(g), e.majk(g), e.tot(g), conf)
      }
      for {
        ((lhs, b), i) <- cands.zipWithIndex
        covered = rules(i).map(_.support).sum.toDouble / n
        variable = best(i).toDouble / n >= confidence
        if variable || (rules(i).nonEmpty && covered >= minCoverage)
      } yield Dep(lhs, b, rules(i).toSeq, variable, covered)
    }

    val level1 = mine(for (a <- cols; b <- cols if a != b) yield (Seq(a), b))
    val deps = level1 ++ (if (maxLhs < 2) Seq.empty
                          else mine(FDep.minimalPairs(cols, level1.map(d => (d.lhs, d.rhs)))))
    Result(deps, (System.nanoTime() - t0) / 1000000L)
  }
}
