package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.{PFD, PFDCheck}
import repro.core.discovery.Discovery

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
  * of its LHS groups read from one [[PFDCheck.majority]] query per lattice
  * level. Like FDep, it never looks inside values — the contrast the paper
  * draws with PFDs.
  */
object CFDFinder {

  /** A constant rule (lhs values → rhs value) of a discovered dependency. */
  final case class Rule(lhsVals: Seq[String], rhsVal: String, support: Long, conf: Double)

  final case class Dep(lhs: Seq[String], rhs: String, rules: Seq[Rule],
                       variable: Boolean, coverage: Double)

  final case class Result(deps: Seq[Dep], millis: Long) {
    def embedded: Seq[(Seq[String], String)] = deps.map(d => (d.lhs, d.rhs))
  }

  def discover(df0: DataFrame, confidence: Double = 0.995, minSupport: Int = 5,
               minCoverage: Double = 0.10, maxLhs: Int = 1): Result = {
    val t0 = System.nanoTime()
    val deps = Discovery.cached(df0.drop(PFDCheck.TidCol)) { df =>
      val n = df.count()
      val cols = df.columns.toSeq

      def mine(cands: Seq[(Seq[String], String)]): Seq[Dep] =
        if (cands.isEmpty) Seq.empty
        else {
          // per candidate, one (key, majority RHS key, its count, size) per
          // LHS group; a group whose RHS values are all null has no majority
          val groups = PFDCheck.majority(df, cands.map { case (x, b) => PFD.fd(x, b) }, _ => true)
            .select("pfd", "lkey", "majk", "majc", "tot").distinct()
            .where(col("majk").isNotNull)
            .collect()
            .groupMap(_.getInt(0))(g => (g.getSeq[String](1), g.getString(2), g.getLong(3), g.getLong(4)))
          for {
            ((lhs, b), i) <- cands.zipWithIndex
            gs = groups.getOrElse(i, Array.empty[(Seq[String], String, Long, Long)]).toSeq
            rules = for {
              (lkey, majk, majc, tot) <- gs
              if tot >= minSupport && majc.toDouble / tot >= confidence
            } yield Rule(lkey, majk, tot, majc.toDouble / tot)
            covered = rules.map(_.support).sum.toDouble / n
            variable = gs.map(_._3).sum.toDouble / n >= confidence
            if variable || (rules.nonEmpty && covered >= minCoverage)
          } yield Dep(lhs, b, rules, variable, covered)
        }

      val level1 = mine(for (a <- cols; b <- cols if a != b) yield (Seq(a), b))
      level1 ++ (if (maxLhs < 2) Seq.empty
                 else mine(FDep.minimalPairs(cols, level1.map(d => (d.lhs, d.rhs)))))
    }
    Result(deps, (System.nanoTime() - t0) / 1000000L)
  }
}
