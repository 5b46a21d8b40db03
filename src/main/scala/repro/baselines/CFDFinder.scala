package repro.baselines

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
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
  * of its LHS groups ([[PFDCheck.groups]]). One query per lattice level
  * returns, per candidate, its rule groups and the sum of its groups'
  * majority counts. Like FDep, it never looks inside values — the contrast
  * the paper draws with PFDs.
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
          // per candidate, the sum of its LHS groups' majority counts and
          // the groups that are rules, both taken on the executors; a group
          // whose RHS values are all null has no majority
          val isRule = col("majk").isNotNull && col("tot") >= minSupport &&
            col("majc") / col("tot") >= confidence
          val perCand = PFDCheck.groups(df, cands.map { case (x, b) => PFD.fd(x, b) }, _ => true)
            .groupBy("pfd")
            .agg(sum("majc") as "best",
                 collect_list(when(isRule, struct("lkey", "majk", "majc", "tot"))) as "rules")
            .collect()
            .map(r => r.getInt(0) -> ((r.getLong(1), r.getSeq[Row](2))))
            .toMap
          for {
            ((lhs, b), i) <- cands.zipWithIndex
            (best, groups) = perCand.getOrElse(i, (0L, Seq.empty[Row]))
            rules = groups.map(g => Rule(g.getSeq[String](0), g.getString(1), g.getLong(3),
                                         g.getLong(2).toDouble / g.getLong(3)))
            covered = rules.map(_.support).sum.toDouble / n
            variable = best.toDouble / n >= confidence
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
