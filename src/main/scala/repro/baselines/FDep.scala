package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{PFD, PFDCheck}
import repro.core.discovery.Discovery

/** Baseline: exact functional-dependency discovery in the spirit of
  * FDep [Flach & Savnik 1999], as used by the paper through Metanome.
  *
  * Reports *minimal* exact FDs X → B with |X| ≤ `maxLhs`. X → B holds iff
  * the table satisfies the all-`⊥` PFD ([[PFD.fd]]); each lattice level's
  * candidates are checked together in one [[PFDCheck.unsatisfied]] query.
  * Exactness is the point of the comparison: over dirty data genuine
  * dependencies break (a single typo kills the FD) while near-key columns
  * spawn spurious ones — the failure mode §1.1 motivates PFDs with.
  */
object FDep {

  final case class Result(deps: Seq[(Seq[String], String)], millis: Long)

  def discover(df0: DataFrame, maxLhs: Int = 2): Result = {
    val t0 = System.nanoTime()
    val deps = Discovery.cached(df0.drop(PFDCheck.TidCol)) { df =>
      val cols = df.columns.toSeq

      def holding(cands: Seq[(Seq[String], String)]): Seq[(Seq[String], String)] =
        if (cands.isEmpty) Seq.empty
        else {
          val broken = PFDCheck.unsatisfied(df, cands.map { case (x, b) => PFD.fd(x, b) })
            .collect().map(_.getInt(0)).toSet
          cands.indices.filterNot(broken).map(cands)
        }

      val level1 = holding(for (a <- cols; b <- cols if a != b) yield (Seq(a), b))
      level1 ++ (if (maxLhs < 2) Seq.empty else holding(minimalPairs(cols, level1)))
    }
    Result(deps, (System.nanoTime() - t0) / 1000000L)
  }

  /** The level-2 candidates {A, C} → B over `cols` that stay minimal: no
    * single attribute A or C already determines B in `level1`.
    */
  private[baselines] def minimalPairs(cols: Seq[String], level1: Seq[(Seq[String], String)])
      : Seq[(Seq[String], String)] = {
    val determined = level1.map { case (x, b) => (x.head, b) }.toSet
    for {
      i <- cols.indices; j <- (i + 1) until cols.size; b <- cols
      if b != cols(i) && b != cols(j) && !determined((cols(i), b)) && !determined((cols(j), b))
    } yield (Seq(cols(i), cols(j)), b)
  }
}
