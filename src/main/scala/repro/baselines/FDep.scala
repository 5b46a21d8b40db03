package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{PFD, PFDCheck}

/** Baseline: exact functional-dependency discovery in the spirit of
  * FDep [Flach & Savnik 1999], as used by the paper through Metanome.
  *
  * Reports *minimal* exact FDs X → B with |X| ≤ `maxLhs`. X → B holds iff
  * the table satisfies the all-`⊥` PFD ([[PFD.fd]]). The table is collected
  * once, cast to string ([[PFDCheck.values]]), and each lattice level's
  * candidates are checked together on the driver by [[PFDCheck.unsatisfied]].
  * Exactness is the point of the comparison: over dirty data genuine
  * dependencies break (a single typo kills the FD) while near-key columns
  * spawn spurious ones — the failure mode §1.1 motivates PFDs with.
  */
object FDep {

  final case class Result(deps: Seq[(Seq[String], String)], millis: Long)

  def discover(df: DataFrame, maxLhs: Int = 2): Result = {
    val t0 = System.nanoTime()
    val values = PFDCheck.values(df)
    val cols = df.columns.toSeq.filterNot(_ == PFDCheck.TidCol)

    def holding(cands: Seq[(Seq[String], String)]): Seq[(Seq[String], String)] = {
      val broken = PFDCheck.unsatisfied(values, cands.map { case (x, b) => PFD.fd(x, b) })
      cands.indices.filterNot(broken).map(cands)
    }

    val level1 = holding(for (a <- cols; b <- cols if a != b) yield (Seq(a), b))
    val deps = level1 ++ (if (maxLhs < 2) Seq.empty else holding(minimalPairs(cols, level1)))
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
