package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.PFDCheck
import repro.core.discovery.Discovery

/** Baseline: exact functional-dependency discovery in the spirit of
  * FDep [Flach & Savnik 1999], as used by the paper through Metanome.
  *
  * Reports *minimal* exact FDs X → B with |X| ≤ `maxLhs` — an FD holds iff
  * every X-group contains exactly one distinct B value, checked with one
  * `groupBy(X)` aggregation per LHS covering all RHS candidates at once.
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
      val found = scala.collection.mutable.ArrayBuffer.empty[(Seq[String], String)]

      def holds(lhs: Seq[String]): Seq[String] = {
        val rhsCands = cols.filterNot(lhs.contains)
        if (rhsCands.isEmpty) return Seq.empty
        val aggs = rhsCands.map(b => countDistinct(col(b)) as s"__d_$b")
        val maxed = df.groupBy(lhs.map(col): _*)
          .agg(aggs.head, aggs.tail: _*)
          .agg(rhsCands.map(b => max(col(s"__d_$b")) as s"__m_$b").head,
               rhsCands.map(b => max(col(s"__d_$b")) as s"__m_$b").tail: _*)
          .head()
        rhsCands.filter(b => maxed.getAs[Long](s"__m_$b") <= 1L)
      }

      // level 1
      val level1 = cols.map(a => a -> holds(Seq(a))).toMap
      level1.foreach { case (a, bs) => bs.foreach(b => found += ((Seq(a), b))) }

      // level 2 — only minimal FDs: skip any (pair, B) where a single attribute
      // already determines B.
      if (maxLhs >= 2) {
        for {
          i <- cols.indices; j <- (i + 1) until cols.size
          a = cols(i); c = cols(j)
        } {
          val already = (level1(a) ++ level1(c)).toSet
          val bs = holds(Seq(a, c)).filterNot(already.contains)
          bs.foreach(b => found += ((Seq(a, c), b)))
        }
      }
      found.toSeq
    }
    Result(deps, (System.nanoTime() - t0) / 1000000L)
  }
}
