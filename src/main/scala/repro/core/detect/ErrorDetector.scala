package repro.core.detect

import org.apache.spark.sql.{DataFrame, Row}
import repro.core._
import repro.core.discovery.DiscoveredDep

/** Error detection with validated PFDs (§5.3): the repair candidates of
  * `PFDCheck.flagged`, from one collect of the table whatever the number
  * of dependencies.
  *
  * Constant PFDs flag single tuples: t matches a tableau row's LHS patterns
  * but t[B] fails the row's RHS pattern. Variable PFDs flag pair-wise
  * disagreement: within a group of LHS-equivalent tuples, the tuples
  * deviating from the strict-majority RHS key are flagged (the majority is
  * the inferred correct value — the paper's "the PFD will change t[B]
  * according to the PFD"). The table's `__tid`s and the values of the
  * attributes the dependencies read are collected once, cast to string by
  * Spark, and evaluated on the driver; the driver must hold them.
  *
  * The result is a local DataFrame of distinct rows, and nothing is cached.
  * Columns: `__tid` (typed as in `df`), `attr` (the flagged RHS cell),
  * `value`, `dep`.
  */
object ErrorDetector {

  def detect(df: DataFrame, deps: Seq[DiscoveredDep]): DataFrame = {
    val pfds = deps.map(_.pfd)
    val tidded = PFDCheck.withTid(df)
    val (tids, values) = PFDCheck.collect(tidded, pfds.flatMap(p => p.lhs ++ p.rhs).distinct)
    val dep = deps.map(_.render)
    PFDCheck.cellTable(tidded, Seq("attr", "value", "dep"), PFDCheck.flagged(values, pfds)
      .map(f => Row(tids(f.tuple), f.attr, f.value, dep(f.pfd))).distinct)
  }
}
