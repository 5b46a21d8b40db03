package repro.core.detect

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.discovery.DiscoveredDep

/** Error detection with validated PFDs (§5.3): the repair candidates of
  * `PFDCheck.flagged`, two queries whatever the number of dependencies.
  *
  * Constant PFDs flag single tuples: t matches a tableau row's LHS patterns
  * but t[B] fails the row's RHS pattern. Variable PFDs flag pair-wise
  * disagreement: within a group of LHS-equivalent tuples, the tuples
  * deviating from the strict-majority RHS key are flagged (the majority is
  * the inferred correct value — the paper's "the PFD will change t[B]
  * according to the PFD"). The groups come from one hash aggregation over
  * every variable PFD ([[PFDCheck.groups]]), which explodes only the
  * flagged members.
  *
  * The result is lazy and caches nothing. Output columns: `__tid`, `attr`
  * (the flagged RHS cell), `value`, `dep`.
  */
object ErrorDetector {

  def detect(df: DataFrame, deps: Seq[DiscoveredDep]): DataFrame =
    PFDCheck.flagged(df, deps.map(_.pfd))
      .select(col(PFDCheck.TidCol), col("attr"), col("value"),
              element_at(typedLit(deps.map(_.render)), col("pfd") + 1) as "dep")
      .distinct()
}
