package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.PFDCheck
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
  * CFD). Like FDep, it never looks inside values — the contrast the paper
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
      val out = scala.collection.mutable.ArrayBuffer.empty[Dep]

      def mine(lhs: Seq[String], b: String): Option[Dep] = {
        val perKey = df.groupBy((lhs :+ b).map(c => col(c).cast("string") as c): _*)
          .agg(count(lit(1)) as "c")
        val w = Window.partitionBy(lhs.map(col): _*)
        val ranked = perKey
          .withColumn("__tot", sum("c").over(w))
          .withColumn("__r", row_number().over(w.orderBy(col("c").desc, col(b).asc)))
          .filter(col("__r") === 1)
          .select((lhs.map(col) :+ col(b) :+ col("c") :+ col("__tot")): _*)
          .collect()
        val rules = ranked.toSeq
          .filter { r =>
            val tot = r.getAs[Long]("__tot")
            tot >= minSupport && r.getAs[Long]("c").toDouble / tot >= confidence
          }
          .map { r =>
            Rule(lhs.map(a => Option(r.getAs[Any](a)).map(_.toString).orNull),
                 Option(r.getAs[Any](b)).map(_.toString).orNull,
                 r.getAs[Long]("__tot"),
                 r.getAs[Long]("c").toDouble / r.getAs[Long]("__tot"))
          }
        val covered = rules.map(_.support).sum.toDouble / n
        val overallConf = {
          val best = ranked.map(_.getAs[Long]("c")).sum.toDouble
          if (n == 0) 0.0 else best / n
        }
        val variable = overallConf >= confidence
        if (variable || (rules.nonEmpty && covered >= minCoverage))
          Some(Dep(lhs, b, rules, variable, covered))
        else None
      }

      for (a <- cols; b <- cols if a != b) mine(Seq(a), b).foreach(out += _)
      if (maxLhs >= 2) {
        val level1 = out.map(d => (d.lhs.toSet, d.rhs)).toSet
        for {
          i <- cols.indices; j <- (i + 1) until cols.size; b <- cols
          if b != cols(i) && b != cols(j)
          if !level1.contains((Set(cols(i)), b)) && !level1.contains((Set(cols(j)), b))
        } mine(Seq(cols(i), cols(j)), b).foreach(out += _)
      }
      out.toSeq
    }
    Result(deps, (System.nanoTime() - t0) / 1000000L)
  }
}
