package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.PFDCheck
import repro.core.discovery.Discovery

/** The baselines as they were before they evaluated through the `PFDCheck`
  * kernel, kept as the reference the kernel-based ones are compared with:
  * one `groupBy` per FDep LHS and one `groupBy` + `Window` per CFDFinder
  * candidate, each its own Spark job. Their null rule is SQL's: null LHS
  * values form one group, `countDistinct` ignores a null RHS, and null can
  * be a CFD group's majority value. On tables without nulls they agree
  * with [[FDep]] and [[CFDFinder]]. Also the fixtures that both baselines'
  * suites share.
  */
object BaselineReference {

  def fdep(df0: DataFrame, maxLhs: Int = 2): Seq[(Seq[String], String)] =
    Discovery.cached(df0.drop(PFDCheck.TidCol)) { df =>
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

      val level1 = cols.map(a => a -> holds(Seq(a))).toMap
      level1.foreach { case (a, bs) => bs.foreach(b => found += ((Seq(a), b))) }
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

  def cfdFinder(df0: DataFrame, confidence: Double = 0.995, minSupport: Int = 5,
                minCoverage: Double = 0.10, maxLhs: Int = 1): Seq[CFDFinder.Dep] = {
    import CFDFinder.{Dep, Rule}
    Discovery.cached(df0.drop(PFDCheck.TidCol)) { df =>
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
  }

  /** `deps` with each dependency's rules as a set: neither formulation
    * orders the rules it collects.
    */
  def comparable(deps: Seq[CFDFinder.Dep])
      : Seq[(Seq[String], String, Set[CFDFinder.Rule], Boolean, Double)] =
    deps.map(d => (d.lhs, d.rhs, d.rules.map(r => r.copy(lhsVals = r.lhsVals.toList)).toSet,
                   d.variable, d.coverage))

  /** Whether any column of `df` holds a null: where neither has one, the
    * two null rules cannot tell the formulations apart.
    */
  def hasNull(df: DataFrame): Boolean =
    !df.where(df.columns.map(c => col(c).isNull).reduce(_ || _)).isEmpty

  /** `k` string columns c0…c(k−1) over 2^(k+1) rows, each combination of
    * their binary values twice: no FD of one or two attributes holds and no
    * group has a majority, so both lattice levels have every candidate.
    */
  def independentColumns(spark: SparkSession, k: Int): DataFrame =
    spark.range(2L << k).select((0 until k).map(j =>
      (shiftright(col("id"), j) % 2).cast("string") as s"c$j"): _*)
}
