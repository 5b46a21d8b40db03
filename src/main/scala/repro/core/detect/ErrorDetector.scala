package repro.core.detect

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.discovery.DiscoveredDep

/** Error detection with validated PFDs (§5.3), as two queries whatever the
  * number of dependencies.
  *
  * Constant PFDs flag single tuples: t matches a tableau row's LHS patterns
  * but t[B] fails the row's RHS pattern. One scan checks every constant
  * PFD's whole tableau against each row.
  *
  * Variable PFDs flag pair-wise disagreement: within a group of tuples that
  * are LHS-equivalent, the tuples deviating from the strict-majority RHS key
  * are flagged (the majority is the inferred correct value — the paper's
  * "the PFD will change t[B] according to the PFD"). One majority query
  * groups the rows of every variable PFD by (dependency, LHS key array).
  *
  * The result is lazy and caches nothing. Output columns: `__tid`, `attr`
  * (the flagged RHS cell), `value`, `dep`.
  */
object ErrorDetector {

  def detect(df0: DataFrame, deps: Seq[DiscoveredDep]): DataFrame = {
    val df = PFDCheck.withTid(df0)
    val (variable, constant) = deps.partition(_.isVariable)
    val parts = Seq(
      Option.when(constant.nonEmpty)(flagConstant(df, constant)),
      Option.when(variable.nonEmpty)(flagVariable(df, variable))).flatten
    if (parts.isEmpty) {
      val spark = df.sparkSession
      import spark.implicits._
      Seq.empty[(Long, String, String, String)].toDF(PFDCheck.TidCol, "attr", "value", "dep")
    } else parts.reduce(_ unionByName _).distinct()
  }

  /** The columns `deps` read, as one string array column, and each
    * column's position in it.
    */
  private def inputs(deps: Seq[DiscoveredDep]) = {
    val attrs = deps.flatMap(d => d.pfd.lhs :+ d.pfd.rhs.head).distinct
    (array(attrs.map(a => col(a).cast("string")): _*), attrs.zipWithIndex.toMap)
  }

  /** Single-tuple violations of constant PFDs in one scan: a UDF returns the
    * (attr, value, dep) triples a row violates, exploded into rows.
    */
  private def flagConstant(df: DataFrame, deps: Seq[DiscoveredDep]): DataFrame = {
    val (vals, at) = inputs(deps)
    // per dependency: RHS attribute and position, rendering, and per tableau
    // row the (position, cell) LHS checks plus the RHS cell
    val checks = deps.map { d =>
      val b = d.pfd.rhs.head
      (b, at(b), d.render,
       d.pfd.tableau.map(tp => (d.pfd.lhs.map(a => (at(a), tp.lhsCells(a))), tp.rhsCells(b))))
    }
    val violated = udf { (vs: Seq[String]) =>
      checks.collect { case (b, bi, dep, rows) if rows.exists { case (lcells, rcell) =>
          lcells.forall { case (i, c) => vs(i) != null && c.matches(vs(i)) } &&
            !(vs(bi) != null && rcell.matches(vs(bi)))
        } => (b, vs(bi), dep)
      }
    }
    df.select(col(PFDCheck.TidCol), explode(violated(vals)) as "v")
      .select(col(PFDCheck.TidCol), col("v._1") as "attr", col("v._2") as "value",
              col("v._3") as "dep")
  }

  /** Strict-minority violations of variable PFDs in one majority query. A
    * UDF keys each row once per dependency whose LHS it matches — (dependency
    * index, LHS key array, RHS key, RHS value) — and windows over
    * (dependency, LHS key) find each group's majority RHS key.
    */
  private def flagVariable(df: DataFrame, deps: Seq[DiscoveredDep]): DataFrame = {
    val (vals, at) = inputs(deps)
    val keyers = deps.map { d =>
      val tp = d.pfd.tableau.head
      val b = d.pfd.rhs.head
      (d.pfd.lhs.map(a => (at(a), tp.lhsCells(a))), at(b), tp.rhsCells(b))
    }
    val keyed = udf { (vs: Seq[String]) =>
      keyers.zipWithIndex.flatMap { case ((lcells, bi, rcell), i) =>
        val lkey = lcells.map { case (j, c) => Option(vs(j)).flatMap(c.key) }
        if (lkey.forall(_.isDefined))
          Some((i, lkey.flatten, Option(vs(bi)).flatMap(rcell.key).orNull, vs(bi)))
        else None
      }
    }
    val group = Window.partitionBy("dep", "lkey")
    val majorityFirst = group.orderBy(col("rk").isNull.asc, col("c").desc, col("rk").asc)
    df.select(col(PFDCheck.TidCol), explode(keyed(vals)) as "k")
      .select(col(PFDCheck.TidCol), col("k._1") as "dep", col("k._2") as "lkey",
              col("k._3") as "rk", col("k._4") as "value")
      // one shuffle serves every window below: all partition by (dep, lkey, …)
      .repartition(col("dep"), col("lkey"))
      .withColumn("c", count(lit(1)).over(Window.partitionBy("dep", "lkey", "rk")))
      .withColumn("tot", count(lit(1)).over(group))
      .withColumn("majk", first("rk").over(majorityFirst))
      .withColumn("majc", first("c").over(majorityFirst))
      // a 50/50 split has no majority witness: flag only strict minorities
      .filter(col("majc") * 2 > col("tot") && col("tot") > 1 &&
              (col("rk").isNull || col("rk") =!= col("majk")))
      .select(col(PFDCheck.TidCol),
              element_at(typedLit(deps.map(_.pfd.rhs.head)), col("dep") + 1) as "attr",
              col("value"),
              element_at(typedLit(deps.map(_.render)), col("dep") + 1) as "dep")
  }
}
