package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import PFDCheck.{TidCol, withTid}

/** PFD evaluation as Spark queries, kept as the reference the driver's
  * [[PFDCheck.evaluate]] and its selections are compared with. Two UDFs
  * read every attribute the PFDs read, cast to string by Spark:
  * `singleTuple` finds the single-tuple violations of constant rows, and
  * `keyed` gives every participating tuple its LHS key array and RHS key.
  * Four window functions over the keyed tuples, on one repartition,
  * annotate each tuple with the count `c` of its RHS key in its group, the
  * group size `tot`, and the group's majority key `majk` with its count
  * `majc`; the majority is the most frequent non-null key, ties going to
  * the least in Spark's string order. `flagged`, `unsatisfied`,
  * `validation` and `groupRows` are the kernel's selections written over
  * these per-tuple rows.
  *
  * One departure from the windows as they were first written: in a group
  * whose every tuple fails the RHS cell, `majc` read the count of the null
  * keys, so `flagged` flagged every tuple of such a group of two or more.
  * Here, as in [[PFDCheck.majorityOf]], a group with no key has no majority
  * and `majc` is 0, so it flags nothing. Only `flagged` read the difference.
  */
object PFDCheckReference {

  /** The columns `pfds` read as one string array column, and per tableau
    * row that `rows` selects its (PFD index, row index), its LHS checks
    * (position, cell) and its RHS checks (attribute, position, cell).
    */
  private def compile(pfds: Seq[PFD], rows: PTuple => Boolean) = {
    val attrs = pfds.flatMap(p => p.lhs ++ p.rhs).distinct
    val at = attrs.zipWithIndex.toMap
    val checks = for {
      (pfd, i) <- pfds.zipWithIndex
      (tp, r) <- pfd.tableau.zipWithIndex if rows(tp)
    } yield (i, r, pfd.lhs.map(a => (at(a), tp.lhsCells(a))),
             pfd.rhs.map(b => (b, at(b), tp.rhsCells(b))))
    (array(attrs.map(a => col(a).cast("string")): _*), checks)
  }

  /** Single-tuple violations of the constant rows of `pfds`, in one scan: a
    * UDF returns each (PFD `pfd`, row `row`, RHS attribute `attr`) a tuple
    * violates, exploded into rows. With no constant row the optimizer plans
    * no scan. Columns: __tid, pfd, row, attr, value.
    */
  def singleTuple(df: DataFrame, pfds: Seq[PFD]): DataFrame = {
    val (vals, checks) = compile(pfds, _.isConstantRow)
    val violated = udf { (vs: Seq[String]) =>
      for {
        (i, r, lhs, rhs) <- checks
        if lhs.forall { case (j, c) => vs(j) != null && c.matches(vs(j)) }
        (b, bi, c) <- rhs if !(vs(bi) != null && c.matches(vs(bi)))
      } yield (i, r, b, vs(bi))
    }
    withTid(df).where(lit(checks.nonEmpty))
      .select(col(TidCol), explode(violated(vals)) as "v")
      .select(col(TidCol), col("v._1") as "pfd", col("v._2") as "row", col("v._3") as "attr",
              col("v._4") as "value")
  }

  /** The tuples that participate in the tableau rows of `pfds` that `rows`
    * selects, keyed by a UDF once per (PFD `pfd`, row `row`, RHS attribute
    * `attr`): the LHS key array `lkey`, the RHS key `rk` (null when the RHS
    * cell fails) and `value`. Columns: __tid, pfd, row, attr, lkey, rk, value.
    */
  def keyed(df: DataFrame, pfds: Seq[PFD], rows: PTuple => Boolean): DataFrame = {
    val (vals, checks) = compile(pfds, rows)
    val keys = udf { (vs: Seq[String]) =>
      checks.flatMap { case (i, r, lhs, rhs) =>
        val lkey = lhs.map { case (j, c) => Option(vs(j)).flatMap(c.key) }
        if (lkey.exists(_.isEmpty)) Nil
        else rhs.map { case (b, bi, c) =>
          (i, r, b, lkey.flatten, Option(vs(bi)).flatMap(c.key).orNull, vs(bi))
        }
      }
    }
    withTid(df)
      .select(col(TidCol), explode(keys(vals)) as "k")
      .select(col(TidCol), col("k._1") as "pfd", col("k._2") as "row", col("k._3") as "attr",
              col("k._4") as "lkey", col("k._5") as "rk", col("k._6") as "value")
  }

  def majority(df: DataFrame, pfds: Seq[PFD], rows: PTuple => Boolean): DataFrame = {
    val group = Window.partitionBy("pfd", "row", "attr", "lkey")
    val majorityFirst = group.orderBy(col("rk").isNull.asc, col("c").desc, col("rk").asc)
    keyed(df, pfds, rows)
      .repartition(col("pfd"), col("row"), col("attr"), col("lkey"))
      .withColumn("c", count(lit(1)).over(Window.partitionBy("pfd", "row", "attr", "lkey", "rk")))
      .withColumn("tot", count(lit(1)).over(group))
      .withColumn("majk", first("rk").over(majorityFirst))
      .withColumn("majc",
                  when(col("majk").isNotNull, first("c").over(majorityFirst)).otherwise(0L))
  }

  /** As [[PFDCheck.flagged]]. */
  def flagged(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    singleTuple(df, pfds).withColumn("pair", lit(false))
      .unionByName(majority(df, pfds, !_.isConstantRow)
        .filter(col("tot") > 1 && col("majc") * 2 > col("tot") &&
                (col("rk").isNull || col("rk") =!= col("majk")))
        .select(col(TidCol), col("pfd"), col("row"), col("attr"), col("value"), lit(true) as "pair"))

  /** As [[PFDCheck.unsatisfied]]. */
  def unsatisfied(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    singleTuple(df, pfds).select("pfd")
      .union(majority(df, pfds, _ => true)
        .filter(col("tot") > 1 && (col("rk").isNull || col("c") < col("tot"))).select("pfd"))
      .distinct()

  /** As [[PFDCheck.validation]]. */
  def validation(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    majority(df, pfds, _ => true)
      .groupBy("pfd")
      .agg(count(lit(1)) as "matched",
           count(when(col("rk").isNull || col("rk") =!= col("majk"), 1)) as "violations")

  /** One row (pfd, row, attr, lkey, tot, majk, majc) per LHS group, as
    * [[PFDCheck.Eval]] gives them.
    */
  def groupRows(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    majority(df, pfds, _ => true)
      .select("pfd", "row", "attr", "lkey", "tot", "majk", "majc").distinct()
}
