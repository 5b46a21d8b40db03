package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import PFDCheck.TidCol
import scala.collection.mutable

/** Pair semantics as they were before [[PFDCheck.groups]], kept as the
  * reference the hash aggregation is compared with. Four window functions
  * over the keyed tuples, on one repartition, annotate each tuple with the
  * count `c` of its RHS key in its group, the group size `tot`, and the
  * group's majority key `majk` with its count `majc`; the majority is the
  * most frequent non-null key, ties going to the least in Spark's string
  * order. `flagged`, `unsatisfied`, `validation` and `groupRows` are the
  * kernel's selections written over these per-tuple rows.
  *
  * One departure from the windows as they were: in a group whose every
  * tuple fails the RHS cell, `majc` read the count of the null keys, so
  * `flagged` flagged every tuple of such a group of two or more. Here, as
  * in [[PFDCheck.majorityOf]], a group with no key has no majority and
  * `majc` is 0, so it flags nothing. Only `flagged` read the difference.
  */
object PFDCheckReference {

  def majority(df: DataFrame, pfds: Seq[PFD], rows: PTuple => Boolean): DataFrame = {
    val group = Window.partitionBy("pfd", "row", "attr", "lkey")
    val majorityFirst = group.orderBy(col("rk").isNull.asc, col("c").desc, col("rk").asc)
    PFDCheck.keyed(df, pfds, rows)
      .repartition(col("pfd"), col("row"), col("attr"), col("lkey"))
      .withColumn("c", count(lit(1)).over(Window.partitionBy("pfd", "row", "attr", "lkey", "rk")))
      .withColumn("tot", count(lit(1)).over(group))
      .withColumn("majk", first("rk").over(majorityFirst))
      .withColumn("majc",
                  when(col("majk").isNotNull, first("c").over(majorityFirst)).otherwise(0L))
  }

  /** As [[PFDCheck.flagged]]. */
  def flagged(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    PFDCheck.singleTuple(df, pfds).withColumn("pair", lit(false))
      .unionByName(majority(df, pfds, !_.isConstantRow)
        .filter(col("tot") > 1 && col("majc") * 2 > col("tot") &&
                (col("rk").isNull || col("rk") =!= col("majk")))
        .select(col(TidCol), col("pfd"), col("row"), col("attr"), col("value"), lit(true) as "pair"))

  /** As [[PFDCheck.unsatisfied]]. */
  def unsatisfied(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    PFDCheck.singleTuple(df, pfds).select("pfd")
      .union(majority(df, pfds, _ => true)
        .filter(col("tot") > 1 && (col("rk").isNull || col("c") < col("tot"))).select("pfd"))
      .distinct()

  /** As [[PFDCheck.validation]]. */
  def validation(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    majority(df, pfds, _ => true)
      .groupBy("pfd")
      .agg(count(lit(1)) as "matched",
           count(when(col("rk").isNull || col("rk") =!= col("majk"), 1)) as "violations")

  /** `df`'s columns but `__tid`, cast to string and collected, as the
    * [[PFDCheck.Values]] that [[PFDCheck.validation]] reads: what discovery
    * reads from the interned index, taken from `df` itself.
    */
  def values(df: DataFrame): PFDCheck.Values = {
    val cols = df.columns.filterNot(_ == TidCol)
    val rows = df.select(cols.map(col(_).cast("string")): _*).collect()
    val strings = mutable.ArrayBuffer.empty[String]
    val ids = cols.indices.map { j =>
      val id = mutable.HashMap.empty[String, Int]
      cols(j) -> rows.map { r =>
        if (r.isNullAt(j)) -1
        else id.getOrElseUpdate(r.getString(j), { strings += r.getString(j); strings.size - 1 })
      }
    }
    PFDCheck.Values(ids.toMap, strings.toArray)
  }

  /** One row (pfd, row, attr, lkey, tot, majk, majc) per LHS group, as
    * CFDFinder read them.
    */
  def groupRows(df: DataFrame, pfds: Seq[PFD]): DataFrame =
    majority(df, pfds, _ => true)
      .select("pfd", "row", "attr", "lkey", "tot", "majk", "majc").distinct()
}
