package repro

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so that the tests' small tables
  * run the same shuffle joins as paper-size ones.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** (first, second, rhs) rows whose two-attribute LHS keys collide when
    * joined into one string with the U+0001 separator: ("a␁b", "c") and
    * ("a", "b␁c"). The first group agrees on X; the second is a singleton,
    * so nothing violates.
    */
  val collidingKeys: Seq[(String, String, String)] =
    Seq(("a\u0001b", "c", "X"), ("a\u0001b", "c", "X"), ("a", "b\u0001c", "Y"))

  /** Int, long, double, boolean, date and timestamp columns with nulls,
    * keyed by an int `__tid`. The kernel compares values as Spark casts
    * them to string: `-0.0` is not `0.0`, and a timestamp reads
    * `2020-01-31 10:00:00` (`java.sql.Timestamp.toString` adds `.0`).
    */
  lazy val typedTable: DataFrame = {
    val s = spark
    import s.implicits._
    val Seq(d1, d2, d3) =
      Seq("2020-01-31", "2021-02-01", "2022-03-01").map(d => Some(java.sql.Date.valueOf(d)))
    val Seq(ts1, ts2) =
      Seq("2020-01-31 10:00:00", "2021-02-01 00:00:00").map(t => Some(java.sql.Timestamp.valueOf(t)))
    Seq((0, Some(1), Some(10L), 1.0e7, Some(true), d1, ts1),
        (1, Some(1), Some(10L), 1.0e7, Some(true), d1, ts1),
        (2, Some(2), Some(20L), 0.1, Some(false), d2, ts2),
        (3, Some(2), Some(20L), 0.1, Some(true), d2, ts2),
        (4, Some(3), None, -0.0, None, d3, ts2),
        (5, Some(3), Some(30L), -0.0, Some(false), None, None),
        (6, None, Some(30L), 0.0, Some(false), d3, ts2),
        (7, Some(4), Some(40L), 0.0, Some(false), d3, ts2),
        (8, Some(5), Some(50L), 1.0e7, Some(true), d1, ts1),
        (9, Some(2), Some(20L), 0.1, Some(false), d2, ts2),
        (10, Some(4), Some(40L), 0.0, Some(false), d3, ts2))
      .toDF("__tid", "i", "l", "d", "b", "dt", "ts")
  }

  /** Number of Spark jobs `body` starts, counted by a listener. The
    * listener bus is asynchronous, so the count waits for it to go quiet
    * before and after `body`.
    */
  def countJobs(body: => Any): Int = {
    val jobs = new AtomicInteger()
    val lastEvent = new AtomicLong(System.nanoTime())
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        jobs.incrementAndGet(); lastEvent.set(System.nanoTime())
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = lastEvent.set(System.nanoTime())
    }
    def quiet(): Unit = {
      val deadline = System.nanoTime() + 30000000000L
      while (System.nanoTime() - lastEvent.get < 500000000L && System.nanoTime() < deadline)
        Thread.sleep(50)
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      quiet(); jobs.set(0); lastEvent.set(System.nanoTime())
      body
      quiet(); jobs.get
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  /** Fails the suite when it leaves an RDD persisted: the suites share one
    * session, so a cache a suite does not release outlives it.
    */
  override def afterAll(): Unit = {
    super.afterAll()
    val left = spark.sparkContext.getPersistentRDDs
    assert(left.isEmpty, s"${getClass.getSimpleName} leaves ${left.size} persisted RDDs: " +
      left.values.map(_.toDebugString.linesIterator.next()).mkString("; "))
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // Keep test/bench output readable — executor INFO chatter drowns the
    // paper-style result tables otherwise.
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
