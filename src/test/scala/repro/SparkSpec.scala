package repro

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
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
