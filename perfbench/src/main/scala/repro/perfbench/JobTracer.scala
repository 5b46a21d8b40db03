package repro.perfbench

import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** A benchmark span: one call into the program, timed by the harness on
  * the same millisecond clock as the Spark listener events.
  */
final case class Span(name: String, start: Long, end: Long) {
  def contains(t: Long): Boolean = t >= start && t <= end
  def ms: Double = (end - start).toDouble
}

/** One Spark job with the layer it was attributed to and what it cost. */
final case class TracedJob(id: Int, start: Long, end: Long, layer: Option[String],
                           underLattice: Boolean, executionId: Option[Long],
                           stages: Int, tasks: Int, cpuNanos: Long, shuffleBytes: Long)

/** Maps every Spark job to a layer of the PFD pipeline from outside the
  * program. A job's SQL execution (its root execution when nested) carries
  * the Spark driver's call site captured when the execution started; the
  * innermost `repro.core` frame of that call site names the layer. Jobs whose call
  * site has no such frame are attributed later to the benchmark span that
  * was open when they started.
  *
  * All listener callbacks arrive on one listener-bus thread; reads happen
  * from the benchmark thread after [[drain]], under the same lock.
  */
final class JobTracer extends SparkListener {

  private final class JobAcc(val id: Int, val start: Long, val executionId: Option[Long]) {
    var end: Long = -1L
    var stages = 0
    var tasks = 0
    var cpuNanos = 0L
    var shuffleBytes = 0L
  }

  private val callSites = mutable.Map.empty[Long, String]
  private val jobs = mutable.ArrayBuffer.empty[JobAcc]
  private val jobOfStage = mutable.Map.empty[Int, JobAcc]
  @volatile private var lastEvent = System.nanoTime()

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized {
      callSites(e.executionId) = e.details
      lastEvent = System.nanoTime()
    }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val exec = props.flatMap(p => Option(p.getProperty("spark.sql.execution.root.id")))
      .orElse(props.flatMap(p => Option(p.getProperty("spark.sql.execution.id"))))
      .map(_.toLong)
    val acc = new JobAcc(e.jobId, e.time, exec)
    jobs += acc
    e.stageIds.foreach(jobOfStage(_) = acc)
    lastEvent = System.nanoTime()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.find(_.id == e.jobId).foreach(_.end = e.time)
    lastEvent = System.nanoTime()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    jobOfStage.get(e.stageInfo.stageId).foreach(_.stages += 1)
    lastEvent = System.nanoTime()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    jobOfStage.get(e.stageId).foreach { j =>
      j.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        j.cpuNanos += m.executorCpuTime
        j.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
    lastEvent = System.nanoTime()
  }

  /** Wait until every started job has ended and the bus has been quiet for
    * a moment, so that all events of the traced interval are recorded.
    */
  def drain(timeoutMs: Long = 30000L): Unit = {
    val deadline = System.nanoTime() + timeoutMs * 1000000L
    def settled: Boolean = synchronized {
      jobs.forall(_.end >= 0) && System.nanoTime() - lastEvent > 300L * 1000000L
    }
    while (!settled && System.nanoTime() < deadline) Thread.sleep(50)
  }

  /** The jobs started within [from, to], each with its call-site layer. */
  def jobsBetween(from: Long, to: Long): Seq[TracedJob] = synchronized {
    jobs.toSeq.filter(j => j.start >= from && j.start <= to).map { j =>
      val site = j.executionId.flatMap(callSites.get).getOrElse("")
      TracedJob(j.id, j.start, math.max(j.end, j.start), JobTracer.layerOf(site),
        site.contains("discoverLevel2"), j.executionId,
        j.stages, j.tasks, j.cpuNanos, j.shuffleBytes)
    }
  }
}

object JobTracer {

  /** Layer named by the innermost `repro.core` frame of a call site. */
  def layerOf(callSite: String): Option[String] =
    callSite.linesIterator.find(_.contains("repro.core.")).flatMap { frame =>
      if (frame.contains("Profiler")) Some("profile")
      else if (frame.contains("mineEntries")) Some("mine")
      else if (frame.contains("validateVariable") || frame.contains("Generalizer")) Some("generalize")
      else if (frame.contains("topValues") || frame.contains("discoverLevel2")) Some("lattice")
      else None
    }

  /** Total length of the union of [start, end] intervals, in ms. */
  def unionMs(intervals: Seq[(Long, Long)]): Double = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s; curEnd = e
      } else if (e > curEnd) curEnd = e
    }
    if (curEnd > curStart) total += curEnd - curStart
    total.toDouble
  }
}
