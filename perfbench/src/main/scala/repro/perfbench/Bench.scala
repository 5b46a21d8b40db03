package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, lit, xxhash64}
import repro.core.PFDCheck
import repro.core.detect.ErrorDetector
import repro.core.discovery.{DiscoveredDep, Discovery, Params, PatternIndex, Profiler}
import repro.data.{Dep, DirtyData, GeneratedTable}

/** The PFD benchmark: one workload per run, driven only through the
  * program's public calls (`DirtyData.table`, `Discovery.discover`,
  * `ErrorDetector.detect`, and in traced runs `Profiler.profile` and
  * `PatternIndex.build`/`prunedStats`).
  *
  * Load is a closed loop of one client: a pass runs discovery and then
  * detection on each of the workload's tables in order, and passes repeat
  * until the measuring time is used up. The first pass is not timed (JIT
  * and Spark code generation warm up in it). Every pass is checked against
  * the golden snapshot.
  *
  * Usage: `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --golden-dir <dir> [--write-golden] [--scale <x>] [--source <id>]`.
  * The last line of standard output is the JSON result.
  */
object Bench {

  /** Why each workload exists is recorded in BENCHMARK.json. The untimed
    * warm-up pass runs discovery with `warmParams` on the tables at
    * `warmScale`: cheaper than the measured pass, it warms the same code.
    */
  final case class Workload(name: String, tables: Seq[Int], scale: Double, params: Params,
                            warmScale: Double, warmParams: Params)

  // Sizes fit a run into about a minute on 4 cores: T13 at 5% of its paper
  // rows, and on T7 one conditioning value per lattice conditioner and no
  // generalization (the default 12 values made T7's multi-LHS discovery
  // take 47 s; generalization is measured on large-table).
  val workloads: Seq[Workload] = Seq(
    Workload("large-table", Seq(13), 0.05, Params(), warmScale = 0.01, warmParams = Params()),
    Workload("multi-lhs", Seq(7), 1.0,
             Params(maxLhs = 2, maxConditionValues = 1, generalize = false),
             warmScale = 1.0, warmParams = Params(generalize = false)))

  val DefaultSeed = 0L
  val ShufflePartitions = 4
  val SetupReps = 3
  /** Detection can be short, so a measured op repeats it until
    * `DetectMinSeconds` are spent (at most `DetectMaxReps` times) and
    * reports the median.
    */
  val DetectMinSeconds = 2.0
  val DetectMaxReps = 9

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        goldenDir: Path, writeGolden: Boolean, scale: Option[Double],
                        source: String)

  def parseArgs(args: Array[String]): Args = {
    val kv = mutable.Map.empty[String, String]
    var writeGolden = false
    var i = 0
    while (i < args.length) {
      val k = args(i)
      if (k == "--write-golden") { writeGolden = true; i += 1 }
      else {
        require(k.startsWith("--") && i + 1 < args.length, s"bad argument '$k'")
        kv(k.drop(2)) = args(i + 1); i += 2
      }
    }
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k missing"))
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace == "1",
         Paths.get(need("golden-dir")), writeGolden, kv.get("scale").map(_.toDouble),
         kv.getOrElse("source", "unknown"))
  }

  // ------------------------------------------------------------------
  // One (table, discovery + detection) operation and its outputs.
  // ------------------------------------------------------------------

  final case class Quality(found: Int, correct: Int, gt: Int, flagged: Int, hits: Int, errors: Int) {
    def +(o: Quality): Quality = Quality(found + o.found, correct + o.correct, gt + o.gt,
      flagged + o.flagged, hits + o.hits, errors + o.errors)
    def render: String = s"found=$found correct=$correct gt=$gt flagged=$flagged hits=$hits errors=$errors"
  }

  final case class Outcome(deps: Seq[DiscoveredDep], flagged: Set[(Long, String)],
                           discoverS: Double, detectS: Double, quality: Quality) {
    def depLines: Set[String] = deps.map(d =>
      Seq("dep", d.lhs.mkString(","), d.rhs, if (d.isVariable) "variable" else "constant",
          d.pfd.render).mkString("\t")).toSet
    def cellLines: Set[String] = flagged.map { case (tid, a) => s"cell\t$tid\t$a" }
  }

  /** Discovery, then repeated detections with the ground-truth-validated
    * deps as in `Table7.runOne`; `spans` receives each call's wall interval
    * (repeats as `detect.repeat`, which per-layer metrics leave out).
    * Fails if the repeated detections disagree.
    */
  def runOp(t: GeneratedTable, params: Params, spans: mutable.Buffer[Span],
            repeatDetection: Boolean = true): Outcome = {
    def timed[T](name: String)(body: => T): (T, Double) = {
      val m0 = System.currentTimeMillis(); val n0 = System.nanoTime()
      val r = body
      spans += Span(name, m0, System.currentTimeMillis())
      (r, (System.nanoTime() - n0) / 1e9)
    }
    val (res, discoverS) = timed("discover")(Discovery.discover(t.df, params))
    val validated = res.deps.filter(d => t.groundTruth.contains(Dep(d.lhs.toSet, d.rhs)))
    val detections = mutable.ArrayBuffer.empty[(Set[(Long, String)], Double)]
    while (detections.isEmpty || repeatDetection &&
           detections.map(_._2).sum < DetectMinSeconds && detections.size < DetectMaxReps)
      detections += timed(if (detections.isEmpty) "detect" else "detect.repeat") {
        ErrorDetector.detect(t.df, validated)
          .select(PFDCheck.TidCol, "attr").distinct()
          .collect().map(r => (r.getLong(0), r.getString(1))).toSet
      }
    val flagged = detections.head._1
    require(detections.forall(_._1 == flagged), s"${t.name}: repeated detections disagree")
    val uniq = res.deps.map(d => Dep(d.lhs.toSet, d.rhs)).toSet
    val errs = t.errorCellSet
    Outcome(res.deps, flagged, discoverS, median(detections.map(_._2).toSeq),
      Quality(uniq.size, uniq.count(t.groundTruth.contains), t.groundTruth.size,
              flagged.size, flagged.count(errs.contains), errs.size))
  }

  // ------------------------------------------------------------------
  // Golden snapshot: per table of the default seed, the discovered deps
  // (lhs, rhs, variable?, rendered tableau), the flagged cells, and the
  // quality counts. One TSV file per workload.
  // ------------------------------------------------------------------

  def goldenPath(dir: Path, w: Workload): Path = dir.resolve(s"${w.name}.tsv")

  def writeGolden(path: Path, name: String, o: Outcome, append: Boolean): Unit = {
    val sb = new StringBuilder
    sb ++= s"$name\tquality\t${o.quality.render}\n"
    (o.depLines.toSeq.sorted ++ o.cellLines.toSeq.sortBy(l => (l.split("\t")(2), l.split("\t")(1).toLong)))
      .foreach(l => sb ++= s"$name\t$l\n")
    Files.createDirectories(path.getParent)
    val prior = if (append) new String(Files.readAllBytes(path), StandardCharsets.UTF_8) else ""
    Files.write(path, (prior + sb.result()).getBytes(StandardCharsets.UTF_8))
  }

  /** table name -> lines (without the table column). */
  def readGolden(path: Path): Map[String, Seq[String]] =
    if (!Files.exists(path)) Map.empty
    else Files.readAllLines(path, StandardCharsets.UTF_8).asScala.toSeq
      .filterNot(_.isEmpty)
      .map { l => val i = l.indexOf('\t'); (l.take(i), l.drop(i + 1)) }
      .groupBy(_._1).map { case (k, v) => k -> v.map(_._2) }

  // ------------------------------------------------------------------
  // Statistics and output.
  // ------------------------------------------------------------------

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest percentile with at least ten samples above it, if any. */
  def tailPercentile(xs: Seq[Double]): Option[(Int, Double)] = {
    val n = xs.size
    if (n < 11) None
    else {
      val p = ((n - 10) * 100) / n
      val s = xs.sorted
      Some(p -> s(math.min(n - 1, math.ceil(p / 100.0 * n).toInt - 1)))
    }
  }

  def json(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"; case '\t' => "\\t"
        case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(json).mkString("[", ", ", "]")
    case other => json(other.toString)
  }

  final case class Metric(name: String, value: Double, unit: String, samples: Int,
                          tail: Option[(Int, Double)] = None)

  def main(argv: Array[String]): Unit = {
    val a = parseArgs(argv)
    val base = workloads.find(_.name == a.workload).getOrElse {
      Console.err.println(s"unknown workload '${a.workload}'; known: ${workloads.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val w = a.scale.fold(base)(s => base.copy(scale = s, warmScale = s))
    val code = try run(a, w) catch {
      case e: Throwable =>
        Console.err.println(s"benchmark aborted: $e")
        e.printStackTrace()
        1
    }
    sys.exit(code)
  }

  def run(a: Args, w: Workload): Int = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"pfd-bench-${w.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sessionS = (System.currentTimeMillis() -
      ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    var attempted = 0
    var failed = 0
    val notes = mutable.ArrayBuffer.empty[String]
    def fail(msg: String, ops: Int): Unit = { failed += ops; notes += msg }

    // The generated content is the default seed's, so every run does the
    // same discovery work and must produce the snapshot's outputs; the run
    // seed permutes the rows, which changes partitioning and task layout.
    def generate(seed: Long, scale: Double = w.scale): Seq[GeneratedTable] = w.tables.map { id =>
      val t = DirtyData.table(spark, id, scale, DefaultSeed)
      val df = t.df.orderBy(xxhash64(col(PFDCheck.TidCol), lit(seed))).cache()
      df.count()
      t.copy(df = df)
    }

    // --- set-up: session start (once) plus table generation, cache and
    // count, repeated; the median repetition is reported.
    val genS = mutable.ArrayBuffer.empty[Double]
    var tables: Seq[GeneratedTable] = Seq.empty
    (1 to SetupReps).foreach { _ =>
      tables.foreach(_.df.unpersist())
      val t0 = System.nanoTime()
      tables = generate(a.seed)
      genS += (System.nanoTime() - t0) / 1e9
    }
    val setupS = sessionS + median(genS.toSeq)

    // --- output check: every op must discover at least one dependency and
    // reproduce the golden snapshot's quality counts; every pass must
    // reproduce the first pass's deps and flagged cells.
    val gPath = goldenPath(a.goldenDir, w)
    val snapshotApplies = a.scale.isEmpty // the snapshot is of the workload's own scale
    val reference = mutable.Map.empty[String, Outcome]
    var depDiff = 0
    var cellDiff = 0
    def check(name: String, o: Outcome): Unit = {
      if (o.deps.isEmpty) fail(s"$name: no dependency discovered", 1)
      reference.get(name) match {
        case Some(r) =>
          if (o.depLines != r.depLines) fail(s"$name: deps differ between passes", 1)
          if (o.flagged != r.flagged) fail(s"$name: flagged cells differ between passes", 1)
        case None =>
          reference(name) = o
          if (snapshotApplies) readGolden(gPath).get(name) match {
            case None => fail(s"$name: no golden snapshot in $gPath", 2)
            case Some(lines) =>
              val gDeps = lines.filter(_.startsWith("dep\t")).toSet
              val gCells = lines.filter(_.startsWith("cell\t")).toSet
              depDiff += (gDeps diff o.depLines).size + (o.depLines diff gDeps).size
              cellDiff += (gCells diff o.cellLines).size + (o.cellLines diff gCells).size
              val gq = lines.find(_.startsWith("quality\t")).map(_.stripPrefix("quality\t"))
              if (!gq.contains(o.quality.render))
                fail(s"$name: quality ${o.quality.render} differs from snapshot ${gq.getOrElse("-")}", 1)
          }
      }
    }

    // --- warm-up pass (JIT and Spark code generation), untimed. Traced
    // runs also warm up the measured calls, so that their untraced and
    // traced passes compare like with like.
    def warmUp(ts: Seq[GeneratedTable], params: Params): Unit = ts.foreach { t =>
      attempted += 2
      scala.util.Try(runOp(t, params, mutable.ArrayBuffer.empty[Span], repeatDetection = false)).failed
        .foreach(e => fail(s"${t.name} warm-up threw $e", 2))
    }
    val warmTables = if (w.warmScale == w.scale) tables else generate(a.seed, w.warmScale)
    warmUp(warmTables, w.warmParams)
    if (warmTables ne tables) warmTables.foreach(_.df.unpersist())
    if (a.trace) warmUp(tables, w.params)

    // --- measured passes: closed loop over the tables until time is up.
    val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
    def gcMs: Double = gcBeans.map(_.getCollectionTime.max(0L)).sum.toDouble
    // Traced runs alternate untraced and traced passes (U, T, ...), so
    // that the tracing overhead is measured between neighbouring passes.
    val minPasses = if (a.trace) 2 else 1
    val discS = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    val detS = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    val passWall = Map(true -> mutable.ArrayBuffer.empty[Double], false -> mutable.ArrayBuffer.empty[Double])
    val cachedMb = mutable.ArrayBuffer.empty[Double]
    val layerSamples = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    var unattributed = 0
    var variableDeps = 0
    val start = System.nanoTime()
    var pass = 0
    while (pass < minPasses || (System.nanoTime() - start) / 1e9 < a.seconds) {
      val traced = a.trace && pass % 2 == 1
      val tracer = new JobTracer
      if (traced) {
        spark.sparkContext.addSparkListener(tracer)
        heapPools.foreach(_.resetPeakUsage())
      }
      val spans = mutable.ArrayBuffer.empty[Span]
      val gc0 = gcMs
      val p0 = System.currentTimeMillis(); val pn0 = System.nanoTime()
      variableDeps = 0
      tables.foreach { t =>
        attempted += 2
        scala.util.Try(runOp(t, w.params, spans)) match {
          case scala.util.Failure(e) => fail(s"${t.name} pass $pass threw $e", 2)
          case scala.util.Success(o) =>
            variableDeps += o.deps.count(_.isVariable)
            if (a.writeGolden && !reference.contains(t.name)) {
              writeGolden(gPath, t.name, o, append = reference.nonEmpty)
              notes += s"wrote ${t.name} to $gPath"
            }
            check(t.name, o)
            discS.getOrElseUpdate(t.name, mutable.ArrayBuffer.empty) += o.discoverS
            detS.getOrElseUpdate(t.name, mutable.ArrayBuffer.empty) += o.detectS
        }
      }
      val p1 = System.currentTimeMillis()
      passWall(traced) += (System.nanoTime() - pn0) / 1e6
      cachedMb += spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1048576.0
      if (traced) {
        tracer.drain()
        spark.sparkContext.removeSparkListener(tracer)
        val allJobs = tracer.jobsBetween(p0, p1)
        val layer = attribute(allJobs, spans.toSeq)
        unattributed += allJobs.count(j => layer(j.id).isEmpty)
        // per-layer figures describe one discovery and one detection per table
        val repeat = Some("detect.repeat")
        val jobs = allJobs.filterNot(j => layer(j.id) == repeat)
        spans.filterInPlace(_.name != "detect.repeat")
        def add(k: String, v: Double): Unit = layerSamples.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v
        def of(l: String): Seq[TracedJob] = jobs.filter(j => layer(j.id).contains(l))
        def ms(js: Seq[TracedJob]): Double = JobTracer.unionMs(js.map(j => (j.start, j.end)))
        val busy = busyMs(jobs, spans.toSeq)
        Seq("profile", "mine", "generalize", "detect").foreach { l =>
          add(s"$l.ms", ms(of(l))); add(s"$l.jobs", of(l).size.toDouble)
          add(s"$l.busy_ms", of(l).map(j => busy(j.id)).sum)
        }
        val lattice = jobs.filter(_.underLattice)
        add("lattice.ms", ms(lattice)); add("lattice.jobs", lattice.size.toDouble)
        add("lattice.busy_ms", lattice.map(j => busy(j.id)).sum)
        add("lattice.mine_ms", ms(lattice.filter(j => layer(j.id).contains("mine"))))
        val attempts = of("generalize").flatMap(_.executionId).distinct.size
        add("generalize.attempts", attempts.toDouble)
        add("generalize.accepted", if (attempts == 0) 0.0 else variableDeps.toDouble / attempts)
        add("detect.flagged", tables.flatMap(t => reference.get(t.name)).map(_.flagged.size).sum.toDouble)
        add("discover.ms", spans.filter(_.name == "discover").map(_.ms).sum)
        add("spark.jobs", jobs.size.toDouble)
        add("spark.stages", jobs.map(_.stages).sum.toDouble)
        add("spark.tasks", jobs.map(_.tasks).sum.toDouble)
        add("spark.task_cpu_ms", jobs.map(_.cpuNanos).sum / 1e6)
        add("spark.shuffle_write_mb", jobs.map(_.shuffleBytes).sum / 1048576.0)
        add("spark.driver_ms", spans.map { s =>
          s.ms - JobTracer.unionMs(jobs.filter(j => s.contains(j.start))
            .map(j => (j.start, math.min(j.end, s.end))))
        }.sum)
        add("jvm.gc_ms", gcMs - gc0)
        add("jvm.peak_heap_mb", heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0)
      }
      pass += 1
    }
    val measuredS = (System.nanoTime() - start) / 1e9

    // --- traced runs also time index build and pruning, which run lazily
    // inside discovery and so have no jobs of their own there.
    val extra = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    if (a.trace) tables.foreach { t =>
      val tracer = new JobTracer
      spark.sparkContext.addSparkListener(tracer)
      val spans = mutable.ArrayBuffer.empty[Span]
      val f0 = System.currentTimeMillis()
      val quals = Profiler.profile(t.df).filter(_.isQualitative)
      def timed[T](name: String, record: Boolean = true)(body: => T): T = {
        val s0 = System.currentTimeMillis()
        val r = body
        spans += Span(name, s0, System.currentTimeMillis())
        if (record) extra(s"$name.ms") += spans.last.ms
        r
      }
      val index = PatternIndex.build(t.df, quals).cache()
      extra("index.rows") += timed("index")(index.count()).toDouble
      val kept = timed("prune")(PatternIndex.prunedStats(index, w.params.maxPatternsPerAttr).count())
      extra("prune.patterns_out") += kept.toDouble
      timed("prune", record = false) {
        extra("prune.patterns_in") += index.select("attr", "token", "pos").distinct().count().toDouble
        extra("prune.cap_dropped") +=
          (PatternIndex.prunedStats(index, Int.MaxValue).count() - kept).toDouble
      }
      index.unpersist()
      val f1 = System.currentTimeMillis()
      tracer.drain()
      spark.sparkContext.removeSparkListener(tracer)
      val jobs = tracer.jobsBetween(f0, f1)
      val layer = attribute(jobs, spans.toSeq)
      unattributed += jobs.count(j => layer(j.id).isEmpty)
    }

    // --- results.
    val quality = tables.flatMap(t => reference.get(t.name)).map(_.quality)
      .foldLeft(Quality(0, 0, 0, 0, 0, 0))(_ + _)
    def ratio(x: Int, y: Int): Double = if (y == 0) 0.0 else x.toDouble / y
    def sumOfMedians(m: collection.Map[String, mutable.ArrayBuffer[Double]]): Double =
      tables.map(t => m.get(t.name).map(xs => median(xs.toSeq)).getOrElse(Double.NaN)).sum
    def passSums(m: collection.Map[String, mutable.ArrayBuffer[Double]]): Seq[Double] = {
      val n = m.values.map(_.size).minOption.getOrElse(0)
      (0 until n).map(i => tables.flatMap(t => m.get(t.name)).map(_(i)).sum)
    }
    val nPasses = discS.values.map(_.size).minOption.getOrElse(0)
    val e2e = Seq(
      Metric("setup_s", setupS, "s", genS.size),
      Metric("discover_s", sumOfMedians(discS), "s", nPasses, tailPercentile(passSums(discS))),
      Metric("detect_s", sumOfMedians(detS), "s", nPasses, tailPercentile(passSums(detS))),
      Metric("dep_precision", ratio(quality.correct, quality.found), "ratio", 1),
      Metric("dep_recall", ratio(quality.correct, quality.gt), "ratio", 1),
      Metric("err_precision", ratio(quality.hits, quality.flagged), "ratio", 1),
      Metric("err_recall", ratio(quality.hits, quality.errors), "ratio", 1))
    val tracedPasses = passWall(true).size
    def layerMedian(k: String): Double = median(layerSamples.getOrElse(k, mutable.ArrayBuffer(0.0)).toSeq)
    val perLayer =
      Seq("profile.ms" -> "ms", "profile.jobs" -> "count", "profile.busy_ms" -> "ms",
          "mine.ms" -> "ms", "mine.jobs" -> "count", "mine.busy_ms" -> "ms",
          "generalize.ms" -> "ms", "generalize.jobs" -> "count", "generalize.busy_ms" -> "ms",
          "generalize.attempts" -> "count", "generalize.accepted" -> "ratio",
          "lattice.ms" -> "ms", "lattice.jobs" -> "count", "lattice.busy_ms" -> "ms",
          "lattice.mine_ms" -> "ms",
          "detect.ms" -> "ms", "detect.jobs" -> "count", "detect.busy_ms" -> "ms",
          "detect.flagged" -> "count",
          "discover.ms" -> "ms",
          "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
          "spark.task_cpu_ms" -> "ms", "spark.shuffle_write_mb" -> "MB", "spark.driver_ms" -> "ms",
          "jvm.gc_ms" -> "ms", "jvm.peak_heap_mb" -> "MB")
        .map { case (k, u) => Metric(k, layerMedian(k), u, tracedPasses) } ++
      Seq("index.ms" -> "ms", "index.rows" -> "count", "prune.ms" -> "ms",
          "prune.patterns_in" -> "count", "prune.patterns_out" -> "count",
          "prune.cap_dropped" -> "count")
        .map { case (k, u) => Metric(k, extra(k), u, 1) } ++
      Seq(
        Metric("spark.cached_mb", cachedMb.lastOption.getOrElse(0.0), "MB", cachedMb.size),
        Metric("trace.overhead_ms",
          median(passWall(true).toSeq) - median(passWall(false).toSeq), "ms", tracedPasses),
        Metric("trace.unattributed_jobs", unattributed.toDouble, "count", tracedPasses),
        Metric("golden.dep_diff", if (snapshotApplies) depDiff else -1, "count", 1),
        Metric("golden.cell_diff", if (snapshotApplies) cellDiff else -1, "count", 1))

    val facts = Map(
      "workload" -> w.name, "tables" -> w.tables.map(i => s"T$i"), "scale" -> w.scale,
      "params" -> w.params.toString, "seed" -> a.seed, "trace" -> a.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors(), "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> ShufflePartitions,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / 1048576,
      "spark_version" -> spark.version, "jdk_version" -> System.getProperty("java.version"),
      "source" -> a.source, "passes" -> pass, "measured_s" -> measuredS,
      "discover_s_per_pass" -> passSums(discS), "detect_s_per_pass" -> passSums(detS),
      "cached_mb_per_pass" -> cachedMb.toSeq, "setup_gen_s" -> genS.toSeq, "session_s" -> sessionS,
      "golden_dep_diff" -> depDiff, "golden_cell_diff" -> cellDiff,
      "golden_checked" -> snapshotApplies, "quality" -> quality.render, "notes" -> notes.toSeq)
    println("facts " + json(facts))
    val shown = if (a.trace) perLayer else e2e
    shown.foreach { m =>
      val tail = m.tail.map { case (p, v) => f" p$p=$v%.4f" }.getOrElse("")
      println(f"metric ${m.name}%-24s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples}$tail")
    }
    spark.stop()
    import scala.collection.immutable.ListMap
    println(json(ListMap(
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> ListMap(shown.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit)): _*))))
    0
  }

  /** Wall time charged to each job: from the end of the span's previous
    * job (or the span's start) to this job's end. It covers the Spark driver's
    * planning and Scala work that precedes the job, so a layer's charged
    * time shows where a span's wall time goes, not only its busy jobs.
    */
  def busyMs(jobs: Seq[TracedJob], spans: Seq[Span]): Map[Int, Double] =
    spans.flatMap { s =>
      var cursor = s.start
      jobs.filter(j => s.contains(j.start)).sortBy(_.end).map { j =>
        val end = math.min(j.end, s.end)
        val charged = math.max(0L, end - cursor)
        cursor = math.max(cursor, end)
        j.id -> charged.toDouble
      }
    }.toMap.withDefaultValue(0.0)

  /** Layer of each job: its call-site layer, else the benchmark span that
    * was open when it started, else none (unattributed).
    */
  def attribute(jobs: Seq[TracedJob], spans: Seq[Span]): Map[Int, Option[String]] =
    jobs.map(j => j.id -> j.layer.orElse(spans.find(_.contains(j.start)).map(_.name))).toMap
}
